"""No dead code in ``src/redconn``, read with the standard library's ``ast``:
every import is used, every private top-level function, class or constant is
referenced somewhere in the package, and so is every private method of a class
and every dataclass field, each read as an attribute.  And no draw-at-a-time
sampling in ``pipeline.py``: no ``rng`` method is called inside a loop or a
comprehension, except in the functions allowed below."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "redconn"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree) -> set:
    """Names a module reads: bare names and the attribute part of ``x.name``."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _imported(tree) -> list:
    """(line, name bound) for every import but ``from __future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((node.lineno, (alias.asname or alias.name).split(".")[0])
                       for alias in node.names)
    return out


def _private_definitions(tree) -> list:
    """(line, name) for each top-level function, class or constant named with
    one leading underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.startswith("__")]


def _class_members(tree) -> list:
    """(line, Class.name, name) for each private method of a class and each
    field of a dataclass."""
    out = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        fields = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not name.startswith("_") or name.startswith("__"):
                    continue
            elif fields and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            out.append((node.lineno, f"{cls.name}.{name}", name))
    return out


def test_every_import_is_used():
    unused = []
    for module, tree in TREES.items():
        if module == "__init__.py":  # its imports are the package's exports
            continue
        used = _loaded_names(tree)
        unused.extend(f"{module}:{line} {name}" for line, name in _imported(tree)
                      if name not in used)
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= _loaded_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = [f"{module}:{line} {name}" for module, tree in TREES.items()
            for line, name in _private_definitions(tree) if name not in referenced]
    assert dead == []


def test_every_private_method_and_dataclass_field_is_read():
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = [(module, member) for module, tree in TREES.items()
               for member in _class_members(tree)]
    assert len(members) > 20  # the fields of every dataclass and the private methods
    assert [f"{module}:{line} {qualified}" for module, (line, qualified, name) in members
            if name not in read] == []


# pipeline.py functions that may call an rng method inside a loop, with the reason
RNG_LOOPS_ALLOWED = {
    "_sigma_equivariance_defect": "each stabilizer element's uniform draw precedes its "
                                  "normal (u, v) draws in the stream, so one call per "
                                  "distribution would reorder the draws",
}


class _RngLoopFinder(ast.NodeVisitor):
    """(innermost function, line) of every call ``rng.m(…)`` or ``….rng.m(…)``
    inside a ``for`` or ``while`` loop or a comprehension."""

    LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)

    def __init__(self):
        self.function, self.depth, self.found = "<module>", 0, []

    def visit_FunctionDef(self, node):
        outer = self.function, self.depth
        self.function, self.depth = node.name, 0
        self.generic_visit(node)
        self.function, self.depth = outer

    def visit_Call(self, node):
        target = node.func.value if isinstance(node.func, ast.Attribute) else None
        if self.depth and (isinstance(target, ast.Name) and target.id == "rng"
                           or isinstance(target, ast.Attribute) and target.attr == "rng"):
            self.found.append((self.function, node.lineno))
        self.generic_visit(node)

    def generic_visit(self, node):
        loop = isinstance(node, self.LOOPS)
        self.depth += loop
        super().generic_visit(node)
        self.depth -= loop


def _rng_calls_in_loops(tree) -> list:
    finder = _RngLoopFinder()
    finder.visit(tree)
    return finder.found


def test_pipeline_draws_each_sample_set_in_one_call():
    found = _rng_calls_in_loops(TREES["pipeline.py"])
    assert [f"pipeline.py:{line} {name}" for name, line in found
            if name not in RNG_LOOPS_ALLOWED] == []
    # every allowed function still needs its entry
    assert {name for name, _ in found} >= set(RNG_LOOPS_ALLOWED)


def test_rng_loop_rule_catches_draw_at_a_time_loops():
    source = """
def sampled(run, rng):
    for _ in range(3):
        rng.standard_normal(2)
    xs = [run.rng.uniform(-1, 1, 2) for _ in range(3)]
    return {i: rng.random() for i in range(2)}, xs, rng.standard_normal((3, 2))
"""
    assert _rng_calls_in_loops(ast.parse(source)) == [("sampled", 4), ("sampled", 5),
                                                       ("sampled", 6)]
