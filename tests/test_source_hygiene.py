"""No dead code in ``src/redconn``, read with the standard library's ``ast``:
every import is used, every private top-level function, class or constant is
referenced somewhere in the package, and so is every private method of a class
and every dataclass field, each read as an attribute."""

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
