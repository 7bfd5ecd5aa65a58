"""No dead code in ``src/redconn``, read with the standard library's ``ast``:
every import is used, every private top-level function, class or constant is
referenced somewhere in the package, and so is every private method of a class
and every dataclass field, each read as an attribute.  And no draw-at-a-time
sampling in any module: no ``rng`` method is called inside a loop or a
comprehension, except in the functions allowed below, and no draw is discarded:
no ``rng`` call stands alone as a statement.  And no solve-at-a-time
loops where every chart point's solve can be one stacked solve: no
``tangent_solve``, ``np.linalg.lstsq``, ``np.linalg.solve`` or ``.lift`` call
inside a loop or a comprehension in ``curvature.py`` or the chart sweep, except
in the functions allowed below.  And no function returns a closure: no
``return`` value holds a lambda or a nested function, except in the functions
allowed below.  And no object memoizes its calls: no method but ``__init__``
assigns to an attribute of ``self`` or into one, or calls a mutating method on
one, except in the methods allowed below.  And no public surface that only
tests call: every public top-level function and public method has a caller in
the package's own code, or an entry below that says why it has none, and the
test oracles (``tests/oracles.py``) read no private name of the package.  And no
special case of an empty subspace: no ``if``, ``while`` or conditional expression
tests a dimension, a ``.size`` or a ``.shape[i]`` against 0, except in the
functions allowed below."""

import ast
from collections import Counter
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


# functions that may call an rng method inside a loop, with the reason: none, since
# every sample set is drawn in one call
RNG_LOOPS_ALLOWED: dict = {}


class _LoopCallFinder(ast.NodeVisitor):
    """(innermost function, line) of every call that ``matches`` inside a ``for``
    or ``while`` loop or a comprehension."""

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
        if self.depth and self.matches(node.func):
            self.found.append((self.function, node.lineno))
        self.generic_visit(node)

    def generic_visit(self, node):
        loop = isinstance(node, self.LOOPS)
        self.depth += loop
        super().generic_visit(node)
        self.depth -= loop


def _named(node, name: str) -> bool:
    """Whether ``node`` is the bare name ``name`` or an attribute ``….name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _draws(func) -> bool:
    """Whether a call of ``func`` is ``rng.m(…)`` or ``….rng.m(…)``."""
    return isinstance(func, ast.Attribute) and _named(func.value, "rng")


class _RngLoopFinder(_LoopCallFinder):
    """Calls ``rng.m(…)`` or ``….rng.m(…)`` in loops."""

    matches = staticmethod(_draws)


class _SolveLoopFinder(_LoopCallFinder):
    """Calls ``tangent_solve(…)``, ``….linalg.lstsq(…)``, ``….linalg.solve(…)``
    or ``….lift(…)`` in loops."""

    @staticmethod
    def matches(func) -> bool:
        return (_named(func, "tangent_solve") or isinstance(func, ast.Attribute)
                and (func.attr == "lift" or func.attr in ("lstsq", "solve")
                     and _named(func.value, "linalg")))


def _rng_calls_in_loops(tree) -> list:
    finder = _RngLoopFinder()
    finder.visit(tree)
    return finder.found


def test_every_module_draws_each_sample_set_in_one_call():
    found = [(module, name, line) for module, tree in TREES.items()
             for name, line in _rng_calls_in_loops(tree)]
    assert [f"{module}:{line} {name}" for module, name, line in found
            if name not in RNG_LOOPS_ALLOWED] == []
    # every allowed function still needs its entry
    assert {name for _, name, _ in found} >= set(RNG_LOOPS_ALLOWED)


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


def _discarded_draws(tree) -> list:
    """Lines of every ``rng`` call that stands alone as a statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call) and _draws(node.value.func)]


def test_no_module_discards_a_draw():
    assert [f"{module}:{line}" for module, tree in TREES.items()
            for line in _discarded_draws(tree)] == []


def test_discarded_draw_rule_catches_unread_draws():
    source = """
def staged(run, rng):
    run.rng.uniform(-1, 1, (2, 5, 3))
    xs = rng.standard_normal(3)
    if xs[0] > 0:
        rng.random()
    print(xs)
    return np.sum(rng.standard_normal(2)), run.rng
"""
    assert _discarded_draws(ast.parse(source)) == [3, 6]


# functions of curvature.py and the chart sweep that may call a solve inside a loop, with
# the reason: none, since every chart point's solve is one stacked solve
SOLVE_LOOPS_ALLOWED: dict = {}


def _solve_calls_in_loops(tree) -> list:
    finder = _SolveLoopFinder()
    finder.visit(tree)
    return finder.found


def test_curvature_and_the_chart_sweep_stack_their_solves():
    sweep, = [node for node in TREES["pipeline.py"].body
              if isinstance(node, ast.FunctionDef) and node.name == "_chart_sweep"]
    found = [(f"curvature.py:{line} {name}", name)
             for name, line in _solve_calls_in_loops(TREES["curvature.py"])]
    found += [(f"pipeline.py:{line} {name}", name) for name, line in _solve_calls_in_loops(sweep)]
    assert [where for where, name in found if name not in SOLVE_LOOPS_ALLOWED] == []
    # every allowed function still needs its entry
    assert {name for _, name in found} >= set(SOLVE_LOOPS_ALLOWED)


def test_solve_loop_rule_catches_per_point_solves():
    source = """
def swept(geom, pts, e, Ds, covs, pairs):
    for t in pts:
        geom.lift(t, e, geom.point(t, e).D.T)
    gammas = [tangent_solve(D, cov) for D, cov in zip(Ds, covs)]
    fits = {i: np.linalg.lstsq(D, c, rcond=None)[0] for i, (D, c) in enumerate(pairs)}
    params = [linalg.solve(F, u) for F, u in pairs]
    return gammas, fits, params, np.linalg.solve(Ds, covs), tangent_solve(Ds, covs)
"""
    assert _solve_calls_in_loops(ast.parse(source)) == [("swept", 4), ("swept", 5),
                                                        ("swept", 6), ("swept", 7)]


# functions in src/redconn that may return a lambda or a nested function, with the reason
CLOSURE_RETURNS_ALLOWED: dict[str, str] = {}


def _own_nodes(fn):
    """Every node of a function's body outside its nested functions and classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _closure_returns(tree) -> list:
    """(function, line) of every ``return`` whose value holds a lambda or names a
    function defined inside the returning one (other than to call it), bare or
    inside the object it builds."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {node.name for node in _own_nodes(fn)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for ret in (node for node in _own_nodes(fn)
                    if isinstance(node, ast.Return) and node.value is not None):
            called = {id(node.func) for node in ast.walk(ret.value) if isinstance(node, ast.Call)}
            if any(isinstance(node, ast.Lambda)
                   or isinstance(node, ast.Name) and node.id in nested and id(node) not in called
                   for node in ast.walk(ret.value)):
                found.append((fn.name, ret.lineno))
    return sorted(found)


def test_no_function_returns_a_closure():
    # a connection, a field or a rule is an array the caller evaluates, not a callable
    found = [(f"{module[:-3]}.{name}", line) for module, tree in TREES.items()
             for name, line in _closure_returns(tree)]
    assert [f"{name}:{line}" for name, line in found if name not in CLOSURE_RETURNS_ALLOWED] == []
    # every allowed function still needs its entry
    assert {name for name, _ in found} >= set(CLOSURE_RETURNS_ALLOWED)


def test_closure_rule_catches_closure_constructors():
    # the five connection constructors a connection-as-closure design had, abridged
    source = """
def baseline_connection(a):
    gamma = np.zeros((2 * a.dim,) * 3)
    return FrameConnection(a, lambda xi: np.broadcast_to(gamma, np.shape(xi)[:-1] + gamma.shape),
                           label="baseline")


def symplectize(conn):
    return FrameConnection(conn.algebra, lambda xi: symplectized_coefficients(conn, xi))


def pullback_connection(conn, g):
    T = frame_transport(np.linalg.inv(g))

    def coeff(xi):
        return linalg.einsum("Aa,Bb,cC,...ABC->...abc", T, T, T, conn.coefficients(xi))

    return FrameConnection(conn.algebra, coeff, label=f"pullback({conn.label})")


def average_connection(conn, nodes):
    pulled = [pullback_connection(conn, g) for g in nodes]

    def coeff(xi):
        return sum(p.coefficients(xi) for p in pulled) / len(pulled)

    return FrameConnection(conn.algebra, coeff)


def perturbed_connection(conn, delta):
    def coeff(xi):
        return conn.coefficients(xi) + delta

    return coeff


def helper_called_in_return(x):
    def step(h):
        return x + h

    return step(1.0), [step(h) for h in (2.0, 3.0)]
"""
    assert [name for name, _ in _closure_returns(ast.parse(source))] == [
        "average_connection", "baseline_connection", "perturbed_connection",
        "pullback_connection", "symplectize"]


# methods of src/redconn classes, other than __init__, that may change an attribute of
# self, with the reason: none, since no method stores what it computed
SELF_MUTATIONS_ALLOWED: dict = {}
MUTATING_METHODS = ("update", "setdefault", "append", "pop", "clear")


def _on_self(node) -> bool:
    """Whether ``node`` is an attribute of ``self``, or an attribute or subscript
    of one, or a tuple or list holding one."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_on_self(elt) for elt in node.elts)
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        if isinstance(node, ast.Attribute) and _named(node.value, "self"):
            return True
        node = node.value
    return False


def _self_mutations(tree) -> list:
    """(Class.method, line) of every assignment to or into an attribute of ``self``
    (plain, augmented or annotated), and of every call of a mutating method on
    one, in a method other than ``__init__``."""
    found = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in MUTATING_METHODS):
                    targets = [node.func.value]
                else:
                    continue
                if any(_on_self(target) for target in targets):
                    found.append((f"{cls.name}.{fn.name}", node.lineno))
    return sorted(found)


def test_no_method_changes_its_instance():
    # a point kernel, a chart or a context is a value its caller holds; no
    # object keeps what one call computed for a later one
    found = [(f"{module[:-3]}.{name}", line) for module, tree in TREES.items()
             for name, line in _self_mutations(tree)]
    assert [f"{name}:{line}" for name, line in found if name not in SELF_MUTATIONS_ALLOWED] == []
    # every allowed method still needs its entry
    assert {name for name, _ in found} >= set(SELF_MUTATIONS_ALLOWED)


def test_self_mutation_rule_catches_a_memo_cache():
    source = """
class Memo:
    def __init__(self, build):
        self._cache = {}
        self.build = build

    def point(self, key):
        if key not in self._cache:
            self._cache[key] = self.build(key)
        self.hits += 1
        return self._cache[key]

    def points(self, keys):
        self._cache.update({k: self.build(k) for k in keys})
        self._cache.setdefault(keys[0], None)
        return [self.point(k) for k in keys]

    def reset(self, other):
        self._cache.clear()
        self.last, other.x = None, 1
        other.cache[0] = self.build.calls
        local = {}
        local[0] = self._cache.get(0)
        local.update(self._cache)
        return local
"""
    assert _self_mutations(ast.parse(source)) == [
        ("Memo.point", 9), ("Memo.point", 10), ("Memo.points", 14), ("Memo.points", 15),
        ("Memo.reset", 19), ("Memo.reset", 20)]


# public functions and methods of src/redconn with no caller in the package's code
# (``__init__.py`` aside), with the reason each stays public
PUBLIC_ENTRY_POINTS = {
    "reduction.reduced_form": "README entry point: the reduced form on two orbit tangents",
    "curvature.curvature_routes": "README entry point: both finite-difference routes at "
                                  "one chart point",
    "curvature.convergence_factor": "entry point: the step-halving probe at any point and "
                                    "triple, which acceptance criterion 4 reads",
    "curvature.curvature_exact": "README entry point: the exact curvature at one chart point "
                                 "from the chart's lift block, building no kernel (the "
                                 "battery reads the same math from its kernels)",
}


def _public_definitions(tree) -> list:
    """(qualified name, node, is a method) for each public top-level function and
    each public method of a top-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            out.append((node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{fn.name}", fn, True) for fn in node.body
                       if isinstance(fn, functions) and not fn.name.startswith("_"))
    return out


def _reads(tree) -> tuple[Counter, Counter]:
    """How often a tree reads each name as ``x.name``, and as a bare name."""
    attrs, names = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
    return attrs, names


def _uses(reads: tuple[Counter, Counter], name: str, method: bool) -> int:
    """How often ``reads`` (``_reads``) read ``name`` as ``x.name``, and, unless
    ``method``, as a bare name too."""
    attrs, names = reads
    return attrs[name] + (0 if method else names[name])


def _uncalled_public(trees: dict) -> list:
    """``module.name`` of every public function or method that no code of the
    trees but its own definition reads (``__init__.py``'s exports are no use).
    Each tree is walked once, and each definition once more."""
    code = {module: tree for module, tree in trees.items() if module != "__init__.py"}
    reads = tuple(sum(counts, Counter()) for counts in zip(*map(_reads, code.values())))
    return [f"{module[:-3]}.{name}" for module, tree in code.items()
            for name, node, method in _public_definitions(tree)
            if _uses(reads, node.name, method) <= _uses(_reads(node), node.name, method)]


def test_every_public_function_has_a_caller_in_src():
    uncalled = _uncalled_public(TREES)
    assert [name for name in uncalled if name not in PUBLIC_ENTRY_POINTS] == []
    # every listed name still has no caller, so the list stays minimal
    assert set(uncalled) >= set(PUBLIC_ENTRY_POINTS)


def test_caller_rule_catches_a_function_nobody_calls():
    trees = {"__init__.py": ast.parse("from .mod import exported, unused"),
             "mod.py": ast.parse("""
def unused(x):
    return unused(x - 1) if x else 0


def exported(x):
    return helper(x) + Point(x).norm()


def helper(x):
    return x


class Point:
    def norm(self):
        return self.x

    def scaled(self, s):
        scaled = self.norm() * s
        return scaled
""")}
    assert _uncalled_public(trees) == ["mod.unused", "mod.exported", "mod.Point.scaled"]



def _private_reads(tree) -> list:
    """(line, name) of every private name a tree reads from ``redconn``: an
    attribute ``x._name`` and a ``_name`` imported from a ``redconn`` module
    (dunders aside)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    out = [(node.lineno, node.attr) for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and private(node.attr)]
    out += [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("redconn")
            for alias in node.names if private(alias.name)]
    return sorted(out)


def test_oracles_read_no_private_name_of_redconn():
    # the test oracles stay independent of the internals they check
    path = Path(__file__).resolve().parent / "oracles.py"
    assert _private_reads(ast.parse(path.read_text())) == []


def test_private_read_rule_catches_internals():
    source = """
import redconn as rc
from redconn.reduction import _central, SigmaGeometry
from redconn import linalg

def oracle(chart, t):
    return rc.reduction._central(chart.lift_data(t), chart.__class__, linalg._rank)
"""
    assert _private_reads(ast.parse(source)) == [(3, "_central"), (7, "_central"), (7, "_rank")]

# functions of src/redconn that may branch once on a dimension, a size or a shape
# entry being 0, with the reason; every other empty subspace (k = 0, k = n, an
# empty basis) takes the same SVDs, products and ``np.max(…, initial=0.0)`` as the rest
EMPTY_GUARDS_ALLOWED = {
    "pipeline._verify_algebra": "decides whether the report lists lie/complement-equivariance",
    "pipeline._verify_reduction": "decides whether the report lists red/w1-omega-nondegenerate",
    "pipeline._sigma_equivariance_defect": "at k = 0 its draws would be read by nothing",
    "pipeline._stabilizer_sample": "at k = 0 its elements, and the chart sweep's rows on them, "
                                   "would only repeat the identity",
    "pipeline._stage_reduce": "a point orbit has no chart: the stage reports sigma: null",
    "reduction.SigmaGeometry.__init__": "a point orbit has no chart: ZeroDimensionalBase is "
                                        "its typed failure",
}


def _is_dimension(node, names: set) -> bool:
    """Whether ``node`` reads a dimension: ``….size``, ``….dim`` or ``…_dim``, a
    ``….shape[i]`` entry, ``min``/``max`` over a shape, or a name bound to one."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("size", "dim") or node.attr.endswith("_dim")
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Attribute) and node.value.attr == "shape"
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in ("min", "max")
                and any(isinstance(arg, ast.Attribute) and arg.attr == "shape"
                        for arg in node.args))
    return isinstance(node, ast.Name) and node.id in names


def _dimension_names(fn) -> set:
    """Names a function binds to dimensions: ``k = g.shape[1]``, ``n, k = g.shape``
    and ``a, k = ctx.algebra, ctx.stabilizer_dim`` alike."""
    names: set = set()
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and _is_dimension(node.value, names):
                names.add(target.id)
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "shape":
                names.update(t.id for t in target.elts if isinstance(t, ast.Name))
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                names.update(t.id for t, v in zip(target.elts, node.value.elts)
                             if isinstance(t, ast.Name) and _is_dimension(v, names))
    return names


def _emptiness_properties(trees: dict) -> set:
    """Methods and properties whose body returns a dimension tested against 0
    (``return self.base_dim == 0``): reading one tests that dimension."""
    return {fn.name for tree in trees.values() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and len(fn.body) == 1
            and isinstance(fn.body[0], ast.Return)
            and _tests_empty(fn.body[0].value, _dimension_names(fn), set())}


def _tests_empty(test, names: set, properties: set) -> bool:
    """Whether a condition tests a dimension against 0: its truth, a comparison
    with 0, two dimension names against each other (``k == n``, so n − k against
    0), or an emptiness property, alone or inside ``and``/``or``/``not``."""
    if isinstance(test, ast.BoolOp):
        return any(_tests_empty(value, names, properties) for value in test.values)
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _tests_empty(test.operand, names, properties)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        sides = (test.left, test.comparators[0])
        zero = any(isinstance(side, ast.Constant) and type(side.value) in (int, float)
                   and side.value == 0 for side in sides)
        return (zero and any(_is_dimension(side, names) for side in sides)
                or all(isinstance(side, ast.Name) and side.id in names for side in sides))
    return (_is_dimension(test, names)
            or isinstance(test, ast.Attribute) and test.attr in properties)


def _empty_guards(trees: dict) -> list:
    """(module.Class.function, line) of every ``if``, ``while`` or conditional
    expression whose condition tests a dimension against 0."""
    properties = _emptiness_properties(trees)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [(node, f"{module[:-3]}.{node.name}") for module, tree in trees.items()
             for node in tree.body if isinstance(node, definitions)]
    found = []
    while stack:
        node, qualname = stack.pop()
        stack.extend((child, f"{qualname}.{child.name}") for child in node.body
                     if isinstance(child, definitions))
        if not isinstance(node, ast.ClassDef):
            names = _dimension_names(node)
            found.extend((qualname, test.lineno) for test in _own_nodes(node)
                         if isinstance(test, (ast.If, ast.IfExp, ast.While))
                         and _tests_empty(test.test, names, properties))
    return sorted(found)


def test_empty_subspaces_take_the_general_path():
    found = _empty_guards(TREES)
    assert [f"{name}:{line}" for name, line in found if name not in EMPTY_GUARDS_ALLOWED] == []
    # every allowed function keeps exactly the one guard its reason is for
    counts = Counter(name for name, _ in found)
    assert {name: counts[name] for name in EMPTY_GUARDS_ALLOWED} == dict.fromkeys(
        EMPTY_GUARDS_ALLOWED, 1)


def test_empty_guard_rule_catches_every_special_case_of_an_empty_subspace():
    # the special cases of k = 0, k = n and empty bases that src/redconn once had,
    # abridged to their branches, each as it was written
    trees = {"linalg.py": ast.parse("""
def _svd_rank(s):
    if s.size == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def orthonormal_columns(A):
    if A.shape[1] == 0:
        return A.copy()


def rank(A):
    if min(A.shape) == 0:
        return 0


def projector(basis):
    Q = orthonormal_columns(basis)
    if Q.shape[1] == 0:
        return np.zeros((Q.shape[0], Q.shape[0]))
    return Q @ Q.T


def subspace_distance(A, B):
    if A.shape[1] == 0 and B.shape[1] == 0:
        return 0.0
    PA = projector(A) if A.shape[1] else np.zeros((A.shape[0], A.shape[0]))
    PB = projector(B) if B.shape[1] else np.zeros((B.shape[0], B.shape[0]))
"""), "liealg.py": ast.parse("""
def reductive_complement(a, g_mu):
    n, k = g_mu.shape
    if k == 0:
        return np.eye(n)
    if k == n:
        return np.zeros((n, 0))
"""), "orbits.py": ast.parse("""
def orbit_chart(a, mu, m_basis):
    chart = OrbitChart(a, mu.copy(), m_basis.copy())
    if chart.dim:
        chart.check_rank(np.zeros(chart.dim))
"""), "reduction.py": ast.parse("""
def isotropic_correction_gram(om, s_tilde, delta):
    p = s_tilde.shape[1]
    if p == 0:
        return s_tilde.copy(), np.zeros((0, 0))


class ReductionContext:
    @property
    def base_dim(self) -> int:
        return self.m.shape[1]

    @property
    def zero_dimensional_base(self) -> bool:
        return self.base_dim == 0


def build_context(a, mu, *, s_tilde="default", gamma_mu=None, split=None):
    n = a.dim
    k = split.g_mu.shape[1]
    ann_m = linalg.nullspace(m.T) if m.shape[1] else np.eye(n)
    iso_defect = float(np.max(np.abs(S.T @ om @ S))) if k else 0.0
    rows = om @ SD if k else np.zeros((2 * n, 0))
    w1grp = linalg.nullspace(rows[:n, :].T) if k else np.eye(n)
    w2grp = linalg.nullspace(graph_rows.T) if k else np.eye(n)


def autoparallel_check(ctx, *, geom=None, rng=None):
    if not autoparallel or ctx.zero_dimensional_base or geom is None:
        return AutoparallelReport(defect, 0.0 if autoparallel else None)
"""), "pipeline.py": ast.parse("""
def _verify_phase(cfg, run):
    pairing = float(np.max(np.abs(split.t_sigma.T @ om @ split.delta))) \\
        if split.delta.shape[1] else 0.0


def _verify_reduction(cfg, run):
    k = ctx.stabilizer_dim
    kernel_dist = linalg.subspace_distance(kernel, np.hstack([ctx.w2, ctx.S])) \\
        if k or ctx.w2.shape[1] else 0.0
    if k and ctx.w1.shape[1]:
        alpha_defect = max(alpha_defect, float(np.max(np.abs(ctx.alpha_mat @ ctx.w1))))


def _l_equivariance_defect(ctx, rng):
    a, k = ctx.algebra, ctx.stabilizer_dim
    if k == 0:
        return 0.0


def _geodesic_oracle_gap(ctx, value):
    n, k = ctx.algebra.dim, ctx.stabilizer_dim
    if k == 0:
        return 0.0
""")}
    assert _empty_guards(trees) == [
        ("liealg.reductive_complement", 4), ("liealg.reductive_complement", 6),
        ("linalg._svd_rank", 3), ("linalg.orthonormal_columns", 9), ("linalg.projector", 20),
        ("linalg.rank", 14), ("linalg.subspace_distance", 26), ("linalg.subspace_distance", 28),
        ("linalg.subspace_distance", 29), ("orbits.orbit_chart", 4),
        ("pipeline._geodesic_oracle_gap", 23), ("pipeline._l_equivariance_defect", 17),
        ("pipeline._verify_phase", 3), ("pipeline._verify_reduction", 9),
        ("pipeline._verify_reduction", 11),
        ("reduction.autoparallel_check", 29), ("reduction.build_context", 21),
        ("reduction.build_context", 22), ("reduction.build_context", 23),
        ("reduction.build_context", 24), ("reduction.build_context", 25),
        ("reduction.isotropic_correction_gram", 4)]
    # a dimension tested against anything but 0 is no empty guard
    assert _empty_guards({"mod.py": ast.parse("""
def checked(a, mu, m, n, k):
    if mu.shape != (a.dim,) or m.shape[1] != n - k or a.dim < 1:
        raise ValueError(k)
    return m if k == 1 else None
""")}) == []
