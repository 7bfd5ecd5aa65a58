"""Every ```python block of README.md runs as written, and every dotted name it
gives of the package resolves, and so does every function it names for a
capability, so the documented entry points break the suite when the API
drifts from them."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import redconn as rc

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


# backticked dotted names (`module.name`, `Class.attribute`) whose first part is a
# redconn module, an exported name or a public top-level class of a module (such
# as `PointKernel`); others (`np.…`, `scipy.…`) are not ours
MODULES = {module.name for module in pkgutil.iter_modules(rc.__path__)}
CLASSES = {name: cls for module in sorted(MODULES)
           for name, cls in vars(importlib.import_module(f"redconn.{module}")).items()
           if isinstance(cls, type) and not name.startswith("_")
           and cls.__module__ == f"redconn.{module}"}
DOTTED = sorted({name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", TEXT)
                 if name.split(".")[0] in MODULES | set(rc.__all__) | set(CLASSES)})


def _resolves(name: str) -> bool:
    """Whether every part after the first is an attribute of the one before it,
    or the last part a field of a dataclass (which has no class attribute)."""
    head, *rest = name.split(".")
    obj = (importlib.import_module(f"redconn.{head}") if head in MODULES
           else getattr(rc, head) if hasattr(rc, head) else CLASSES[head])
    for part in rest[:-1]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return hasattr(obj, rest[-1]) or (dataclasses.is_dataclass(obj) and rest[-1] in
                                      {field.name for field in dataclasses.fields(obj)})


def test_readme_dotted_names_resolve():
    assert len(DOTTED) >= 10
    assert {"PointKernel.lifts", "PointKernel.cov"} <= set(DOTTED)
    assert [name for name in DOTTED if not _resolves(name)] == []


def test_a_misspelt_name_does_not_resolve():
    assert _resolves("PointKernel.lifts") and _resolves("reduction.PointKernel.cov")
    assert not _resolves("PointKernel.lfits")
    assert not _resolves("PointKernel.lifts.shape")
    assert not _resolves("SigmaGeometry.lifts")
    assert not _resolves("curvature.curvature_formula")


# the function README gives for a capability, in parentheses after it, as in
# "the pullback … (`pullback_coefficients`)": the package exports each
CAPABILITIES = sorted(set(re.findall(r"\(`([A-Za-z_]\w*)`\)", TEXT)))


def test_readme_capability_names_resolve():
    assert {"symplectized_coefficients", "pullback_coefficients"} <= set(CAPABILITIES)
    assert [name for name in CAPABILITIES if not hasattr(rc, name)] == []


def test_the_pipeline_entry_points_are_exported():
    # a caller reaches the configuration, the pipeline and the check battery
    # from the package, as the command line does
    assert {"CaseConfig", "run_pipeline", "verify_suite"} <= set(rc.__all__)
