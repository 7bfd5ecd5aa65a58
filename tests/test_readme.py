"""Every ```python block of README.md runs as written, and every dotted name it
gives of the package resolves, so the documented entry points break the suite
when the API drifts from them."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import redconn as rc

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


# backticked dotted names (`module.name`, `Class.attribute`) whose first part is a
# redconn module or an exported name; others (`np.…`, `scipy.…`) are not ours
MODULES = {module.name for module in pkgutil.iter_modules(rc.__path__)}
DOTTED = sorted({name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`",
                                             README.read_text(encoding="utf-8"))
                 if name.split(".")[0] in MODULES | set(rc.__all__)})


def _resolves(name: str) -> bool:
    head, *rest = name.split(".")
    obj = importlib.import_module(f"redconn.{head}") if head in MODULES else getattr(rc, head)
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    assert len(DOTTED) >= 10
    assert [name for name in DOTTED if not _resolves(name)] == []
