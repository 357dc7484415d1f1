"""The package root and the README's examples."""

import importlib
import pathlib
import re
from types import ModuleType

import pytest

import mfdlogic

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("formula", "algebra", "proofs", "member", "entail", "relational")


def test_root_exports_exactly_the_module_names():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"mfdlogic.{name}")
        for public in module.__all__:
            exported[public] = getattr(module, public)
    root = {name: value for name, value in vars(mfdlogic).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert root.keys() == exported.keys()
    assert all(root[name] is exported[name] for name in root)


def _python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("block", _python_blocks(),
                         ids=lambda block: block.splitlines()[0])
def test_readme_python_block_runs(monkeypatch, block):
    # the examples name data files relative to the repository root
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
