"""The package root and the README's examples."""

import importlib
import pathlib
import re
import shlex
from types import ModuleType

import pytest

import mfdlogic
from mfdlogic.cli import main

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


def _mfd_lines():
    """Every ``mfd`` command line in the README's sh blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M)
    return [line for block in blocks for line in block.splitlines() if line.startswith("mfd ")]


def test_readme_has_mfd_lines():
    assert len(_mfd_lines()) >= 6


@pytest.mark.parametrize("line", _mfd_lines())
def test_readme_mfd_line_exits_as_its_comment_says(monkeypatch, line):
    command, _, comment = line.partition("#")
    stated = re.search(r"\bexit (\d+)\b", comment)
    assert stated, f"the comment states no exit code: {line!r}"
    # the examples name data files relative to the repository root
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == int(stated.group(1))
