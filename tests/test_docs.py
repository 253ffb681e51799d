"""The documented library surface: README's Python example runs as
written, and every exported name resolves, so a removed public name
cannot linger in the docs or in ``__all__``."""

import importlib
import re
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["spinpoint"] + [
    f"spinpoint.{path.stem}"
    for path in sorted((README.parent / "src" / "spinpoint").glob("*.py"))
    if not path.stem.startswith("_")]


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_without_warnings():
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing


def test_package_exports_the_union_of_the_module_lists():
    import spinpoint
    from spinpoint import (analysis, cmatrix, errors, exceptional, fermi,
                           kernel, spins)
    modules = (analysis, cmatrix, errors, exceptional, fermi, kernel, spins)
    union = {name for module in modules for name in module.__all__}
    assert set(spinpoint.__all__) == union
    assert len(spinpoint.__all__) == len(union) == 55
