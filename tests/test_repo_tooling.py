"""Checks on files outside the package that depend on its layout."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, attr) for m, attr, _name, _counter in module.TARGETS]


@pytest.mark.parametrize("module, attr", _tracing_targets())
def test_traced_benchmark_targets_resolve(module, attr):
    # the traced benchmark wraps these module attributes; a missing one
    # crashes `perfbench/run.py --trace 1`
    assert callable(getattr(importlib.import_module(f"lensless_crb.{module}"), attr))


def test_readme_example_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
