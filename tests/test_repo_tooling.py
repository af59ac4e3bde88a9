"""Checks on files outside the package that depend on its layout."""

import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

from lensless_crb import cli

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


def test_readme_command_lines_parse():
    text = (ROOT / "README.md").read_text()
    lines = [line.split("#", 1)[0]
             for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
             for line in block.splitlines() if line.startswith("lensless-crb ")]
    assert len(lines) >= 6
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
