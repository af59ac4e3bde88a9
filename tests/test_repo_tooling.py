"""Checks on files outside the package that depend on its layout."""

import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
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


def test_import_loads_no_heavy_scipy_subpackage():
    # each of these adds most of a second to every command's start-up
    heavy = ["scipy.signal", "scipy.sparse", "scipy.optimize"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, lensless_crb\n"
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == ""
