"""Checks on files outside the package that depend on its layout."""

import argparse
import ast
import importlib
import importlib.metadata
import importlib.util
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lensless_crb
from lensless_crb import build_system_matrix, cli, estimators, fisher, noise

ROOT = Path(__file__).resolve().parents[1]


def _load_script(folder, name):
    """A module of the repository that lies outside the package, as loaded
    from its file."""
    spec = importlib.util.spec_from_file_location(f"{folder}_{name}",
                                                  ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_perfbench(name):
    return _load_script("perfbench", name)


def _tracing_targets():
    return [(m, attr) for m, attr, _name, _counter in _load_perfbench("tracing").TARGETS]


@pytest.mark.parametrize("module, attr", _tracing_targets())
def test_traced_benchmark_targets_resolve(module, attr):
    # the traced benchmark wraps these module attributes; a missing one
    # crashes `perfbench/run.py --trace 1`
    assert callable(getattr(importlib.import_module(f"lensless_crb.{module}"), attr))


def _installed_tracer(monkeypatch):
    """A perfbench Tracer wrapped around the package; the monkeypatch undoes it."""
    tracing = _load_perfbench("tracing")
    for module, attr, _name, _counter in tracing.TARGETS:
        target = importlib.import_module(f"lensless_crb.{module}")
        monkeypatch.setattr(target, attr, getattr(target, attr))
    tracer = tracing.Tracer()
    tracer.install()
    return tracing, tracer


def test_tracer_accounts_for_threaded_monte_carlo(monkeypatch):
    # the tracer keeps one open-span stack, so the Monte Carlo worker threads
    # must call no traced attribute
    monkeypatch.setattr(fisher, "cpu_count", lambda: 3)
    tracing, tracer = _installed_tracer(monkeypatch)
    H = build_system_matrix(np.ones((2, 2)), (3, 3))
    t0 = time.perf_counter()
    fisher.fisher_monte_carlo(noise.PoissonNoise(1e-3), H, np.ones(H.d),
                              2 * fisher.MC_CHUNK + 1, seed=0)
    summary = tracer.summary(time.perf_counter() - t0, 0.0)
    assert tracing.accounting_error(summary) < 1e-6
    assert list(summary["layers"]) == ["fisher.fisher_monte_carlo"]
    assert summary["layers"]["fisher.fisher_monte_carlo"]["calls"] == 1


def test_tracer_counts_decoder_results(monkeypatch):
    # the traced benchmark reads these fields of the decoders' results
    _tracing, tracer = _installed_tracer(monkeypatch)
    H = build_system_matrix(np.ones((2, 2)), (3, 3))
    Y = np.arange(1.0, 33.0).reshape(16, 2)
    results = {"nnls_estimate": estimators.nnls_estimate(H, Y, max_iters=3),
               "poisson_mle": estimators.poisson_mle(H, Y)}
    for name, res in results.items():
        assert tracer.counters[f"estimators.{name}.iters"] == res.n_iters
        assert tracer.counters[f"estimators.{name}.converged"] == int(res.converged)
    assert {res.converged for res in results.values()} == {False, True}


def test_benchmark_decoder_workload_runs(tmp_path, monkeypatch):
    # the decoders workload calls the library API directly, not through the CLI
    workloads = _load_perfbench("workloads")
    monkeypatch.setattr(workloads, "MLE_TRIALS", 3)
    monkeypatch.setattr(workloads, "NNLS_TRIALS", 3)
    record = workloads.run_decoders(0, 0, tmp_path)
    for name in ("mle", "nnls"):
        assert record[name]["n_failed"] == 0
        assert np.all(np.isfinite(record[name]["mean"]))
        assert np.all(np.isfinite(record[name]["variance"]))
    assert np.all(np.isfinite(record["crb"]))


def test_public_names_resolve():
    # a stale export makes `from lensless_crb import *` raise
    assert [n for n in lensless_crb.__all__ if not hasattr(lensless_crb, n)] == []


def _names_used(path):
    """Names, attributes and import aliases that appear in one module."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name stays only while the package itself or the benchmark
    # uses it; the package's __init__ only re-exports
    modules = [path for path in (ROOT / "src" / "lensless_crb").glob("*.py")
               if path.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_names_used(path) for path in modules))
    assert sorted(set(lensless_crb.__all__) - used) == []


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


def _normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_third_party_test_import_is_declared():
    # `pip install -e .[test]` must install what every test module imports,
    # or collecting that module fails
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {_normalized(re.match(r"[A-Za-z0-9_.-]+", req).group())
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"lensless_crb", "conftest"}
    distributions = importlib.metadata.packages_distributions()
    undeclared = sorted(module for module in third_party
                        if not {_normalized(d) for d in distributions.get(module, [module])}
                        & declared)
    assert third_party and undeclared == []


def _fresh_python(code):
    """stdout of code run in a new interpreter that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_import_loads_no_heavy_subpackage():
    # signal, sparse, optimize and stats each add hundreds of milliseconds
    # to every command's start-up, ndimage and special tens; the Poisson
    # tables need none of them. The scipy.linalg package init brings in
    # SciPy's array-API layer, and with it numpy.f2py, numpy.testing and
    # numpy.ma, about 0.2 s; forward_model loads the two compiled modules
    # the package calls without it. The CLI entry point imports
    # lensless_crb.cli as well as the package.
    heavy = ["scipy.signal", "scipy.sparse", "scipy.optimize", "scipy.ndimage",
             "scipy.special", "scipy.stats", "scipy.linalg", "numpy.f2py",
             "numpy.testing", "numpy.ma"]
    code = ("import sys, lensless_crb, lensless_crb.cli\n"
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    assert _fresh_python(code) == ""


def test_later_scipy_linalg_import_reuses_the_loaded_modules():
    # forward_model registers SciPy's _fblas and _flapack under their own
    # names, so scipy.linalg exports the very functions the package calls;
    # were the files not found, the package would load them through
    # scipy.linalg, and the import test above would fail
    code = """
import sys
from lensless_crb import cli, forward_model
assert "scipy.linalg" not in sys.modules
import scipy.linalg
print(scipy.linalg.blas.dgemm is forward_model.blas.dgemm,
      scipy.linalg.lapack.dtrtri is forward_model.lapack.dtrtri)
"""
    assert _fresh_python(code) == "True True"


def test_case_summary_and_verify_median_load_no_numpy_ma(tmp_path):
    # np.median's first call on float data imports numpy.ma, which every
    # forked study worker would then import inside its case; cli.median
    # serves SUMMARY_STATS and verify's GLS efficiency check instead
    code = f"""
import contextlib, io, sys
from lensless_crb import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = (cli.main(["crb", "--psf-size", "8", "--object-size", "8", "--out", {str(tmp_path)!r}]),
          cli.main(["verify", "--n-samples", "0", "--n-trials", "1000"]))
print(rc, "numpy.ma" in sys.modules, "scipy.linalg" in sys.modules)
"""
    assert _fresh_python(code) == "(0, 0) False False"


def test_poisson_log_likelihood_loads_gammaln_where_it_runs():
    # scipy.special is imported inside PoissonNoise.log_pdf, not at start-up
    code = """
import sys
import numpy as np
from lensless_crb import PoissonNoise, build_system_matrix, log_likelihood
H = build_system_matrix(np.array([[0.5, 0.25], [0.25, 0.0]]), (3, 3))
v = np.linspace(1.0, 9.0, 9)
y = np.arange(H.k, dtype=float) % 4
assert "scipy.special" not in sys.modules
got = log_likelihood(PoissonNoise(0.5), H, v, y)
from scipy.special import gammaln
mean = H.matrix @ v + 0.5
want = float(np.sum(y * np.log(mean) - mean - gammaln(y + 1.0)))
print(abs(got - want) <= 1e-12 * abs(want))
"""
    assert _fresh_python(code) == "True"


def _uses(tree, name):
    """(enclosing function name or None, line) of every ``.name`` attribute
    and every bare ``name``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.Name) and child.id == name):
                found.append((func, child.lineno))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(tree, None)
    return found


def test_only_forward_model_reads_the_dense_system_matrix():
    # forward and adjoint are the one way to apply H, so how H is stored is
    # decided in forward_model alone; verify's invariant oracle reads the
    # dense matrix on purpose
    allowed = {("cli.py", "_verify_checks")}
    offenders = [f"{path.name}:{line}"
                 for path in sorted((ROOT / "src" / "lensless_crb").glob("*.py"))
                 if path.name != "forward_model.py"
                 for func, line in _uses(ast.parse(path.read_text()), "matrix")
                 if (path.name, func) not in allowed]
    assert offenders == []


def test_forward_model_pads_one_psf_canvas():
    # every product and Gram reads windows of the one canvas that
    # build_system_matrix pads, so no other function pads the PSF again
    path = ROOT / "src" / "lensless_crb" / "forward_model.py"
    pads = _uses(ast.parse(path.read_text()), "pad")
    assert [func for func, _line in pads] == ["build_system_matrix"]


def test_decoder_steps_hold_no_column_state():
    # _iterate alone compacts the running columns, so a decoder's step
    # rebinds none of its setup's arrays
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "estimators.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)] == []


def test_package_runs_no_product_on_numpys_blas():
    # every matrix product runs on SciPy's BLAS, so the package calls one
    # OpenBLAS and one_blas_thread has one library to set; NumPy's @, dot
    # and matmul would run on the OpenBLAS that NumPy bundles
    offenders = []
    for path in sorted((ROOT / "src" / "lensless_crb").glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(getattr(node, "op", None), ast.MatMult)]
        offenders += [f"{path.name}:{line}" for name in ("dot", "matmul")
                      for _func, line in _uses(tree, name)]
    assert offenders == []


def test_gram_storage_is_decided_in_forward_model_alone():
    # forward_model.gram alone decides how an S^T S is accumulated and
    # stored: it makes the package's one dsyrk call, and fisher imports
    # neither BLAS nor a private forward_model name
    package = ROOT / "src" / "lensless_crb"
    dsyrk = [(path.name, func) for path in sorted(package.glob("*.py"))
             for func, _line in _uses(ast.parse(path.read_text()), "dsyrk")]
    assert dsyrk == [("forward_model.py", "gram")]
    imported = []
    for node in ast.walk(ast.parse((package / "fisher.py").read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert [name for name in imported
            if name.startswith(("scipy.linalg.blas", "forward_model._"))] == []


def test_one_factor_and_one_triangular_inverse():
    # every SPD matrix the package factors goes through loaded_cholesky, and
    # every CRB diagonal through _inverse_diagonal, so the half blocks of a
    # centrosymmetric Fisher matrix reuse the whole matrix's step
    calls = {name: [(path.name, func)
                    for path in sorted((ROOT / "src" / "lensless_crb").glob("*.py"))
                    for func, _line in _uses(ast.parse(path.read_text()), name)
                    if func is not None]   # the import names it outside any function
             for name in ("cho_factor", "dtrtri")}
    assert calls == {"cho_factor": [("fisher.py", "loaded_cholesky")],
                     "dtrtri": [("fisher.py", "_inverse_diagonal")]}


def test_cli_computes_bounds_only_in_the_case_path():
    # crb and study share write_case, so how a case's CRB is computed and
    # summarised is decided once; verify's GLS check bounds its own trials
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "cli.py").read_text())
    offenders = [f"cli.py:{line}" for func, line in _uses(tree, "bound")
                 if func not in ("write_case", "_verify_checks")]
    assert offenders == []


def test_cli_never_calls_crb_from_fisher():
    # every bound the CLI computes goes through fisher.bound, which picks
    # the algorithm from the Fisher weights; crb_from_fisher factors a
    # caller-held J whole
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "cli.py").read_text())
    assert _uses(tree, "crb_from_fisher") == []


def test_cli_builds_grids_and_writes_cases_in_one_place_each():
    # every PSF and object the CLI builds comes from a config through
    # make_psf_grid / make_object_grid, and a case directory is written by
    # write_case alone (the psf and object commands write their one grid)
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "cli.py").read_text())
    homes = {"generate_psf": {"make_psf_grid"}, "PsfSpec": {"make_psf_grid"},
             "generate_object": {"make_object_grid"}, "ObjectSpec": {"make_object_grid"},
             "write_grid_csv": {"write_case", "_write_grid_command"}}
    offenders = [f"cli.py:{line} {name}" for name, funcs in homes.items()
                 for func, line in _uses(tree, name) if func not in funcs]
    assert offenders == []


def _subparsers():
    """The CLI's subparser of each command name."""
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_flag_sets_a_key_its_command_reads():
    # a flag whose key the command does not read would be refused by
    # resolve_config on every use; the two studies share one subparser
    offenders = []
    for name, p in _subparsers().items():
        reads = set().union(*(keys for command, keys in cli.COMMAND_KEYS.items()
                              if command.split()[0] == name))
        offenders += [f"{name} {a.dest}" for a in p._actions
                      if a.dest not in {"help", "out", "config", "name"} | reads]
    assert offenders == []


def test_every_key_a_command_reads_has_one_flag():
    # the converse: no key a command reads is left settable by file alone
    parsers = _subparsers()
    offenders = [f"{command} {key}" for command, keys in cli.COMMAND_KEYS.items()
                 for key in sorted(keys)
                 if sum(len(a.option_strings) for a in parsers[command.split()[0]]._actions
                        if a.dest == key) != 1]
    assert offenders == []


# every flag the commands took before their flags were made from their keys,
# with the key (or argument) it set
EARLIER_FLAGS = {
    "psf": {"--kind": "psf_kind", "--n": "psf_n", "--size": "psf_size"},
    "object": {"--kind": "object_kind", "--n": "object_n", "--size": "object_size",
               "--peak": "object_peak"},
    "crb": {"--noise": "noise", "--sigma2": "sigma2", "--background": "background",
            "--psf-pad": "psf_pad", "--epsilon-rel": "epsilon_rel", "--config": "config"},
    "verify": {"--sigma2": "sigma2", "--background": "background", "--n-samples": "n_samples",
               "--n-trials": "n_trials", "--config": "config"},
    "study": {"--sigma2": "sigma2", "--background": "background", "--psf-pad": "psf_pad",
              "--epsilon-rel": "epsilon_rel", "--config": "config"},
}


@pytest.mark.parametrize("command", sorted(EARLIER_FLAGS))
def test_every_earlier_flag_keeps_its_name_and_key(command):
    options = _subparsers()[command]._option_string_actions
    flags = {**EARLIER_FLAGS[command], "--seed": "seed", "--out": "out"}
    assert {flag: options[flag].dest for flag in flags if flag in options} == flags


def test_cli_decides_no_case_by_comparing_a_name():
    # a study's noise model and objects come from cli.STUDIES, verify's
    # decoder checks from cli.VERIFY_DECODERS, and a run's manifest values
    # from its noise model, so no code path tests a noise-model or study
    # name, or looks one up by a name written in the code
    names = set(cli.NOISE_MODELS) | set(cli.STUDIES)
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "cli.py").read_text())
    offenders = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Compare)
                 for operand in (node.left, *node.comparators)
                 if isinstance(operand, ast.Constant) and operand.value in names]
    offenders += [f"cli.py:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                  and node.slice.value in names]
    assert offenders == []


def test_one_ordered_pool_runs_every_worker_job():
    # fisher.in_order is the package's one worker loop: it alone submits
    # jobs and caps the BLAS threads, so the job window, the result order
    # and the failure path (cancel, shut down, join) are written once
    offenders = [f"{path.name}:{line} {name}"
                 for path in sorted((ROOT / "src" / "lensless_crb").glob("*.py"))
                 for name in ("submit", "one_blas_thread")
                 for func, line in _uses(ast.parse(path.read_text()), name)
                 if (path.name, func) != ("fisher.py", "in_order")]
    assert offenders == []


def test_only_fork_pool_starts_processes():
    # fisher.fork_pool builds the package's one kind of worker-process pool,
    # which the study and the trial runner hand to in_order: it forks inside
    # one_blas_thread and joins every child, also on a failing job; a pool
    # or fork anywhere else would need those guarantees again
    names = ("ProcessPoolExecutor", "multiprocessing", "fork", "forkpty")
    offenders = []
    for path in sorted((ROOT / "src" / "lensless_crb").glob("*.py")):
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}:{line} {name}" for name in names
                      for func, line in _uses(tree, name)
                      if (path.name, func) != ("fisher.py", "fork_pool")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} import {name}" for name in imported
                          if path.name != "fisher.py"
                          and (name.split(".")[0] == "multiprocessing"
                               or name.split(".")[-1] in names
                               or name.startswith("concurrent.futures.process"))]
    assert offenders == []


def test_noise_imports_nothing_from_fisher():
    # fisher builds its closed forms from the noise models' Fisher weights,
    # so the modules import in one order: noise first, then fisher
    imported = []
    for node in ast.walk(ast.parse((ROOT / "src" / "lensless_crb" / "noise.py").read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert [name for name in imported if "fisher" in name.split(".")] == []


@pytest.mark.parametrize("model", [noise.GaussianNoise, noise.PoissonNoise])
def test_no_noise_model_method_sees_h(model):
    # a model holds per-measurement math; the noise functions and
    # fisher.fisher_information apply it through H
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "noise.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == model.__name__)
    offenders = [f"{model.__name__}.{node.name}" for node in cls.body
                 if isinstance(node, ast.FunctionDef)
                 and "H" in [arg.arg for arg in node.args.args + node.args.kwonlyargs]]
    assert offenders == [] and not hasattr(model, "fisher")


def test_fisher_information_builds_every_closed_form():
    # the Gaussian and Poisson closed forms are one weighted Gram of the
    # model's Fisher weights, formed in one place, which fisher_information
    # and bound share
    tree = ast.parse((ROOT / "src" / "lensless_crb" / "fisher.py").read_text())
    callers = {name: [func for func, _line in _uses(tree, name)
                      if func is not None]   # the import names it outside any function
               for name in ("weighted_gram", "fisher_weights", "_fisher_gram")}
    assert callers == {"weighted_gram": ["_fisher_gram"], "fisher_weights": ["_fisher_gram"],
                       "_fisher_gram": ["fisher_information", "bound"]}


def test_code_line_counter_rules():
    # blank lines, comments and module, class and function docstrings do not
    # count; every line of a multi-line statement or non-doc string does
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        y = (x +
             1)
        s = """a string
        that is no docstring"""
        return y, s
'''
    code_lines = _load_script("tools", "code_lines").code_lines
    assert code_lines(source) == 8
    assert code_lines("") == 0


def test_code_line_counter_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert [line.split() for line in out.splitlines()] == \
        [["2", "a.py"], ["1", "b.py"], ["3", "total"]]
