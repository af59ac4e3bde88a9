"""lensless-crb benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fig3_poisson --seed 0 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``. Every repetition of a workload is
a fresh worker process running it once, as a CLI invocation would; the run
repeats it until ``--seconds`` have passed (and at least the workload's
minimum number of times), then checks every output outside the timed region.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``wall_s`` (the workload call), ``units_per_s``, ``setup_s`` (process start
to ``import lensless_crb`` done) and ``peak_rss_mb`` (the worker's peak
resident memory). ``--trace 1`` traces every repetition, adds one traced
repetition with a single BLAS thread, and reports the per-layer metrics of
``layers.py``, the tracing overhead among them; the spans are written to
``.perfbench/trace-*.json``.

The minimum repetitions can make a run longer than ``--seconds``: the
decoder efficiency check needs 1000 pooled MLE trials (10 repetitions), and
``oracles_verify`` takes 5 repetitions of its CLI defaults to keep the
median steady.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every check passes, 1 when an output check fails and 2 when the
package sources are missing or a worker cannot start.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from layers import LAYER_METRICS, RUN_LEVEL, layer_value  # noqa: E402
from tracing import accounting_error  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170
ACCOUNTING_TOL_S = 1e-6


class WorkerError(RuntimeError):
    pass


def _env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(args, threads):
    """Run worker.py; return (set-up seconds, parsed last line or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=_env(threads), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {args} timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    try:
        return setup_s, (json.loads(lines[-1]) if lines else None)
    except ValueError:
        raise WorkerError(f"worker {args} printed no result: {out.strip()[-2000:]}")


class Run:
    def __init__(self, workload, seed, run_dir, nproc):
        self.name, self.seed, self.run_dir, self.nproc = workload, seed, run_dir, nproc
        self.records, self.setups = [], []

    def rep(self, traced, threads=None):
        index = len(self.records)
        out_dir = self.run_dir / f"rep{index}"
        setup_s, record = spawn(
            [self.name, str(self.seed), str(index), "1" if traced else "0",
             str(out_dir), "1" if index == 0 else "0"],
            threads or self.nproc)
        record["traced"], record["threads"] = traced, threads or self.nproc
        self.setups.append(setup_s)
        self.records.append(record)
        return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(run):
    walls = [r["wall_s"] for r in run.records]
    return {
        "wall_s": (walls, "s"),
        "units_per_s": ([r["units"] / r["wall_s"] for r in run.records], "1/s"),
        "setup_s": (run.setups, "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in run.records], "MB"),
    }


def per_layer(run):
    traced, serial = run.records[:-1], run.records[-1]
    values = {}
    for name, unit, *_ in LAYER_METRICS:
        if name not in RUN_LEVEL:
            values[name] = ([layer_value(name, r["trace"]) for r in traced], unit)
    values["trace.wall_s"] = ([r["wall_s"] for r in traced], "s")
    values["serial.wall_s"] = ([serial["wall_s"]], "s")
    return values


def measure(run, seconds, trace):
    t0 = time.perf_counter()
    while len(run.records) < WORKLOADS[run.name].min_reps or time.perf_counter() - t0 < seconds:
        run.rep(traced=bool(trace))
    if trace:
        run.rep(traced=True, threads=1)


def report(run, metrics, attempted, failed, problems, unit_name):
    print(f"workload {run.name} seed {run.seed}: {len(run.records)} reps, "
          f"unit = one {unit_name}")
    for name, (values, unit) in metrics.items():
        q1, q3 = quartiles(values)
        print(f"  {name:42s} {statistics.median(values):14.6g} {unit:6s} "
              f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':42s} {frac:14.6g} {'1':6s} ({failed}/{attempted})")
    for p in problems:
        print(f"  CHECK FAILED: {p}")


def write_trace(run, metrics, env):
    tags = {name: {"moves": moves, "on": on, "no_change_on": same}
            for name, _u, _b, moves, on, same in LAYER_METRICS}
    for name, (values, unit) in metrics.items():
        print(f"  {name:42s} moves {tags[name]['moves']} on {tags[name]['on']}; "
              f"no change on {tags[name]['no_change_on']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{run.name}-seed{run.seed}.json"
    traced = [{"rep": i, "threads": r["threads"], "wall_s": r["wall_s"],
               "summary": r["trace"], "spans": r["spans"]}
              for i, r in enumerate(run.records) if r["traced"]]
    path.write_text(json.dumps({
        "workload": run.name, "seed": run.seed, "env": env,
        "per_layer": {name: {"median": statistics.median(values), "unit": unit,
                             "values": values, **tags[name]}
                      for name, (values, unit) in metrics.items()},
        "traced_reps": traced}))
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lensless_crb" / "__init__.py").is_file():
        print(f"perfbench: no lensless_crb package under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(args.workload, args.seed, run_dir, nproc)
    spec = WORKLOADS[args.workload]
    try:
        measure(run, args.seconds, args.trace)
        failed, problems = spec.check(run.records)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = run.records[0]["env"]
    threads = [env["numpy_blas"]["threads"], env["scipy_blas"]["threads"]]
    if any(t is None or t > env["nproc"] for t in threads):
        problems.append(f"BLAS threads {threads} not known or above nproc {env['nproc']}")
    print("env " + json.dumps(env, sort_keys=True))

    attempted = sum(r["units"] for r in run.records)
    if args.trace:
        metrics = per_layer(run)
        for i, r in enumerate(run.records):
            if r["traced"] and accounting_error(r["trace"]) > ACCOUNTING_TOL_S:
                problems.append(f"rep {i}: self times do not add up to the traced wall")
    else:
        metrics = end_to_end(run)
    report(run, metrics, attempted, failed, problems, spec.unit)
    if args.trace:
        write_trace(run, metrics, env)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
