"""Record a baseline: repeated benchmark runs and their spread.

    python3 perfbench/baseline.py --commit <hash>

Two sets of runs, written to ``perfbench/baseline.json``. Set ``i`` runs
every workload of ``BENCHMARK.json`` once per seed ``10*i .. 10*i+9``,
interleaving workloads so that drift on the machine hits them alike, then
one traced run per workload at seed 0. For each end-to-end metric it reports
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, and for the second and later sets the change of the
median against the first set, next to the bound from ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SETS = 2
SEEDS_PER_SET = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": time.perf_counter() - t0,
            "result": result, "env": env}


def summarize(runs, names):
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "n": len(values)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", required=True, help="commit the runs measure")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sets = []
    for i in range(SETS):
        seeds = list(range(i * SEEDS_PER_SET, (i + 1) * SEEDS_PER_SET))
        runs = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, seconds, 0)
                runs[w].append(r)
                status = r["result"]["correct"] if r["result"] else f"exit {r['exit']}"
                print(f"set {i} {w} seed {seed}: {status} ({r['elapsed_s']:.1f} s)",
                      file=sys.stderr, flush=True)
        sets.append({"seeds": seeds, "workloads": {
            w: {"summary": summarize(runs[w], e2e), "runs": runs[w]} for w in workloads}})

    agreement = {}
    for w in workloads:
        first = sets[0]["workloads"][w]["summary"]
        for s in sets[1:]:
            for name, m in e2e.items():
                later = s["workloads"][w]["summary"][name]["median"]
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (later - first[name]["median"]) / first[name]["median"]
                agreement.setdefault(w, {})[name] = {
                    "worse_by": worse, "bound": m["bound"], "within": worse <= m["bound"],
                    "spreads": [x["workloads"][w]["summary"][name]["spread"] for x in sets]}
    traced = {}
    for w in workloads:
        r = run_once(w, 0, seconds, 1)
        traced[w] = r["result"]
        print(f"traced {w}: {r['result']['correct'] if r['result'] else r['exit']}",
              file=sys.stderr, flush=True)

    env = sets[0]["workloads"][workloads[0]]["runs"][0]["env"]
    for s in sets:
        for w in workloads:
            for r in s["workloads"][w]["runs"]:
                del r["env"]
    OUT.write_text(json.dumps({
        "commit": args.commit, "run_seconds": seconds, "env": env,
        "agreement": agreement, "sets": sets, "traced_seed0": traced}, indent=1) + "\n")
    bad = [(w, n) for w, a in agreement.items() for n, x in a.items() if not x["within"]]
    print(f"wrote {OUT.relative_to(ROOT)}; medians outside bound: {bad or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
