"""One repetition of a benchmark workload, in a fresh process.

    worker.py WORKLOAD SEED REP TRACE OUT_DIR WANT_ENV

The worker imports lensless_crb, prints ``ready`` (the benchmark times
set-up from process start to that line), runs the workload once and prints
one JSON record as its last line: the workload's outputs, ``wall_s`` of the
workload call, ``peak_rss_mb`` of this process, and with TRACE=1 the layer
summary (with the tracing overhead, calibrated after the workload) and the
raw spans.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    import lensless_crb  # noqa: F401
    from lensless_crb import cli  # noqa: F401

    print("ready", flush=True)
    workload, seed, rep, trace, out_dir, want_env = argv

    import envinfo
    import tracing
    import workloads

    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracer.install()
    run = workloads.WORKLOADS[workload].run
    t0 = time.perf_counter()
    record = run(int(seed), int(rep), Path(out_dir))
    wall_s = time.perf_counter() - t0
    record["wall_s"] = wall_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        record["trace"] = tracer.summary(wall_s, tracing.wrapper_cost_s())
        record["spans"] = tracer.spans
    if want_env == "1":
        record["env"] = envinfo.collect()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
