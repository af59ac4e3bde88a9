"""Spans and work counters around calls into lensless_crb, kept in memory.

The library is not instrumented. Instead, :class:`Tracer` replaces module
attributes with timing wrappers before a workload runs. A function is wrapped
under every name through which the package calls it: ``cli`` binds
``build_system_matrix``, ``run_trials`` and the finite-difference oracles by
``from ... import``, and ``estimators`` binds ``noise.sample`` the same way,
so wrapping only the defining module would miss those calls.

Each span is ``(name, parent index, start, end)`` in ``perf_counter``
seconds; the parent is the innermost wrapped call still open (-1 for calls
made directly by the workload). Counters are computed from arguments and
results: bytes of ``H``, dense flop counts of the Gram, Cholesky and
triangular-solve kernels, estimator iterations and convergence, and bytes
written by the storage layer.

The tracing overhead of a run is the number of spans times the cost one
wrapper adds to a call (:func:`wrapper_cost_s`, timed on a no-op in the same
process), plus the time spent computing counters. The difference between
traced and untraced wall times is not used: it is far smaller than the
run-to-run noise of a workload, and reads negative as often as positive.
"""

import functools
import importlib
import os
import statistics
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _h_bytes(args, kwargs, out):
    return {"forward_model.h_bytes": out.matrix.nbytes}


def _gram_flops(args, kwargs, out):
    # J = M^T W M as one dense GEMM: 2 k d^2 flops, whatever W is
    k, d = _arg(args, kwargs, 0, "H").matrix.shape
    return {"fisher.gram_flops": 2 * k * d * d}


def _cholesky_flops(args, kwargs, out):
    n = _arg(args, kwargs, 0, "a").shape[0]
    return {"fisher.crb_flops": n ** 3 // 3}


def _solve_flops(args, kwargs, out):
    factor, _lower = _arg(args, kwargs, 0, "c_and_lower")
    rhs = _arg(args, kwargs, 1, "b")
    n = factor.shape[0]
    nrhs = rhs.shape[1] if rhs.ndim == 2 else 1
    return {"fisher.crb_flops": 2 * n * n * nrhs}   # two triangular solves


def _estimator_counts(prefix):
    def count(args, kwargs, out):
        return {f"{prefix}.iters": out.n_iters,
                f"{prefix}.converged": int(bool(out.converged))}
    return count


def _bytes_written(args, kwargs, out):
    return {"storage.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, span name, counter)
TARGETS = [
    ("psf", "generate_psf", "psf.generate_psf", None),
    ("objects", "generate_object", "objects.generate_object", None),
    ("forward_model", "build_system_matrix", "forward_model.build_system_matrix", _h_bytes),
    ("cli", "build_system_matrix", "forward_model.build_system_matrix", _h_bytes),
    ("fisher", "fisher_gaussian", "fisher.fisher_gaussian", _gram_flops),
    ("fisher", "fisher_poisson", "fisher.fisher_poisson", _gram_flops),
    ("fisher", "fisher_monte_carlo", "fisher.fisher_monte_carlo", None),
    ("fisher", "crb_from_fisher", "fisher.crb_from_fisher", None),
    ("fisher", "cho_factor", "fisher.cho_factor", _cholesky_flops),
    ("fisher", "cho_solve", "fisher.cho_solve", _solve_flops),
    ("noise", "sample", "noise.sample", None),
    ("estimators", "sample", "noise.sample", None),
    ("estimators", "run_trials", "estimators.run_trials", None),
    ("cli", "run_trials", "estimators.run_trials", None),
    ("estimators", "make_gls_solver", "estimators.make_gls_solver", None),
    ("estimators", "nnls_estimate", "estimators.nnls_estimate",
     _estimator_counts("estimators.nnls_estimate")),
    ("estimators", "poisson_mle", "estimators.poisson_mle",
     _estimator_counts("estimators.poisson_mle")),
    ("storage", "write_grid_csv", "storage.write_grid_csv", _bytes_written),
    ("storage", "write_pgm16", "storage.write_pgm16", _bytes_written),
    ("storage", "write_manifest", "storage.write_manifest", _bytes_written),
    ("storage", "checksum_tree", "storage.checksum_tree", None),
    ("cli", "fd_gradient", "oracles.fd_gradient", None),
    ("cli", "fd_jacobian", "oracles.fd_jacobian", None),
]


class Tracer:
    """Collects spans and counters for one workload call in one process."""

    def __init__(self):
        self.spans = []       # [name, parent, start, end]
        self.counters = {}
        self.counter_s = 0.0  # seconds spent computing counters
        self._open = []       # indices of spans not yet ended

    def install(self):
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(f"lensless_crb.{module_name}")
            setattr(module, attr, self._wrap(getattr(module, attr), name, counter))

    def _wrap(self, fn, name, counter):
        spans, open_spans, counters = self.spans, self._open, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0]
            spans.append(span)
            open_spans.append(index)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()
            if counter is not None:
                c0 = time.perf_counter()
                for key, value in counter(args, kwargs, out).items():
                    counters[key] = counters.get(key, 0) + value
                self.counter_s += time.perf_counter() - c0
            return out

        return traced

    def summary(self, wall_s, call_cost_s):
        """Per-name calls, busy (inclusive) and self seconds, glue time, overhead.

        ``cli.self_s`` is the wall time of the workload call not covered by
        any top-level span, so the self times of all spans plus ``cli.self_s``
        add up to ``wall_s``; :func:`accounting_error` checks that they do.
        ``trace.overhead_s`` is ``call_cost_s`` per span plus counter time.
        """
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                top_s += end - start
            else:
                child_s[parent] += end - start
        layers = {}
        for (name, _parent, start, end), children in zip(self.spans, child_s):
            row = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - children
        return {"wall_s": wall_s, "cli.self_s": wall_s - top_s,
                "trace.overhead_s": len(self.spans) * call_cost_s + self.counter_s,
                "layers": layers, "counters": dict(self.counters)}


def wrapper_cost_s(calls=20000, batches=5):
    """Seconds a tracing wrapper adds to one call: median over batches."""
    def noop():
        return None

    costs = []
    for _ in range(batches):
        wrapped = Tracer()._wrap(noop, "noop", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)


def accounting_error(summary):
    """Largest violation of the self-time accounting, in seconds.

    Self times must be non-negative, and their sum plus ``cli.self_s`` must
    equal the traced wall time.
    """
    selfs = [row["self_s"] for row in summary["layers"].values()]
    gap = abs(sum(selfs) + summary["cli.self_s"] - summary["wall_s"])
    return max([gap, -summary["cli.self_s"]] + [-s for s in selfs])
