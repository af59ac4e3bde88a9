"""Per-layer metrics of the traced run, each tagged with what it should move.

Every row names the end-to-end metric the layer should move, the workloads
where it should move it, and the workloads where the prediction is no change.
``.s`` is busy (inclusive) seconds of one workload run, ``.calls`` a call
count. Byte and flop counts are computed from array shapes (dense kernels),
not measured. ``unconverged_frac`` is the share of estimator calls that
stopped at their iteration cap (0 where the estimator is not called). ``seeds`` costs microseconds and gets no row.
"""

FIG2, FIG3 = "fig2_gaussian", "fig3_poisson"
VERIFY, DECODERS = "oracles_verify", "decoders_trials"
STUDIES = f"{FIG2}, {FIG3}"
ALL = f"{FIG2}, {FIG3}, {VERIFY}, {DECODERS}"

# name, unit, better, moves, on, predicted no change on
LAYER_METRICS = [
    ("forward_model.build_system_matrix.s", "s", "lower", "wall_s", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("forward_model.build_system_matrix.calls", "count", "lower", "wall_s", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("forward_model.h_bytes", "B", "lower", "wall_s, peak_rss_mb", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("fisher.fisher_gaussian.s", "s", "lower", "wall_s", FIG2, FIG3),
    ("fisher.gram_flops", "flop", "lower", "wall_s", STUDIES, DECODERS),
    ("fisher.fisher_poisson.s", "s", "lower", "wall_s", FIG3, FIG2),
    ("fisher.crb_from_fisher.s", "s", "lower", "wall_s", STUDIES, DECODERS),
    ("fisher.cho_factor.s", "s", "lower", "wall_s", STUDIES, DECODERS),
    ("fisher.cho_solve.s", "s", "lower", "wall_s", STUDIES, DECODERS),
    ("fisher.crb_flops", "flop", "lower", "wall_s", STUDIES, DECODERS),
    ("fisher.fisher_monte_carlo.s", "s", "lower", "wall_s, peak_rss_mb", VERIFY, STUDIES),
    ("noise.sample.s", "s", "lower", "wall_s", f"{VERIFY}, {DECODERS}", STUDIES),
    ("noise.sample.calls", "count", "lower", "wall_s", f"{VERIFY}, {DECODERS}", STUDIES),
    ("estimators.poisson_mle.s", "s", "lower", "wall_s", DECODERS, f"{STUDIES}, {VERIFY}"),
    ("estimators.poisson_mle.iters", "count", "lower", "wall_s", DECODERS, f"{STUDIES}, {VERIFY}"),
    ("estimators.poisson_mle.unconverged_frac", "frac", "lower", "wall_s", DECODERS, f"{STUDIES}, {VERIFY}"),
    ("estimators.nnls_estimate.s", "s", "lower", "wall_s", DECODERS, f"{STUDIES}, {VERIFY}"),
    ("estimators.nnls_estimate.iters", "count", "lower", "wall_s", DECODERS, f"{STUDIES}, {VERIFY}"),
    ("estimators.nnls_estimate.unconverged_frac", "frac", "lower", "wall_s", DECODERS, f"{STUDIES}, {VERIFY}"),
    ("estimators.run_trials.s", "s", "lower", "wall_s", f"{VERIFY}, {DECODERS}", STUDIES),
    ("estimators.make_gls_solver.s", "s", "lower", "wall_s", VERIFY, STUDIES),
    ("storage.write_grid_csv.s", "s", "lower", "wall_s", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("storage.write_pgm16.s", "s", "lower", "wall_s", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("storage.checksum_tree.s", "s", "lower", "wall_s", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("storage.bytes_written", "B", "lower", "wall_s", STUDIES, f"{VERIFY}, {DECODERS}"),
    ("psf.generate_psf.s", "s", "lower", "wall_s", STUDIES, "-"),
    ("psf.generate_psf.calls", "count", "lower", "wall_s", STUDIES, "-"),
    ("objects.generate_object.s", "s", "lower", "wall_s", STUDIES, "-"),
    ("objects.generate_object.calls", "count", "lower", "wall_s", STUDIES, "-"),
    ("oracles.fd_gradient.s", "s", "lower", "wall_s", VERIFY, STUDIES),
    ("oracles.fd_jacobian.s", "s", "lower", "wall_s", VERIFY, STUDIES),
    ("cli.self_s", "s", "lower", "wall_s", ALL, "-"),
    # run-level rows, computed by run.py
    ("trace.wall_s", "s", "lower", "wall_s", ALL, "-"),
    ("trace.overhead_s", "s", "lower", "- (wrapper cost x spans + counter time)", ALL, "-"),
    ("serial.wall_s", "s", "lower", "wall_s (1 BLAS thread)", ALL, "-"),
]
RUN_LEVEL = {"trace.wall_s", "serial.wall_s"}


def layer_value(name, summary):
    """Value of one per-span metric from a worker's trace summary (0 if idle)."""
    if name in ("cli.self_s", "trace.overhead_s"):
        return summary[name]
    base, _, field = name.rpartition(".")
    row = summary["layers"].get(base, {"calls": 0, "s": 0.0})
    if field in ("s", "calls"):
        return row[field]
    if field == "unconverged_frac":
        converged = summary["counters"].get(f"{base}.converged", 0)
        return 1 - converged / row["calls"] if row["calls"] else 0.0
    return summary["counters"].get(name, 0)
