"""The four benchmark workloads: what one repetition runs, and its output checks.

``run_*`` functions execute inside a fresh worker process and return a
JSON-serialisable record. ``check_*`` functions execute in the benchmark
process, outside every timed region, and return the number of failed units
and a list of problems. They use NumPy and the files the workload wrote, not
the library, so a defect in the library cannot hide itself.

Why each workload is here:

* ``fig2_gaussian``: ``study fig2`` at 32x32 (k=4225, d=1024; H is 35 MB,
  beyond L2). Fisher weights are constant; building H, the Gram product and
  the CRB inverse do almost all the work.
* ``fig3_poisson``: ``study fig3`` at 32x32, 14 cases. Same layers, but the
  Fisher weights depend on the object, and H is built twice per PSF. A
  Gaussian-only fast path must show no change here.
* ``oracles_verify``: ``verify`` with its defaults (8x8, 200 000 Monte Carlo
  samples, 10 000 GLS trials). Monte Carlo Fisher dominates; it is the only
  workload whose peak memory follows the Monte Carlo chunk size.
* ``decoders_trials``: ``run_trials`` through the public API at 8x8 with a
  3-lenslet PSF: Richardson-Lucy MLE on sparse beads and projected-gradient
  NNLS on dense cells. The only workload where the iterative decoders work.
"""

import hashlib
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from typing import Callable

import numpy as np

PSF_NAMES = [f"lenslets{n}" for n in range(1, 6)] + ["rml", "diffuser"]
STUDY_CASES = {
    "fig2": PSF_NAMES,
    "fig3": [f"{obj}_{p}" for obj in ("dense", "sparse") for p in PSF_NAMES],
}
# the case recomputed by brute force: the most multiplexed, worst-conditioned J
RECOMPUTED_CASE = {"fig2": "diffuser", "fig3": "dense_diffuser"}
# CRB agreement with the brute-force recomputation, as the CRB tests require
CRB_RTOL = 1e-6
VERIFY_CHECKS = {
    "system_matrix_invariants", "mc_fisher_gaussian", "mc_fisher_poisson",
    "fd_score_gaussian", "fd_hessian_gaussian", "fd_score_poisson",
    "fd_hessian_poisson", "gls_efficiency",
}

# Decoder trials. The bead instance (PSF seed 0, object seed 5, beta 1e-7,
# RL options) is the one tests/test_estimators.py::test_sparse_beads_efficiency
# uses: bead positions change the MLE's efficiency, and on this instance it
# sits near 0.93, inside the test's 0.75-1.25 band. The master seed drives the
# noise draws and the dense-cells object.
BEAD_PSF_SEED = 0
BEAD_OBJECT_SEED = 5
BEAD_BACKGROUND = 1e-7
MLE_OPTIONS = {"max_iters": 2000, "tol": 1e-13}
# Trials per repetition. Small repetitions give the median of a run more
# samples; the efficiency check pools all repetitions of a run. Its estimate
# from n trials has relative spread about sqrt(2/n), and 1000 pooled trials
# put 0.75 more than four standard deviations below the ~0.93 it measures.
MLE_TRIALS = 100
NNLS_TRIALS = 40
MLE_MIN_TRIALS = 1000
EFFICIENCY_BAND = (0.75, 1.25)


@dataclass(frozen=True)
class Workload:
    unit: str                    # what one unit of work is
    min_reps: int
    run: Callable                # (seed, rep, out_dir) -> record, in the worker
    check: Callable              # (records) -> (failed units, problems)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _cli(argv):
    from lensless_crb import cli

    out = StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue().splitlines()


def run_study(name):
    def run(seed, rep, out_dir):
        rc, _ = _cli(["study", name, "--seed", str(seed), "--out", str(out_dir)])
        return {"rc": rc, "dir": str(Path(out_dir) / name),
                "units": len(STUDY_CASES[name])}
    return run


def run_verify(seed, rep, out_dir):
    rc, lines = _cli(["verify", "--seed", str(seed)])
    return {"rc": rc, "lines": lines, "units": len(lines)}


def _moments(report):
    return {"n": report.n_trials, "n_failed": report.n_failed,
            "mean": report.per_pixel_mean.tolist(),
            "variance": report.per_pixel_variance.tolist()}


def run_decoders(seed, rep, out_dir):
    from lensless_crb import estimators, fisher, forward_model, objects, psf
    from lensless_crb.cli import derive_seed
    from lensless_crb.noise import GaussianNoise, PoissonNoise

    grid = psf.generate_psf(psf.PsfSpec(psf.Lenslets(3), (8, 8), BEAD_PSF_SEED))
    H = forward_model.build_system_matrix(grid, (8, 8), (10, 10))
    beads = forward_model.vectorize(objects.generate_object(
        objects.ObjectSpec(objects.SparseBeads(2), (8, 8), 100.0, BEAD_OBJECT_SEED)))
    crb = fisher.crb_from_fisher(
        fisher.fisher_poisson(H, beads.values, BEAD_BACKGROUND), object_shape=(8, 8))
    mle = estimators.run_trials(
        PoissonNoise(BEAD_BACKGROUND), H, beads, "mle", MLE_TRIALS,
        derive_seed(seed, "mle") + rep * MLE_TRIALS, crb=crb,
        estimator_options=MLE_OPTIONS)
    cells = forward_model.vectorize(objects.generate_object(
        objects.ObjectSpec(objects.DenseCells(n_blobs=3), (8, 8), 50.0,
                           derive_seed(seed, "cells"))))
    nnls = estimators.run_trials(
        GaussianNoise(1.0), H, cells, "nnls", NNLS_TRIALS,
        derive_seed(seed, "nnls") + rep * NNLS_TRIALS)
    return {"units": MLE_TRIALS + NNLS_TRIALS, "mle": _moments(mle),
            "nnls": _moments(nnls), "crb": crb.values.tolist(),
            "beads": np.flatnonzero(beads.values > 0).tolist()}


# ---------------------------------------------------------------------------
# Benchmark side: output checks
# ---------------------------------------------------------------------------


def _checksums(root):
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _read_csv_grid(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _summary_means(study_dir):
    lines = (study_dir / "summary.csv").read_text().splitlines()
    return {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}


def _orderings_hold(name, means):
    """The paper's qualitative results.

    fig2: the Gaussian mean CRB never falls as lenslets are added, and the
    diffuser is worst. fig3: moderate multiplexing (1 -> 5 lenslets) costs
    the dense object more than the sparse one. The rml and diffuser ratios
    are left out of fig3: with the default loading they swing by orders of
    magnitude from seed to seed.
    """
    if name == "fig2":
        lens = [means[f"lenslets{n}"] for n in range(1, 6)]
        return (all(a <= b for a, b in zip(lens, lens[1:]))
                and means["diffuser"] >= means["lenslets5"])
    dense = means["dense_lenslets5"] / means["dense_lenslets1"]
    sparse = means["sparse_lenslets5"] / means["sparse_lenslets1"]
    return dense > sparse


def brute_force_crb(psf_grid, pad_shape, obj_shape, weights, epsilon_rel):
    """diag((J + eps I)^-1) from an index-built H and a dense LU inverse.

    ``weights`` maps the noiseless image H v (None for Gaussian) to the
    per-measurement Fisher weights.
    """
    ph, pw = pad_shape
    h, w = psf_grid.shape
    padded = np.zeros(pad_shape)
    top, left = (ph - h) // 2, (pw - w) // 2
    padded[top:top + h, left:left + w] = psf_grid
    oh, ow = obj_shape
    out_w = ow + pw - 1
    r, c, i, j = np.meshgrid(np.arange(oh), np.arange(ow), np.arange(ph),
                             np.arange(pw), indexing="ij")
    H = np.zeros(((oh + ph - 1) * out_w, oh * ow))
    H[((r + i) * out_w + c + j).ravel(), (r * ow + c).ravel()] = \
        np.broadcast_to(padded, r.shape).ravel()
    J = H.T @ (weights(H)[:, None] * H)
    J[np.diag_indices_from(J)] += epsilon_rel * np.max(np.diag(J))
    return np.diag(np.linalg.inv(J))


def _recompute_case(name, study_dir, manifest):
    cfg = manifest["config"]
    case_dir = study_dir / RECOMPUTED_CASE[name]
    psf_grid = _read_csv_grid(case_dir / "psf.csv")
    pad = cfg["psf_pad"] if cfg["psf_pad"] is not None else cfg["psf_size"] + 2
    size = (cfg["object_size"], cfg["object_size"])
    if name == "fig2":
        def weights(H):
            return np.full(H.shape[0], 1.0 / cfg["sigma2"])
    else:
        v = _read_csv_grid(case_dir / "object.csv").ravel()

        def weights(H):
            return 1.0 / (H @ v + manifest["background"])
    expected = brute_force_crb(psf_grid, (pad, pad), size, weights,
                               cfg["epsilon_rel"])
    got = _read_csv_grid(case_dir / "crb.csv").ravel()
    return float(np.max(np.abs(got - expected) / np.abs(expected)))


def _study_rep_problems(name, study_dir, reference_sums):
    """Cases spoiled in one study run, problems found, and its checksums.

    With no reference checksums yet, one case is recomputed by brute force;
    otherwise the outputs must be bit-identical to the reference.
    """
    required = ["crb.csv", "crb.pgm", "cross_section.csv", "psf.csv"]
    if name == "fig3":
        required.append("object.csv")
    cases = set(STUDY_CASES[name])
    bad, problems = set(), []
    manifest = json.loads((study_dir / "manifest.json").read_text())
    sums = _checksums(study_dir)
    bad |= {c for c in cases if not all((study_dir / c / f).is_file() for f in required)}
    wrong = {f for f in set(sums) | set(manifest["files"])
             if sums.get(f) != manifest["files"].get(f)}
    owners = {f.split("/")[0] for f in wrong}
    bad |= cases if owners - cases else owners     # summary.csv or a stray file
    if wrong:
        problems.append(f"manifest checksums differ: {sorted(wrong)[:3]}")
    means = _summary_means(study_dir)
    if set(means) != cases or not _orderings_hold(name, means):
        problems.append("summary cases or orderings wrong")
        bad |= cases
    if reference_sums is None:
        err = _recompute_case(name, study_dir, manifest)
        if not err <= CRB_RTOL:
            problems.append(f"{RECOMPUTED_CASE[name]} CRB off brute force by "
                            f"{err:.3g} (rtol {CRB_RTOL})")
            bad |= cases
    elif sums != reference_sums:
        problems.append("outputs differ from the first run at the same seed")
        bad |= cases
    return bad, problems, sums


def check_study(name):
    n_cases = len(STUDY_CASES[name])

    def check(records):
        failed, problems, reference = 0, [], {}
        for rep, rec in enumerate(records):
            if rec["rc"] != 0:
                problems.append(f"rep {rep}: exit code {rec['rc']}")
                failed += n_cases
                continue
            try:
                # outputs are bit-identical only at one BLAS thread count
                bad, found, sums = _study_rep_problems(
                    name, Path(rec["dir"]), reference.get(rec["threads"]))
            except (OSError, ValueError, KeyError) as exc:
                bad, found, sums = range(n_cases), [f"unreadable output: {exc!r}"], None
            reference.setdefault(rec["threads"], sums)
            failed += len(bad)
            problems += [f"rep {rep}: {p}" for p in found]
        return failed, problems
    return check


def check_verify(records):
    failed, problems = 0, []
    for rep, rec in enumerate(records):
        status = {}
        for line in rec["lines"]:
            word, _, rest = line.partition(" ")
            status[rest.strip().split(":")[0]] = word
        missing = VERIFY_CHECKS - set(status)
        not_passed = sorted(n for n, s in status.items() if s != "PASS")
        if rec["rc"] != 0 or missing or not_passed:
            problems.append(f"rep {rep}: exit code {rec['rc']}, missing "
                            f"{sorted(missing)}, not PASS {not_passed}")
        bad = len(missing) + len(not_passed)
        failed += max(bad, rec["units"]) if rec["rc"] != 0 else bad
    return failed, problems


def _merge(parts):
    """Pool per-pixel (n, mean, variance) from independent trial batches."""
    n = sum(p["n"] for p in parts)
    mean = sum(p["n"] * np.array(p["mean"]) for p in parts) / n
    m2 = sum((p["n"] - 1) * np.array(p["variance"])
             + p["n"] * (np.array(p["mean"]) - mean) ** 2 for p in parts)
    return n, m2 / (n - 1)


def check_decoders(records):
    failed, problems = 0, []
    for rep, rec in enumerate(records):
        nnls = rec["nnls"]
        failed += rec["mle"]["n_failed"] + nnls["n_failed"]
        if not (np.all(np.isfinite(nnls["mean"])) and np.all(np.isfinite(nnls["variance"]))):
            problems.append(f"rep {rep}: non-finite NNLS estimates")
            failed += NNLS_TRIALS
    n, variance = _merge([rec["mle"] for rec in records])
    beads = records[0]["beads"]
    efficiency = variance[beads] / np.array(records[0]["crb"])[beads]
    lo, hi = EFFICIENCY_BAND
    if n < MLE_MIN_TRIALS or not np.all((efficiency >= lo) & (efficiency <= hi)):
        problems.append(f"MLE bead efficiency {np.round(efficiency, 3).tolist()} "
                        f"over {n} trials, band {EFFICIENCY_BAND}")
        failed += MLE_TRIALS * len(records)
    return failed, problems


WORKLOADS = {
    "fig2_gaussian": Workload(
        "CRB map", 3, run_study("fig2"), check_study("fig2")),
    "fig3_poisson": Workload(
        "CRB map", 3, run_study("fig3"), check_study("fig3")),
    # five repetitions: with three, the median of a run spread 0.14-0.17
    # across ten seeds on a 2-vCPU VM
    "oracles_verify": Workload(
        "verify check", 5, run_verify, check_verify),
    "decoders_trials": Workload(
        "estimator trial", -(-MLE_MIN_TRIALS // MLE_TRIALS), run_decoders, check_decoders),
}
