"""Command-line front end.

Commands
--------
psf     generate an encoder PSF and write it as CSV + 16-bit PGM
object  generate a test object and write it as CSV + 16-bit PGM
crb     run one object -> H -> Fisher -> CRB pipeline from a config file
verify  run the Monte Carlo / finite-difference / efficiency oracle suite
study   run the canned Gaussian (fig2) or Poisson (fig3) multiplexing study
        (its PSFs on one forked worker process per CPU, each at one BLAS thread)

Configuration is a flat ``key = value`` text file (``--config``, taken by
every command), each key set at most once; flags override file keys. Each
command reads only its ``COMMAND_KEYS``, and its flags are exactly those
keys: ``--key`` with dashes for underscores, less the command's own prefix
(``psf_kind`` is ``--kind`` on ``psf`` and ``--psf-kind`` on ``crb``). All
randomness flows from one master seed through named substreams.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (out of
memory included) or failed verification check, 4 I/O error.
"""

import argparse
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__, fisher, noise, objects, psf, storage
from .errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    PlacementError,
    SingularRateError,
    TrialFailureError,
)
from .estimators import run_trials
from .forward_model import (GRAM_BLOCK_BYTES, blas_thread_cap, blas_threads,
                            build_system_matrix, forward)
from .oracles import fd_gradient, fd_jacobian, relative_error
from .seeds import substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

SURROGATE_NOTE = ("PSF and object generators are statistical surrogates; only "
                  "orderings and shapes are comparable to hardware encoders")

# minimum sample / trial counts below which statistical checks are skipped.
# At 10 000 samples the Poisson Monte Carlo error over seeds 6-35 had mean
# 0.044 and sd 0.0045, 1.3 sd under MC_FISHER_LIMIT, and two seeds failed;
# at 20 000 its maximum was 0.037 (Gaussian 0.034)
MC_MIN_SAMPLES = 20_000
EFF_MIN_TRIALS = 1_000
# the limit each verify check is held to: relative errors of the Monte Carlo
# Fisher, the FD score and the FD Hessian, and the decoder variance/CRB band
MC_FISHER_LIMIT = 0.05
FD_SCORE_LIMIT = 1e-5
FD_HESSIAN_LIMIT = 1e-4
EFFICIENCY_BAND = (0.9, 1.1)


def median(a) -> np.float64:
    """np.median(a), bit for bit on non-negative data, inf and NaN included
    (a signed zero may come out unsigned): the middle of the sorted values,
    or the mean of the two middle ones; NaN sorts last, so any NaN gives
    NaN. The first np.median on float data in a process imports numpy.ma,
    which would add to the time of every forked study worker."""
    s = np.sort(a, axis=None)
    m = s.size // 2
    if np.isnan(s[-1]):
        return s[-1]
    return s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2


# the statistics of a CRB map that manifests and summary.csv report, each
# computed on the map's grid
SUMMARY_STATS = {"mean": np.mean, "median": median, "max": np.max}
# each canned study: its noise model, and (case-name prefix, object kind)
# for each object, every kind at its default count. The Gaussian bound does
# not depend on the object, so fig2 has one object-free case per PSF.
STUDIES = {
    "fig2": ("gaussian", [("", None)]),
    "fig3": ("poisson", [("dense_", "cells"), ("sparse_", "beads")]),
}
# the seven encoders every study runs, in increasing multiplexing, each as
# config overrides; the other PSF keys keep their DEFAULTS
STUDY_PSFS = {
    **{f"lenslets{n}": {"psf_kind": "lenslets", "psf_n": n} for n in range(1, 6)},
    "rml": {"psf_kind": "rml"},
    "diffuser": {"psf_kind": "diffuser"},
}
# verify's reduced case, as config overrides: a three-lenslet PSF and a
# three-blob object on 8x8 grids; its GLS check runs on one lenslet
VERIFY_CASE = {"psf_kind": "lenslets", "psf_n": 3, "psf_size": 8, "object_kind": "cells",
               "object_n": 3, "object_size": 8, "object_peak": 50.0}
# the noise models whose decoder efficiency verify checks, each with the
# decoder whose variance attains that model's CRB
VERIFY_DECODERS = {"gaussian": "gls"}


def derive_seed(master: int, name: str) -> int:
    return int(substream(master, name).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

DEFAULTS = {
    "seed": 0,
    "noise": "gaussian",
    "sigma2": 1.0,
    "background": 1e-3,
    "epsilon_rel": fisher.EPSILON_REL,
    "n_samples": 200_000,
    "n_trials": 10_000,
    "psf_kind": "lenslets",
    "psf_n": 1,
    "psf_n_spots": 15,
    "psf_width_min": 0.6,
    "psf_width_max": 2.0,
    "psf_corr_length": 3.0,
    "psf_contrast": 2.0,
    "psf_size": 32,
    "psf_pad": None,          # None -> PSF side: full convolution
    "object_kind": "cells",
    "object_n": None,         # blobs or beads; None -> kind default
    "object_peak": 100.0,
    "object_size": 32,
}

# The config keys each command's code can read; any other key is an error.
COMMAND_KEYS = {
    "psf": {"seed", "psf_kind", "psf_n", "psf_n_spots", "psf_width_min", "psf_width_max",
            "psf_corr_length", "psf_contrast", "psf_size"},
    "object": {"seed", "object_kind", "object_n", "object_peak", "object_size"},
    "crb": set(DEFAULTS) - {"n_samples", "n_trials"},
    "verify": {"seed", "sigma2", "background", "n_samples", "n_trials"},
    "study fig2": {"seed", "sigma2", "epsilon_rel", "psf_size", "psf_pad", "object_size"},
    "study fig3": {"seed", "background", "epsilon_rel", "psf_size", "psf_pad",
                   "object_size", "object_peak"},
}


def parse_config_file(path) -> dict:
    cfg, set_on = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {set_on[key]}")
        cfg[key], set_on[key] = value, lineno
    return cfg


def resolve_config(command: str, file_cfg: dict, overrides: dict) -> dict:
    """The DEFAULTS of the command's keys updated by the file, then by the
    flags; each value takes the type of its default (int where the default
    is None), and an int may not be negative."""
    keys = COMMAND_KEYS[command]
    cfg = {key: DEFAULTS[key] for key in keys}
    for source in (file_cfg, overrides):
        for key, value in source.items():
            if value is None:
                continue
            if key not in keys:
                raise ConfigError(f"{command} does not read config key {key!r}")
            kind = int if DEFAULTS[key] is None else type(DEFAULTS[key])
            try:
                cfg[key] = kind(value)
            except ValueError:
                raise ConfigError(f"bad value for {key}: {value!r}")
            if kind is float and not np.isfinite(cfg[key]):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if kind is int and cfg[key] < 0:
                raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    for key, table in NAME_TABLES.items():
        if key in cfg and cfg[key] not in table:
            raise ConfigError(f"unknown {key}: {cfg[key]!r}")
    return cfg


# One name table per family: each feeds its flag's choices, the check in
# resolve_config and the config lookup.
PSF_KINDS = {
    "lenslets": lambda cfg: psf.Lenslets(cfg["psf_n"]),
    "rml": lambda cfg: psf.Rml(cfg["psf_n_spots"],
                               (cfg["psf_width_min"], cfg["psf_width_max"])),
    "diffuser": lambda cfg: psf.Diffuser(cfg["psf_corr_length"], cfg["psf_contrast"]),
    "delta": None,                       # 1x1 unit impulse, not a generated kind
}
# object_n sets the first field (blob or bead count); None keeps the default
OBJECT_KINDS = {"cells": objects.DenseCells, "beads": objects.SparseBeads}
NOISE_MODELS = {
    "gaussian": lambda cfg: noise.GaussianNoise(cfg["sigma2"]),
    "poisson": lambda cfg: noise.PoissonNoise(cfg["background"]),
}
NAME_TABLES = {"psf_kind": PSF_KINDS, "object_kind": OBJECT_KINDS, "noise": NOISE_MODELS}


def make_psf_grid(cfg: dict) -> np.ndarray:
    """PSF grid per the config, seeded by the master seed's "psf" substream;
    the delta kind is a 1x1 unit impulse."""
    make_kind = PSF_KINDS[cfg["psf_kind"]]
    if make_kind is None:
        return np.ones((1, 1))
    size = (cfg["psf_size"], cfg["psf_size"])
    return psf.generate_psf(psf.PsfSpec(make_kind(cfg), size,
                                        derive_seed(cfg["seed"], "psf")))


def make_object_grid(cfg: dict) -> np.ndarray:
    """Object grid per the config, seeded by the master seed's "object"
    substream."""
    kind_cls = OBJECT_KINDS[cfg["object_kind"]]
    kind = kind_cls() if cfg["object_n"] is None else kind_cls(cfg["object_n"])
    size = (cfg["object_size"], cfg["object_size"])
    return objects.generate_object(objects.ObjectSpec(
        kind, size, cfg["object_peak"], derive_seed(cfg["seed"], "object")))


# ---------------------------------------------------------------------------
# Output pieces shared by crb/study
# ---------------------------------------------------------------------------


def write_case(out_dir: Path, cfg: dict, model, H, psf_grid, obj) -> dict:
    """CRB map of one case (noise model, H built from psf_grid, object grid
    obj, or None for a model whose Fisher matrix takes no object); write the
    case directory, crb.csv / crb.pgm / cross_section.csv (the map's central
    row) / psf.csv and, with an object, object.csv, and return its manifest
    entry, with its SUMMARY_STATS and the seconds of its fisher and crb
    stages (fisher.bound's) and of its files stage."""
    cmap = fisher.bound(model, H, None if obj is None else obj.ravel(), cfg["epsilon_rel"])
    t0 = time.perf_counter()
    grid = cmap.grid()
    summary = {stat: float(f(grid)) for stat, f in SUMMARY_STATS.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_grid_csv(out_dir / "crb.csv", grid)
    scale = storage.write_pgm16(out_dir / "crb.pgm", grid)
    storage.write_grid_csv(out_dir / "cross_section.csv", grid[grid.shape[0] // 2])
    storage.write_grid_csv(out_dir / "psf.csv", psf_grid)
    if obj is not None:
        storage.write_grid_csv(out_dir / "object.csv", obj)
    return {"pgm_scale": scale, "epsilon_used": cmap.epsilon_used, "summary": summary,
            "timings": rounded({**cmap.seconds, "files": time.perf_counter() - t0})}


def rounded(timings: dict) -> dict:
    """Seconds as a manifest records them."""
    return {k: round(v, 6) for k, v in timings.items()}


def environment() -> dict:
    """What a run's output bytes and times depend on beyond its config: the
    versions, the BLAS SciPy bundles (every product and factorization of the
    package runs on it), the thread count it runs at (None where it is not
    found; the kernels sum in another order with another thread count, so
    crb.csv bytes change with it) and the usable CPUs."""
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "cpu_count": fisher.cpu_count(),
    }


def write_run_manifest(out_dir: Path, cfg: dict, command: str, seconds: dict,
                       **fields) -> None:
    """Write out_dir/manifest.json, making out_dir if need be: the fields
    every command records, the command's own fields, the checksums of every
    file under out_dir and the seconds as its timings."""
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_manifest(out_dir / "manifest.json", {
        "toolkit_version": __version__,
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "environment": environment(),
        "notes": {"surrogates": SURROGATE_NOTE},
        "psf_surrogate": True,
        **fields,
        "files": storage.checksum_tree(out_dir),
        "timings": rounded(seconds),
    })


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_grid_command(out, name: str, cfg: dict, grid, stat: str, measure) -> int:
    """Write <name>.csv / <name>.pgm and a manifest recording the grid's
    measure as stat."""
    value = measure(grid)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_grid_csv(out_dir / f"{name}.csv", grid)
    scale = storage.write_pgm16(out_dir / f"{name}.pgm", grid)
    write_run_manifest(out_dir, cfg, name, {}, pgm_scale=scale, **{stat: value})
    print(f"wrote {out_dir / (name + '.csv')} ({stat.replace('_', ' ')} {value:.4g})")
    return EXIT_OK


def cmd_psf(args, cfg: dict) -> int:
    """Generate an encoder PSF."""
    return _write_grid_command(args.out, "psf", cfg, make_psf_grid(cfg), "multiplexing_index",
                               psf.multiplexing_index)


def cmd_object(args, cfg: dict) -> int:
    """Generate a test object."""
    return _write_grid_command(args.out, "object", cfg, make_object_grid(cfg), "sparsity",
                               objects.sparsity)


def cmd_crb(args, cfg: dict) -> int:
    """Run one object -> H -> Fisher -> CRB case."""
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    obj = make_object_grid(cfg)
    psf_grid = make_psf_grid(cfg)
    model = NOISE_MODELS[cfg["noise"]](cfg)
    t1 = time.perf_counter()
    cases, pipeline_s = _psf_cases(out_dir, cfg, model, "", psf_grid, [("", obj)])
    info = cases[""]
    # the case's stage timings are part of its pipeline time
    write_run_manifest(out_dir, cfg, "crb",
                       {"generate": t1 - t0, "pipeline": pipeline_s, **info["timings"]},
                       **info, background=model.background)
    print(f"wrote {out_dir / 'crb.csv'} (mean CRB "
          f"{info['summary']['mean']:.6g}, epsilon {info['epsilon_used']:.3g})")
    return EXIT_OK


def _psf_cases(out_dir: Path, cfg: dict, model, psf_name: str, psf_grid,
               study_objects) -> tuple[dict, float]:
    """Every case of one study PSF: build its H once and write one case per
    (case-name prefix, object grid or None) of study_objects; return the
    case entries by case name and the PSF's seconds."""
    t0 = time.perf_counter()
    size = (cfg["object_size"], cfg["object_size"])
    pad = cfg["psf_pad"]
    H = build_system_matrix(psf_grid, size, None if pad is None else (pad, pad))
    cases = {prefix + psf_name: write_case(out_dir / (prefix + psf_name), cfg, model, H,
                                           psf_grid, obj)
             for prefix, obj in study_objects}
    return cases, time.perf_counter() - t0


def cmd_study(args, cfg: dict) -> int:
    """Run a canned multiplexing study."""
    name = args.name
    noise_name, object_kinds = STUDIES[name]
    model = NOISE_MODELS[noise_name](cfg)
    out_dir = Path(args.out) / name
    # every PSF and object is generated before anything is written, so a
    # study that cannot generate them writes nothing
    psf_grids = {psf_name: make_psf_grid({**DEFAULTS, **cfg, **keys})
                 for psf_name, keys in STUDY_PSFS.items()}
    study_objects = [(prefix, None if kind is None else
                      make_object_grid({**DEFAULTS, **cfg, "object_kind": kind}))
                     for prefix, kind in object_kinds]
    # one worker process per usable CPU, at most one per PSF; each case ran
    # at blas_threads (null: not capped)
    workers = min(fisher.cpu_count(), len(STUDY_PSFS))
    cases, timings = {}, {}
    # one job per PSF, so each H is built once. The pool forks inside
    # fisher.in_order, so every case runs at one BLAS thread and its bytes
    # do not depend on the thread count; the first failing PSF's error is
    # raised
    pool = fisher.fork_pool(workers)
    jobs = [partial(_psf_cases, out_dir, cfg, model, psf_name, psf_grid, study_objects)
            for psf_name, psf_grid in psf_grids.items()]
    results = list(fisher.in_order(pool, jobs, len(jobs)))
    for psf_name, (psf_cases, timings[psf_name]) in zip(psf_grids, results):
        cases.update(psf_cases)
    # cases are listed object-major: every dense_* case before any sparse_*
    order = [prefix + psf_name for prefix, _ in study_objects for psf_name in STUDY_PSFS]
    rows = [",".join(["case", *SUMMARY_STATS])]
    for case in order:
        rows.append(",".join([case] + [repr(cases[case]["summary"][stat])
                                       for stat in SUMMARY_STATS]))
    (out_dir / "summary.csv").write_text("\n".join(rows) + "\n")
    write_run_manifest(out_dir, cfg, f"study {name}", timings, background=model.background,
                       case_pool={"workers": workers, "blas_threads": blas_thread_cap()},
                       cases={case: cases[case] for case in order})
    print(f"study {name}: {len(order)} cases -> {out_dir}")
    return EXIT_OK


def _verify_checks(cfg: dict, draws: dict):
    """Yield (check name, status, detail); status in PASS/FAIL/SKIP.

    Every parameter is checked before the first check runs, so a bad one
    fails the command before any result is printed. Each Monte Carlo check
    that runs records how its model drew (model.draw_path) in draws.
    """
    seed = cfg["seed"]
    n_samples = cfg["n_samples"]
    n_trials = cfg["n_trials"]
    models = {label: make(cfg) for label, make in NOISE_MODELS.items()}
    rng = np.random.default_rng(derive_seed(seed, "verify"))

    case = {**DEFAULTS, **cfg, **VERIFY_CASE}
    psf_grid = make_psf_grid(case)
    obj = make_object_grid(case)
    H = build_system_matrix(psf_grid, obj.shape)
    v = obj.ravel()

    # structural invariants of H
    colsums = H.matrix.sum(axis=0)
    ok = np.all(H.matrix >= 0) and np.max(np.abs(colsums - colsums[0])) < 1e-12
    run_mc = ok and n_samples >= MC_MIN_SAMPLES
    # the closed forms the Monte Carlo checks compare with; a zero Poisson
    # rate fails here, before any result is printed
    closed_forms = ({label: fisher.fisher_information(model, H, v)
                     for label, model in models.items()} if run_mc else {})
    yield "system_matrix_invariants", "PASS" if ok else "FAIL", \
        f"min entry {H.matrix.min():.3g}"
    if not ok:
        return

    # Monte Carlo Fisher vs closed forms
    for label, model in models.items():
        if not run_mc:
            yield f"mc_fisher_{label}", "SKIP", "skipped-insufficient-samples"
            continue
        mc = fisher.fisher_monte_carlo(model, H, v, n_samples,
                                       derive_seed(seed, f"mc-{label}"))
        draws[label] = model.draw_path(noise.mean_measurement(model, H, v))
        err = relative_error(mc, closed_forms[label])
        yield f"mc_fisher_{label}", "PASS" if err < MC_FISHER_LIMIT else "FAIL", \
            f"rel Frobenius error {err:.4f} (limit {MC_FISHER_LIMIT:g}, n={n_samples})"

    # finite-difference cross-checks of score and Hessian; each differences
    # the change from v_small, formed per measurement, so the checks keep
    # their digits at any background or variance
    v_small = rng.uniform(0.5, 2.0, size=H.d)
    for label, model in models.items():
        y = noise.sample(model, forward(H, v_small), derive_seed(seed, f"fd-{label}"))
        g = noise.score(model, H, v_small, y)
        g_fd = fd_gradient(lambda x: noise.log_likelihood(model, H, x, y, reference=v_small),
                           v_small)
        err = relative_error(g_fd, g)
        yield f"fd_score_{label}", "PASS" if err < FD_SCORE_LIMIT else "FAIL", \
            f"rel error {err:.3g} (limit {FD_SCORE_LIMIT:g})"
        hess = noise.hessian_log_likelihood(model, H, v_small, y)
        h_fd = fd_jacobian(lambda x: noise.score(model, H, x, y, reference=v_small), v_small)
        err = relative_error(h_fd, hess)
        yield f"fd_hessian_{label}", "PASS" if err < FD_HESSIAN_LIMIT else "FAIL", \
            f"rel error {err:.3g} (limit {FD_HESSIAN_LIMIT:g})"

    # each model's efficient decoder against the model's CRB
    for label, decoder in VERIFY_DECODERS.items():
        if n_trials < EFF_MIN_TRIALS:
            yield f"{decoder}_efficiency", "SKIP", "skipped-insufficient-trials"
            continue
        model = models[label]
        H1 = build_system_matrix(make_psf_grid({**case, "psf_n": 1}), obj.shape)
        report = run_trials(model, H1, v_small, decoder, n_trials, derive_seed(seed, "trials"),
                            crb=fisher.bound(model, H1, v_small))
        med = float(median(report.efficiency))
        lo, hi = EFFICIENCY_BAND
        yield f"{decoder}_efficiency", "PASS" if lo <= med <= hi else "FAIL", \
            f"median variance/CRB {med:.4f} (limits {lo:g}-{hi:g}, n={n_trials})"


def cmd_verify(args, cfg: dict) -> int:
    """Run the oracle suite at reduced size."""
    results, check_s = [], {}
    draws = {}   # each Monte Carlo check's draw path, if it ran
    t0 = t_check = time.perf_counter()
    for name, status, detail in _verify_checks(cfg, draws):
        # a check's time runs from the end of the previous one, so the first
        # check carries the set-up of H and the object
        check_s[name] = time.perf_counter() - t_check
        print(f"{status:4s} {name}: {detail}")
        results.append({"check": name, "status": status, "detail": detail})
        t_check = time.perf_counter()
    elapsed = time.perf_counter() - t0
    failed = [r["check"] for r in results if r["status"] == "FAIL"]
    if args.out:
        # workers ran, each at blas_threads (null: not capped), only if a
        # Monte Carlo check did, and so recorded its draws
        ran_mc = bool(draws)
        monte_carlo = {
            "workers": fisher.monte_carlo_workers(cfg["n_samples"]) if ran_mc else 0,
            "blas_threads": blas_thread_cap() if ran_mc else None,
            "chunk_samples": fisher.MC_CHUNK,
            "block_bytes": GRAM_BLOCK_BYTES,
            "draws": draws,
        }
        write_run_manifest(Path(args.out), cfg, "verify", {"verify": elapsed, **check_s},
                           checks=results, monte_carlo=monte_carlo)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# the help of each key whose flag name does not say what its value is; the
# kinds, the noise model and the grid sides need none
KEY_HELP = {
    "seed": "master seed",
    "sigma2": "Gaussian per-pixel variance",
    "background": "Poisson background floor",
    "epsilon_rel": "relative diagonal loading before inversion",
    "n_samples": f"Monte Carlo Fisher samples (checks skipped below {MC_MIN_SAMPLES})",
    "n_trials": f"GLS efficiency trials (check skipped below {EFF_MIN_TRIALS})",
    "psf_n": "lenslet count",
    "psf_n_spots": "RML spot count",
    "psf_width_min": "narrowest RML spot width",
    "psf_width_max": "widest RML spot width",
    "psf_corr_length": "diffuser correlation length",
    "psf_contrast": "diffuser log-intensity contrast",
    "psf_pad": "padded PSF size (default: PSF size, the full convolution)",
    "object_n": "blob or bead count (default: the kind's)",
    "object_peak": "peak photons",
}
# each command's function; its docstring is the command's help
COMMANDS = {"psf": cmd_psf, "object": cmd_object, "crb": cmd_crb, "verify": cmd_verify,
            "study": cmd_study}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, whose flags are the config keys it reads
    (for study, those of every study): ``--key`` with dashes, less the
    command's own prefix. Values stay strings; resolve_config converts and
    checks them."""
    parser = argparse.ArgumentParser(
        prog="lensless-crb",
        description="Fisher information and Cramér-Rao bounds for lensless "
                    "imaging encoders")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        # verify prints its checks, so it alone may run without writing
        p.add_argument("--out", required=name != "verify", help="output directory")
        p.add_argument("--config", help="key = value config file, overridden by flags")
        for key in sorted(set().union(*(keys for command, keys in COMMAND_KEYS.items()
                                        if command.split()[0] == name))):
            flag = key.removeprefix(f"{name}_").replace("_", "-")
            p.add_argument(f"--{flag}", dest=key, choices=NAME_TABLES.get(key),
                           help=KEY_HELP.get(key))
    sub.choices["study"].add_argument("name", choices=list(STUDIES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the two studies read different keys, so each is its own command
    command = f"{args.command} {args.name}" if "name" in args else args.command
    try:
        # flags whose dest is a config key override the config file
        cfg = resolve_config(command, parse_config_file(args.config) if args.config else {},
                             {k: v for k, v in vars(args).items() if k in DEFAULTS})
        return COMMANDS[args.command](args, cfg)
    except (SingularRateError, FactorizationError, TrialFailureError,
            FloatingPointError, MemoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DimensionError, PlacementError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
