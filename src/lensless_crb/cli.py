"""Command-line front end.

Commands
--------
psf     generate an encoder PSF and write it as CSV + 16-bit PGM
object  generate a test object and write it as CSV + 16-bit PGM
crb     run one object -> H -> Fisher -> CRB pipeline from a config file
verify  run the Monte Carlo / finite-difference / efficiency oracle suite
study   run the canned Gaussian (fig2) or Poisson (fig3) multiplexing study

Configuration is a flat ``key = value`` text file; CLI flags override file
keys. Each command takes only the keys it reads (``COMMAND_KEYS``). All
randomness flows from one master seed through named substreams.

Exit codes: 0 success, 2 configuration error, 3 numeric failure or failed
verification check, 4 I/O error.
"""

import argparse
import os
import platform
import sys
import time
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
from .forward_model import blas_thread_cap, build_system_matrix, forward, vectorize
from .oracles import fd_gradient, fd_jacobian, relative_error
from .seeds import substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

PAD_NOTE = ("PSF zero-padded by 2 pixels per axis before building H, so 32x32 "
            "objects and PSFs give 65x65 measurements; set psf_pad to the PSF "
            "size for plain full convolution")
SURROGATE_NOTE = ("PSF and object generators are statistical surrogates; only "
                  "orderings and shapes are comparable to hardware encoders")

# minimum sample / trial counts below which statistical checks are skipped
MC_MIN_SAMPLES = 10_000
EFF_MIN_TRIALS = 1_000
# the limit each verify check is held to: relative errors of the Monte Carlo
# Fisher, the FD score and the FD Hessian, and the GLS variance/CRB band
MC_FISHER_LIMIT = 0.05
FD_SCORE_LIMIT = 1e-5
FD_HESSIAN_LIMIT = 1e-4
GLS_EFFICIENCY_BAND = (0.9, 1.1)

# the statistics of a CRB map that manifests and summary.csv report
SUMMARY_STATS = ("mean", "median", "max")
# the noise model of each canned study
STUDY_NOISE = {"fig2": "gaussian", "fig3": "poisson"}


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
    "psf_pad": None,          # None -> PSF side + 2
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
    "verify": {"seed", "sigma2", "background", "epsilon_rel", "n_samples", "n_trials"},
    "study fig2": {"seed", "sigma2", "epsilon_rel", "psf_size", "psf_pad", "object_size"},
    "study fig3": {"seed", "background", "epsilon_rel", "psf_size", "psf_pad",
                   "object_size", "object_peak"},
}


def parse_config_file(path) -> dict:
    cfg = {}
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
        cfg[key] = value
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
    for key, table in (("psf_kind", PSF_KINDS), ("object_kind", OBJECT_KINDS),
                       ("noise", NOISE_MODELS)):
        if key in cfg and cfg[key] not in table:
            raise ConfigError(f"unknown {key}: {cfg[key]!r}")
    return cfg


# One name table per family: each feeds argparse choices and config lookup.
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


def make_psf_grid(cfg: dict) -> np.ndarray:
    """PSF grid per the config, seeded by the master seed's "psf" substream;
    the delta kind is a 1x1 unit impulse."""
    make_kind = PSF_KINDS[cfg["psf_kind"]]
    if make_kind is None:
        return np.ones((1, 1))
    size = (cfg["psf_size"], cfg["psf_size"])
    return psf.generate_psf(psf.PsfSpec(make_kind(cfg), size,
                                        derive_seed(cfg["seed"], "psf")))


def pad_shape(cfg: dict, psf_grid) -> tuple[int, int]:
    """Padded PSF shape: psf_pad per axis if set, else the PSF grid's shape
    + 2 per axis."""
    if cfg["psf_pad"] is not None:
        return cfg["psf_pad"], cfg["psf_pad"]
    return psf_grid.shape[0] + 2, psf_grid.shape[1] + 2


def make_object_grid(cfg: dict) -> np.ndarray:
    """Object grid per the config, seeded by the master seed's "object"
    substream."""
    kind_cls = OBJECT_KINDS[cfg["object_kind"]]
    kind = kind_cls() if cfg["object_n"] is None else kind_cls(cfg["object_n"])
    size = (cfg["object_size"], cfg["object_size"])
    return objects.generate_object(objects.ObjectSpec(
        kind, size, cfg["object_peak"], derive_seed(cfg["seed"], "object")))


def background(cfg: dict, noise_name: str):
    """The manifest's background: its value for a Poisson run, else None."""
    return cfg["background"] if noise_name == "poisson" else None


# ---------------------------------------------------------------------------
# Output pieces shared by crb/study
# ---------------------------------------------------------------------------


def write_case(out_dir: Path, cfg: dict, model, H, v) -> dict:
    """CRB map of one case (noise model, H, object v); write crb.csv /
    crb.pgm / cross_section.csv and return its manifest entry, with the
    seconds of its fisher, crb and files stages."""
    t0 = time.perf_counter()
    J = model.fisher(H, v)
    t1 = time.perf_counter()
    cmap = fisher.crb_from_fisher(J, cfg["epsilon_rel"], object_shape=H.obj_shape)
    summary = fisher.crb_summary(cmap)
    t2 = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = cmap.grid()
    storage.write_grid_csv(out_dir / "crb.csv", grid)
    scale = storage.write_pgm16(out_dir / "crb.pgm", grid)
    storage.write_grid_csv(out_dir / "cross_section.csv", summary["cross_section"])
    t3 = time.perf_counter()
    return {"pgm_scale": scale, "epsilon_used": cmap.epsilon_used,
            "summary": {k: summary[k] for k in SUMMARY_STATS},
            "timings": rounded({"fisher": t1 - t0, "crb": t2 - t1, "files": t3 - t2})}


def rounded(timings: dict) -> dict:
    """Seconds as a manifest records them."""
    return {k: round(v, 6) for k, v in timings.items()}


def _blas(package) -> dict:
    info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version")}


def environment() -> dict:
    """What a run's output bytes and times depend on beyond its config: the
    versions, the BLAS each of NumPy and SciPy bundles, the BLAS thread
    setting (None if unset; the kernels sum in another order with another
    thread count, so crb.csv bytes change with it) and the usable CPUs."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": fisher.cpu_count(),
    }


def base_manifest(cfg: dict, command: str) -> dict:
    return {
        "toolkit_version": __version__,
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "environment": environment(),
        "notes": {"surrogates": SURROGATE_NOTE,
                  **({"psf_pad": PAD_NOTE} if "psf_pad" in cfg else {})},
        "psf_surrogate": True,
    }


def finish_manifest(manifest: dict, out_dir: Path, timings: dict) -> None:
    manifest["files"] = storage.checksum_tree(out_dir)
    manifest["timings"] = rounded(timings)
    storage.write_manifest(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_grid_command(out, name: str, cfg: dict, grid, stat: str, value) -> int:
    """Write <name>.csv / <name>.pgm and a manifest recording one statistic."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_grid_csv(out_dir / f"{name}.csv", grid)
    manifest = base_manifest(cfg, name)
    manifest["pgm_scale"] = storage.write_pgm16(out_dir / f"{name}.pgm", grid)
    manifest[stat] = value
    finish_manifest(manifest, out_dir, {})
    print(f"wrote {out_dir / (name + '.csv')} ({stat.replace('_', ' ')} {value:.4g})")
    return EXIT_OK


def cmd_psf(args, cfg: dict) -> int:
    grid = make_psf_grid(cfg)
    return _write_grid_command(args.out, "psf", cfg, grid, "multiplexing_index",
                               psf.multiplexing_index(grid))


def cmd_object(args, cfg: dict) -> int:
    grid = make_object_grid(cfg)
    return _write_grid_command(args.out, "object", cfg, grid, "sparsity",
                               objects.sparsity(grid))


def cmd_crb(args, cfg: dict) -> int:
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    obj = make_object_grid(cfg)
    psf_grid = make_psf_grid(cfg)
    model = NOISE_MODELS[cfg["noise"]](cfg)
    t1 = time.perf_counter()
    H = build_system_matrix(psf_grid, obj.shape, pad_shape(cfg, psf_grid))
    info = write_case(out_dir, cfg, model, H, vectorize(obj))
    t2 = time.perf_counter()
    manifest = base_manifest(cfg, "crb")
    manifest.update(info)
    manifest["background"] = background(cfg, cfg["noise"])
    # the case's stage timings are part of its pipeline time
    finish_manifest(manifest, out_dir,
                    {"generate": t1 - t0, "pipeline": t2 - t1, **info["timings"]})
    print(f"wrote {out_dir / 'crb.csv'} (mean CRB "
          f"{info['summary']['mean']:.6g}, epsilon {info['epsilon_used']:.3g})")
    return EXIT_OK


def _study_objects(cfg: dict, noise_name: str):
    """(case-name prefix, object grid or None) for each object of a study.

    The Gaussian bound does not depend on the object, so a Gaussian study
    has one object-free case per PSF. The others take each object kind at
    its default count.
    """
    if noise_name == "gaussian":
        return [("", None)]
    return [(prefix, make_object_grid({**cfg, "object_kind": kind, "object_n": None}))
            for prefix, kind in (("dense_", "cells"), ("sparse_", "beads"))]


def cmd_study(args, cfg: dict) -> int:
    name = args.name
    noise_name = STUDY_NOISE[name]
    model = NOISE_MODELS[noise_name](cfg)
    out_dir = Path(args.out) / name
    manifest = base_manifest(cfg, f"study {name}")
    manifest["background"] = background(cfg, noise_name)
    size = (cfg["object_size"], cfg["object_size"])
    specs = psf.default_study_specs(size=(cfg["psf_size"], cfg["psf_size"]),
                                    seed=derive_seed(cfg["seed"], "psf"))
    # every PSF and object is generated, and the first H built, before
    # anything is written, so a study that cannot run writes nothing
    psf_grids = {psf_name: psf.generate_psf(spec) for psf_name, spec in specs.items()}
    study_objects = _study_objects(cfg, noise_name)
    cases, timings = {}, {}
    # PSF-major, so each H is built once; timings are per PSF
    for psf_name, psf_grid in psf_grids.items():
        t0 = time.perf_counter()
        H = build_system_matrix(psf_grid, size, pad_shape(cfg, psf_grid))
        for prefix, obj in study_objects:
            case_dir = out_dir / (prefix + psf_name)
            # the Gaussian Fisher matrix takes no object
            v = None if obj is None else vectorize(obj)
            cases[prefix + psf_name] = write_case(case_dir, cfg, model, H, v)
            storage.write_grid_csv(case_dir / "psf.csv", psf_grid)
            if obj is not None:
                storage.write_grid_csv(case_dir / "object.csv", obj)
        timings[psf_name] = time.perf_counter() - t0
    # cases are listed object-major: every dense_* case before any sparse_*
    order = [prefix + psf_name for prefix, _ in study_objects for psf_name in specs]
    manifest["cases"] = {case: cases[case] for case in order}
    rows = [",".join(("case",) + SUMMARY_STATS)]
    for case in order:
        rows.append(",".join([case] + [repr(cases[case]["summary"][stat])
                                       for stat in SUMMARY_STATS]))
    (out_dir / "summary.csv").write_text("\n".join(rows) + "\n")
    finish_manifest(manifest, out_dir, timings)
    print(f"study {name}: {len(manifest['cases'])} cases -> {out_dir}")
    return EXIT_OK


def _verify_checks(cfg: dict):
    """Yield (check name, status, detail); status in PASS/FAIL/SKIP.

    Every parameter is checked before the first check runs, so a bad one
    fails the command before any result is printed.
    """
    seed = cfg["seed"]
    n_samples = cfg["n_samples"]
    n_trials = cfg["n_trials"]
    gauss = noise.GaussianNoise(cfg["sigma2"])
    models = (("gaussian", gauss), ("poisson", noise.PoissonNoise(cfg["background"])))
    fisher.check_parameter("epsilon_rel", cfg["epsilon_rel"], allow_zero=True)
    rng = np.random.default_rng(derive_seed(seed, "verify"))

    spec = psf.PsfSpec(psf.Lenslets(3), (8, 8), derive_seed(seed, "psf"))
    psf_grid = psf.generate_psf(spec)
    obj = objects.generate_object(objects.ObjectSpec(
        objects.DenseCells(n_blobs=3), (8, 8), 50.0, derive_seed(seed, "object")))
    H = build_system_matrix(psf_grid, obj.shape, (10, 10))
    v = vectorize(obj)

    # structural invariants of H
    colsums = H.matrix.sum(axis=0)
    ok = np.all(H.matrix >= 0) and np.max(np.abs(colsums - colsums[0])) < 1e-12
    yield "system_matrix_invariants", "PASS" if ok else "FAIL", \
        f"min entry {H.matrix.min():.3g}"
    if not ok:
        return

    # Monte Carlo Fisher vs closed forms
    if n_samples < MC_MIN_SAMPLES:
        yield "mc_fisher_gaussian", "SKIP", "skipped-insufficient-samples"
        yield "mc_fisher_poisson", "SKIP", "skipped-insufficient-samples"
    else:
        for label, model in models:
            mc = fisher.fisher_monte_carlo(model, H, v, n_samples,
                                           derive_seed(seed, f"mc-{label}"))
            err = relative_error(mc, model.fisher(H, v))
            yield f"mc_fisher_{label}", "PASS" if err < MC_FISHER_LIMIT else "FAIL", \
                f"rel Frobenius error {err:.4f} (limit {MC_FISHER_LIMIT:g}, n={n_samples})"

    # finite-difference cross-checks of score and Hessian
    v_small = rng.uniform(0.5, 2.0, size=H.d)
    for label, model in models:
        y = noise.sample(model, forward(H, v_small), derive_seed(seed, f"fd-{label}"))
        g = noise.score(model, H, v_small, y)
        g_fd = fd_gradient(lambda x: noise.log_likelihood(model, H, x, y), v_small)
        err = relative_error(g_fd, g)
        yield f"fd_score_{label}", "PASS" if err < FD_SCORE_LIMIT else "FAIL", \
            f"rel error {err:.3g} (limit {FD_SCORE_LIMIT:g})"
        hess = noise.hessian_log_likelihood(model, H, v_small, y)
        h_fd = fd_jacobian(lambda x: noise.score(model, H, x, y), v_small)
        err = relative_error(h_fd, hess)
        yield f"fd_hessian_{label}", "PASS" if err < FD_HESSIAN_LIMIT else "FAIL", \
            f"rel error {err:.3g} (limit {FD_HESSIAN_LIMIT:g})"

    # GLS efficiency against the Gaussian CRB
    if n_trials < EFF_MIN_TRIALS:
        yield "gls_efficiency", "SKIP", "skipped-insufficient-trials"
    else:
        spec1 = psf.PsfSpec(psf.Lenslets(1), (8, 8), derive_seed(seed, "psf"))
        H1 = build_system_matrix(psf.generate_psf(spec1), (8, 8), (10, 10))
        cmap = fisher.crb_from_fisher(gauss.fisher(H1, None), cfg["epsilon_rel"],
                                      object_shape=H1.obj_shape)
        report = run_trials(gauss, H1, v_small, "gls", n_trials,
                            derive_seed(seed, "trials"), crb=cmap)
        med = float(np.median(report.efficiency))
        lo, hi = GLS_EFFICIENCY_BAND
        yield "gls_efficiency", "PASS" if lo <= med <= hi else "FAIL", \
            f"median variance/CRB {med:.4f} (limits {lo:g}-{hi:g}, n={n_trials})"


def cmd_verify(args, cfg: dict) -> int:
    out_dir = Path(args.out) if args.out else None
    results, check_s = [], {}
    t0 = t_check = time.perf_counter()
    for name, status, detail in _verify_checks(cfg):
        # a check's time runs from the end of the previous one, so the first
        # check carries the set-up of H and the object
        check_s[name] = time.perf_counter() - t_check
        print(f"{status:4s} {name}: {detail}")
        results.append({"check": name, "status": status, "detail": detail})
        t_check = time.perf_counter()
    elapsed = time.perf_counter() - t0
    failed = [r["check"] for r in results if r["status"] == "FAIL"]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = base_manifest(cfg, "verify")
        manifest["checks"] = results
        # workers ran, each at blas_threads (null: not capped), only if a
        # Monte Carlo check did
        ran_mc = any(r["check"].startswith("mc_fisher_") and r["status"] != "SKIP"
                     for r in results)
        manifest["monte_carlo"] = {
            "workers": fisher.monte_carlo_workers(cfg["n_samples"]) if ran_mc else 0,
            "blas_threads": blas_thread_cap() if ran_mc else None,
            "chunk_samples": fisher.MC_CHUNK,
            "block_bytes": fisher.MC_BLOCK_BYTES,
        }
        finish_manifest(manifest, out_dir, {"verify": elapsed, **check_s})
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_pipeline_flags(p):
    """Flags of the commands that compute bounds (crb, verify, study)."""
    p.add_argument("--config")
    p.add_argument("--sigma2", type=float, help="Gaussian per-pixel variance")
    p.add_argument("--background", type=float, help="Poisson background floor")
    p.add_argument("--epsilon-rel", dest="epsilon_rel", type=float,
                   help="relative diagonal loading before inversion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lensless-crb",
        description="Fisher information and Cramér-Rao bounds for lensless "
                    "imaging encoders")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psf", help="generate an encoder PSF")
    p.add_argument("--kind", dest="psf_kind", choices=list(PSF_KINDS))
    p.add_argument("--n", dest="psf_n", type=int, help="lenslet count")
    p.add_argument("--size", dest="psf_size", type=int, help="grid side length")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_psf)

    p = sub.add_parser("object", help="generate a test object")
    p.add_argument("--kind", dest="object_kind", choices=list(OBJECT_KINDS))
    p.add_argument("--n", dest="object_n", type=int, help="blob or bead count")
    p.add_argument("--size", dest="object_size", type=int)
    p.add_argument("--peak", dest="object_peak", type=float, help="peak photons")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_object)

    p = sub.add_parser("crb", help="run one CRB pipeline from a config")
    p.add_argument("--noise", choices=list(NOISE_MODELS))
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("verify", help="run the oracle suite at reduced size")
    p.add_argument("--out")
    p.add_argument("--n-trials", dest="n_trials", type=int)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("study", help="run a canned multiplexing study")
    p.add_argument("name", choices=list(STUDY_NOISE))
    p.add_argument("--out", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_study)

    for name in ("crb", "study"):
        sub.choices[name].add_argument("--psf-pad", dest="psf_pad", type=int,
                                       help="padded PSF size (default: PSF size + 2)")
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, help="master seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the two studies read different keys, so each is its own command
    command = f"{args.command} {args.name}" if "name" in args else args.command
    try:
        # flags whose dest is a config key override the config file
        config = getattr(args, "config", None)
        cfg = resolve_config(command, parse_config_file(config) if config else {},
                             {k: v for k, v in vars(args).items() if k in DEFAULTS})
        return args.func(args, cfg)
    except (SingularRateError, FactorizationError, TrialFailureError,
            FloatingPointError) as exc:
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
