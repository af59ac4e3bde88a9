"""Command-line front end.

Commands
--------
psf     generate an encoder PSF and write it as CSV + 16-bit PGM
object  generate a test object and write it as CSV + 16-bit PGM
crb     run one object -> H -> Fisher -> CRB pipeline from a config file
verify  run the Monte Carlo / finite-difference / efficiency oracle suite
study   run the canned Gaussian (fig2) or Poisson (fig3) multiplexing study

Configuration is a flat ``key = value`` text file; CLI flags override file
keys. All randomness flows from one master seed through named substreams.

Exit codes: 0 success, 2 configuration error, 3 numeric failure or failed
verification check, 4 I/O error.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, fisher, noise, objects, psf, storage
from .errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    PlacementError,
    SingularRateError,
)
from .estimators import run_trials
from .forward_model import build_system_matrix, forward, vectorize
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
    "epsilon_rel": 1e-9,
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
    "psf_pad": None,          # None -> psf_size + 2 (delta kind: 1)
    "object_kind": "cells",
    "object_n": None,         # blobs or beads; None -> kind default
    "object_peak": 100.0,
    "object_size": 32,
}

_INT_KEYS = {"seed", "n_samples", "n_trials", "psf_n", "psf_n_spots",
             "psf_size", "psf_pad", "object_n", "object_size"}
_FLOAT_KEYS = {"sigma2", "background", "epsilon_rel", "psf_width_min",
               "psf_width_max", "psf_corr_length", "psf_contrast",
               "object_peak"}


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


def resolve_config(file_cfg: dict, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    for source in (file_cfg, overrides):
        for key, value in source.items():
            if value is None:
                continue
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key: {key}")
            try:
                if key in _INT_KEYS:
                    cfg[key] = int(value)
                elif key in _FLOAT_KEYS:
                    cfg[key] = float(value)
                else:
                    cfg[key] = str(value)
            except ValueError:
                raise ConfigError(f"bad value for {key}: {value!r}")
    return cfg


def psf_spec_from_config(cfg: dict, seed: int) -> psf.PsfSpec | None:
    size = (cfg["psf_size"], cfg["psf_size"])
    kind_name = cfg["psf_kind"]
    if kind_name == "delta":
        return None                      # 1x1 unit impulse, handled by caller
    if kind_name == "lenslets":
        kind = psf.Lenslets(cfg["psf_n"])
    elif kind_name == "rml":
        kind = psf.Rml(cfg["psf_n_spots"], (cfg["psf_width_min"], cfg["psf_width_max"]))
    elif kind_name == "diffuser":
        kind = psf.Diffuser(cfg["psf_corr_length"], cfg["psf_contrast"])
    else:
        raise ConfigError(f"unknown psf_kind: {kind_name!r}")
    return psf.PsfSpec(kind, size, seed)


def object_spec_from_config(cfg: dict, seed: int) -> objects.ObjectSpec:
    size = (cfg["object_size"], cfg["object_size"])
    kind_name = cfg["object_kind"]
    if kind_name == "cells":
        n = cfg["object_n"] if cfg["object_n"] is not None else 6
        kind = objects.DenseCells(n_blobs=n)
    elif kind_name == "beads":
        n = cfg["object_n"] if cfg["object_n"] is not None else 10
        kind = objects.SparseBeads(n_beads=n)
    else:
        raise ConfigError(f"unknown object_kind: {kind_name!r}")
    return objects.ObjectSpec(kind, size, cfg["object_peak"], seed)


def make_psf_grid(cfg: dict, seed: int):
    """PSF grid and its pad shape per the config."""
    spec = psf_spec_from_config(cfg, seed)
    if spec is None:
        grid = np.ones((1, 1))
        pad = 1
    else:
        grid = psf.generate_psf(spec)
        pad = cfg["psf_size"] + 2
    if cfg["psf_pad"] is not None:
        pad = cfg["psf_pad"]
    return grid, (pad, pad)


def noise_model_from_config(cfg: dict):
    if cfg["noise"] == "gaussian":
        return noise.GaussianNoise(cfg["sigma2"])
    if cfg["noise"] == "poisson":
        return noise.PoissonNoise(cfg["background"])
    raise ConfigError(f"unknown noise model: {cfg['noise']!r}")


# ---------------------------------------------------------------------------
# Pipeline pieces shared by crb/study
# ---------------------------------------------------------------------------


def compute_crb_case(H, model, v, epsilon_rel):
    """Fisher -> CRB map for one (H, object, noise) case.

    v is the vectorized object; it may be None for a model whose Fisher
    matrix does not depend on the object (Gaussian).
    """
    return fisher.crb_from_fisher(model.fisher(H, v),
                                  fisher.EpsilonPolicy(relative=epsilon_rel),
                                  object_shape=H.obj_shape)


def write_case_outputs(out_dir: Path, cmap) -> dict:
    """Write crb.csv / crb.pgm / cross_section.csv; return pgm scale info."""
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = cmap.grid()
    storage.write_grid_csv(out_dir / "crb.csv", grid)
    scale = storage.write_pgm16(out_dir / "crb.pgm", grid)
    summary = fisher.crb_summary(cmap)
    storage.write_grid_csv(out_dir / "cross_section.csv",
                           summary["cross_section"][None, :])
    return {"pgm_scale": scale, "epsilon_used": cmap.epsilon_used,
            "summary": {k: summary[k] for k in ("mean", "median", "max")}}


def base_manifest(cfg: dict, command: str) -> dict:
    return {
        "toolkit_version": __version__,
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "notes": {"psf_pad": PAD_NOTE, "surrogates": SURROGATE_NOTE},
        "psf_surrogate": True,
    }


def finish_manifest(manifest: dict, out_dir: Path, timings: dict) -> None:
    manifest["files"] = storage.checksum_tree(out_dir)
    manifest["timings"] = {k: round(v, 6) for k, v in timings.items()}
    storage.write_manifest(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_psf(args) -> int:
    cfg = resolve_config({}, _overrides(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid, _ = make_psf_grid(cfg, cfg["seed"])
    storage.write_grid_csv(out_dir / "psf.csv", grid)
    scale = storage.write_pgm16(out_dir / "psf.pgm", grid)
    manifest = base_manifest(cfg, "psf")
    manifest["pgm_scale"] = scale
    manifest["multiplexing_index"] = psf.multiplexing_index(grid)
    finish_manifest(manifest, out_dir, {})
    print(f"wrote {out_dir / 'psf.csv'} (multiplexing index "
          f"{manifest['multiplexing_index']:.4g})")
    return EXIT_OK


def cmd_object(args) -> int:
    cfg = resolve_config({}, _overrides(args))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = objects.generate_object(object_spec_from_config(cfg, cfg["seed"]))
    storage.write_grid_csv(out_dir / "object.csv", grid)
    scale = storage.write_pgm16(out_dir / "object.pgm", grid)
    manifest = base_manifest(cfg, "object")
    manifest["pgm_scale"] = scale
    manifest["sparsity"] = objects.sparsity(grid)
    finish_manifest(manifest, out_dir, {})
    print(f"wrote {out_dir / 'object.csv'} (sparsity {manifest['sparsity']:.4g})")
    return EXIT_OK


def cmd_crb(args) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(file_cfg, _overrides(args))
    out_dir = Path(args.out)
    t0 = time.perf_counter()
    obj = objects.generate_object(
        object_spec_from_config(cfg, derive_seed(cfg["seed"], "object")))
    psf_grid, pad_shape = make_psf_grid(cfg, derive_seed(cfg["seed"], "psf"))
    model = noise_model_from_config(cfg)
    t1 = time.perf_counter()
    H = build_system_matrix(psf_grid, obj.shape, pad_shape, psf_id=cfg["psf_kind"])
    cmap = compute_crb_case(H, model, vectorize(obj), cfg["epsilon_rel"])
    t2 = time.perf_counter()
    info = write_case_outputs(out_dir, cmap)
    manifest = base_manifest(cfg, "crb")
    manifest.update(info)
    manifest["background"] = cfg["background"] if cfg["noise"] == "poisson" else None
    finish_manifest(manifest, out_dir,
                    {"generate": t1 - t0, "pipeline": t2 - t1})
    print(f"wrote {out_dir / 'crb.csv'} (mean CRB "
          f"{info['summary']['mean']:.6g}, epsilon {info['epsilon_used']:.3g})")
    return EXIT_OK


def _study_objects(name: str, cfg: dict):
    """(case-name prefix, object grid or None) for each object of a study.

    fig2 is Gaussian, whose bound does not depend on the object, so it has
    one object-free case per PSF.
    """
    if name == "fig2":
        return [("", None)]
    size = (cfg["object_size"], cfg["object_size"])
    seed = derive_seed(cfg["seed"], "object")
    return [(f"{obj_name}_", objects.generate_object(
                objects.ObjectSpec(kind, size, cfg["object_peak"], seed)))
            for obj_name, kind in (("dense", objects.DenseCells()),
                                   ("sparse", objects.SparseBeads()))]


def cmd_study(args) -> int:
    name = args.name
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(file_cfg, _overrides(args))
    cfg["noise"] = "gaussian" if name == "fig2" else "poisson"
    model = noise_model_from_config(cfg)
    out_dir = Path(args.out) / name
    out_dir.mkdir(parents=True, exist_ok=True)
    pad = cfg["psf_pad"] if cfg["psf_pad"] is not None else cfg["psf_size"] + 2
    manifest = base_manifest(cfg, f"study {name}")
    manifest["background"] = cfg["background"] if name == "fig3" else None
    size = (cfg["object_size"], cfg["object_size"])
    specs = psf.default_study_specs(size=(cfg["psf_size"], cfg["psf_size"]),
                                    seed=derive_seed(cfg["seed"], "psf"))
    study_objects = _study_objects(name, cfg)
    cases, timings = {}, {}
    # PSF-major, so each H is built once; timings are per PSF
    for psf_name, spec in specs.items():
        t0 = time.perf_counter()
        psf_grid = psf.generate_psf(spec)
        H = build_system_matrix(psf_grid, size, (pad, pad), psf_id=psf_name)
        for prefix, obj in study_objects:
            v = None if obj is None else vectorize(obj)
            case_dir = out_dir / (prefix + psf_name)
            cases[prefix + psf_name] = write_case_outputs(
                case_dir, compute_crb_case(H, model, v, cfg["epsilon_rel"]))
            storage.write_grid_csv(case_dir / "psf.csv", psf_grid)
            if obj is not None:
                storage.write_grid_csv(case_dir / "object.csv", obj)
        timings[psf_name] = time.perf_counter() - t0
    # cases are listed object-major: every dense_* case before any sparse_*
    order = [prefix + psf_name for prefix, _ in study_objects for psf_name in specs]
    manifest["cases"] = {case: cases[case] for case in order}
    rows = ["case,mean,median,max"]
    for case in order:
        s = cases[case]["summary"]
        rows.append(f"{case},{s['mean']!r},{s['median']!r},{s['max']!r}")
    (out_dir / "summary.csv").write_text("\n".join(rows) + "\n")
    finish_manifest(manifest, out_dir, timings)
    print(f"study {name}: {len(manifest['cases'])} cases -> {out_dir}")
    return EXIT_OK


def _verify_checks(cfg: dict, inject_negative: bool):
    """Yield (check name, status, detail); status in PASS/FAIL/SKIP."""
    seed = cfg["seed"]
    n_samples = cfg["n_samples"]
    n_trials = cfg["n_trials"]
    rng = np.random.default_rng(derive_seed(seed, "verify"))

    spec = psf.PsfSpec(psf.Lenslets(3), (8, 8), derive_seed(seed, "psf"))
    psf_grid = psf.generate_psf(spec)
    obj = objects.generate_object(objects.ObjectSpec(
        objects.DenseCells(n_blobs=3), (8, 8), 50.0, derive_seed(seed, "object")))
    H = build_system_matrix(psf_grid, obj.shape, (10, 10), psf_id="lenslets3")
    if inject_negative:
        H.matrix[0, 0] = -1e-3
    v = vectorize(obj)

    # structural invariants of H
    colsums = H.matrix.sum(axis=0)
    ok = np.all(H.matrix >= 0) and np.max(np.abs(colsums - colsums[0])) < 1e-12
    yield "system_matrix_invariants", "PASS" if ok else "FAIL", \
        f"min entry {H.matrix.min():.3g}"
    if not ok:
        return

    gauss = noise.GaussianNoise(cfg["sigma2"])
    models = (("gaussian", gauss), ("poisson", noise.PoissonNoise(cfg["background"])))

    # Monte Carlo Fisher vs closed forms
    if n_samples < MC_MIN_SAMPLES:
        yield "mc_fisher_gaussian", "SKIP", "skipped-insufficient-samples"
        yield "mc_fisher_poisson", "SKIP", "skipped-insufficient-samples"
    else:
        for label, model in models:
            mc = fisher.fisher_monte_carlo(model, H, v, n_samples,
                                           derive_seed(seed, f"mc-{label}"))
            err = relative_error(mc.entries, model.fisher(H, v).entries)
            yield f"mc_fisher_{label}", "PASS" if err < 0.05 else "FAIL", \
                f"rel Frobenius error {err:.4f} (n={n_samples})"

    # finite-difference cross-checks of score and Hessian
    v_small = rng.uniform(0.5, 2.0, size=H.d)
    for label, model in models:
        y = noise.sample(model, forward(H, v_small), derive_seed(seed, f"fd-{label}"))
        g = noise.score(model, H, v_small, y)
        g_fd = fd_gradient(lambda x: noise.log_likelihood(model, H, x, y), v_small)
        err = relative_error(g_fd, g)
        yield f"fd_score_{label}", "PASS" if err < 1e-5 else "FAIL", \
            f"rel error {err:.3g}"
        hess = noise.hessian_log_likelihood(model, H, v_small, y)
        h_fd = fd_jacobian(lambda x: noise.score(model, H, x, y), v_small)
        err = relative_error(h_fd, hess)
        yield f"fd_hessian_{label}", "PASS" if err < 1e-4 else "FAIL", \
            f"rel error {err:.3g}"

    # GLS efficiency against the Gaussian CRB
    if n_trials < EFF_MIN_TRIALS:
        yield "gls_efficiency", "SKIP", "skipped-insufficient-trials"
    else:
        spec1 = psf.PsfSpec(psf.Lenslets(1), (8, 8), derive_seed(seed, "psf"))
        H1 = build_system_matrix(psf.generate_psf(spec1), (8, 8), (10, 10))
        cmap = compute_crb_case(H1, gauss, None, cfg["epsilon_rel"])
        report = run_trials(gauss, H1, v_small, "gls", n_trials,
                            derive_seed(seed, "trials"), crb=cmap)
        med = float(np.median(report.efficiency))
        yield "gls_efficiency", "PASS" if 0.9 <= med <= 1.1 else "FAIL", \
            f"median variance/CRB {med:.4f} (n={n_trials})"


def cmd_verify(args) -> int:
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(file_cfg, _overrides(args))
    out_dir = Path(args.out) if args.out else None
    results = []
    t0 = time.perf_counter()
    for name, status, detail in _verify_checks(cfg, args.inject_negative_entry):
        print(f"{status:4s} {name}: {detail}")
        results.append({"check": name, "status": status, "detail": detail})
    elapsed = time.perf_counter() - t0
    failed = [r["check"] for r in results if r["status"] == "FAIL"]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = base_manifest(cfg, "verify")
        manifest["checks"] = results
        finish_manifest(manifest, out_dir, {"verify": elapsed})
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _overrides(args) -> dict:
    """Map CLI flags onto config keys (command-specific flags included)."""
    out = {}
    for key in ("seed", "sigma2", "background", "epsilon_rel",
                "n_trials", "n_samples", "noise", "psf_pad"):
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    cmd = args.command
    if cmd == "psf":
        if args.kind is not None:
            out["psf_kind"] = args.kind
        if args.n is not None:
            out["psf_n"] = args.n
        if args.size is not None:
            out["psf_size"] = args.size
    elif cmd == "object":
        if args.kind is not None:
            out["object_kind"] = args.kind
        if args.n is not None:
            out["object_n"] = args.n
        if args.size is not None:
            out["object_size"] = args.size
        if args.peak is not None:
            out["object_peak"] = args.peak
    return out


def _add_common(p):
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--sigma2", type=float, help="Gaussian per-pixel variance")
    p.add_argument("--background", type=float, help="Poisson background floor")
    p.add_argument("--epsilon-rel", dest="epsilon_rel", type=float,
                   help="relative diagonal loading before inversion")
    p.add_argument("--n-trials", dest="n_trials", type=int)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--psf-pad", dest="psf_pad", type=int,
                   help="padded PSF size (default: PSF size + 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lensless-crb",
        description="Fisher information and Cramér-Rao bounds for lensless "
                    "imaging encoders")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psf", help="generate an encoder PSF")
    p.add_argument("--kind", choices=["lenslets", "rml", "diffuser", "delta"])
    p.add_argument("--n", type=int, help="lenslet count")
    p.add_argument("--size", type=int, help="grid side length")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_psf)

    p = sub.add_parser("object", help="generate a test object")
    p.add_argument("--kind", choices=["cells", "beads"])
    p.add_argument("--n", type=int, help="blob or bead count")
    p.add_argument("--size", type=int)
    p.add_argument("--peak", type=float, help="peak photons")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_object)

    p = sub.add_parser("crb", help="run one CRB pipeline from a config")
    p.add_argument("--config")
    p.add_argument("--noise", choices=["gaussian", "poisson"])
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_crb)

    p = sub.add_parser("verify", help="run the oracle suite at reduced size")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--inject-negative-entry", action="store_true",
                   help=argparse.SUPPRESS)   # test hook: corrupt H
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("study", help="run a canned multiplexing study")
    p.add_argument("name", choices=["fig2", "fig3"])
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularRateError, FactorizationError, FloatingPointError) as exc:
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
