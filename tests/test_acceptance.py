"""End-to-end acceptance checks for the bound-computation toolkit.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL`` line and then
asserts, so the verdicts also survive in captured output. The checks cover:
full-scale dimensions and runtime, exact trivial cases, Monte Carlo and
finite-difference oracle agreement, CRB attainment by least squares, the
Gaussian and Poisson multiplexing studies, scaling laws, and byte-level
determinism of study outputs.
"""

import json
import time

import numpy as np
import pytest

from lensless_crb import (
    GaussianNoise,
    PoissonNoise,
    build_system_matrix,
    crb_from_fisher,
    fisher_monte_carlo,
    fisher_poisson,
    forward,
    generate_psf,
    hessian_log_likelihood,
    log_likelihood,
    run_trials,
    sample,
    score,
)
from lensless_crb.cli import main
from lensless_crb.fisher import fisher_gaussian
from lensless_crb.oracles import fd_gradient, fd_jacobian, relative_error
from lensless_crb.psf import Diffuser, Lenslets, PsfSpec
from lensless_crb.storage import checksum_tree, read_grid_csv, sha256_file


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def read_summary(study_dir):
    lines = (study_dir / "summary.csv").read_text().strip().splitlines()[1:]
    return {l.split(",")[0]: float(l.split(",")[1]) for l in lines}


@pytest.fixture(scope="module")
def study_root(tmp_path_factory):
    """Full-scale fig2 run plus two identically seeded fig3 runs."""
    root = tmp_path_factory.mktemp("acceptance")
    assert main(["study", "fig2", "--out", str(root / "g")]) == 0
    assert main(["study", "fig3", "--out", str(root / "p1")]) == 0
    assert main(["study", "fig3", "--out", str(root / "p2")]) == 0
    return root


class TestAcceptance:
    def test_1_dimension_fidelity(self, study_root):
        t0 = time.perf_counter()
        psf = generate_psf(PsfSpec(Diffuser(), (32, 32), 0))
        H = build_system_matrix(psf, (32, 32), (34, 34))
        crb_from_fisher(fisher_gaussian(H, 1.0), object_shape=H.obj_shape)
        single_case = time.perf_counter() - t0
        ok = H.matrix.shape == (4225, 1024) and H.out_shape == (65, 65)
        ok = ok and single_case < 60.0
        for study in ("g/fig2", "p1/fig3"):
            manifest = json.loads((study_root / study / "manifest.json").read_text())
            ok = ok and len(manifest["cases"]) == 7 * (2 if "fig3" in study else 1)
            ok = ok and all(t < 60.0 for t in manifest["timings"].values())
            grid = read_grid_csv(study_root / study / "lenslets1" / "crb.csv") \
                if "fig2" in study else \
                read_grid_csv(study_root / study / "dense_lenslets1" / "crb.csv")
            ok = ok and grid.shape == (32, 32)
        report(1, "dimension_fidelity", ok)

    def test_2_trivial_case_exactness(self):
        H = build_system_matrix(np.ones((1, 1)), (8, 8))
        gauss = crb_from_fisher(fisher_gaussian(H, 2.5), epsilon_rel=1e-9,
                                object_shape=(8, 8))
        ok = np.max(np.abs(gauss.values - 2.5) / 2.5) < 1e-6
        rng = np.random.default_rng(0)
        v = rng.uniform(1.0, 10.0, size=64)
        poiss = crb_from_fisher(fisher_poisson(H, v, 0.0), epsilon_rel=1e-9,
                                object_shape=(8, 8))
        ok = ok and np.max(np.abs(poiss.values - v) / v) < 1e-6
        report(2, "trivial_case_exactness", ok)

    def test_3_monte_carlo_oracle_equivalence(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.5, 2.0, size=64)
        ok = True
        for i, kind in enumerate((Lenslets(1), Lenslets(3), Diffuser())):
            psf = generate_psf(PsfSpec(kind, (8, 8), 0))
            H = build_system_matrix(psf, (8, 8), (10, 10))
            for model, closed in (
                (GaussianNoise(1.0), fisher_gaussian(H, 1.0)),
                (PoissonNoise(1e-3), fisher_poisson(H, v, 1e-3)),
            ):
                mc = fisher_monte_carlo(model, H, v, 200_000, seed=10 + i)
                ok = ok and relative_error(mc, closed) < 0.05
        report(3, "monte_carlo_oracle_equivalence", ok)

    def test_4_derivative_verification(self):
        psf = generate_psf(PsfSpec(Lenslets(2), (8, 8), 0))
        H = build_system_matrix(psf, (6, 6), (10, 10))
        rng = np.random.default_rng(2)
        v = rng.uniform(0.5, 2.0, size=H.d)
        ok = True
        for model in (GaussianNoise(1.2), PoissonNoise(0.05)):
            y = sample(model, forward(H, v), seed=3)
            g = score(model, H, v, y)
            g_fd = fd_gradient(lambda x: log_likelihood(model, H, x, y), v)
            ok = ok and relative_error(g_fd, g) < 1e-5
            hess = hessian_log_likelihood(model, H, v, y)
            h_fd = fd_jacobian(lambda x: score(model, H, x, y), v)
            ok = ok and relative_error(h_fd, hess) < 1e-4
        report(4, "derivative_verification", ok)

    def test_5_crb_attainment(self):
        psf = generate_psf(PsfSpec(Lenslets(1), (8, 8), 0))
        H = build_system_matrix(psf, (8, 8), (10, 10))
        rng = np.random.default_rng(4)
        v = rng.uniform(1.0, 5.0, size=H.d)
        crb = crb_from_fisher(fisher_gaussian(H, 1.0), object_shape=(8, 8))
        rep = run_trials(GaussianNoise(1.0), H, v, "gls", 10_000, seed=0,
                         crb=crb)
        med = float(np.median(rep.efficiency))
        report(5, "crb_attainment", 0.9 <= med <= 1.1)

    def test_6_gaussian_multiplexing_study(self, study_root, tmp_path):
        means = read_summary(study_root / "g" / "fig2")
        lenslets = [means[f"lenslets{n}"] for n in range(1, 6)]
        ok = all(a <= b for a, b in zip(lenslets, lenslets[1:]))
        ok = ok and means["diffuser"] >= means["lenslets5"]
        # the Gaussian bound must not depend on the object
        digests = []
        for tag, extra in (("a", "object_kind = cells\n"),
                           ("b", "object_kind = beads\n")):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text("psf_n = 3\n" + extra)
            assert main(["crb", "--config", str(cfg),
                         "--out", str(tmp_path / tag)]) == 0
            digests.append(sha256_file(tmp_path / tag / "crb.csv"))
        ok = ok and digests[0] == digests[1]
        report(6, "gaussian_multiplexing_study", ok)

    def test_7_poisson_sparsity_study(self, study_root):
        means = read_summary(study_root / "p1" / "fig3")
        sparse = [means[f"sparse_lenslets{n}"] for n in range(1, 6)]
        dense = [means[f"dense_lenslets{n}"] for n in range(1, 6)]
        # sparse beads: the bound stays flat across lenslet counts ...
        ok = max(sparse) < 2.0 * min(sparse)
        # ... while the dense object degrades steadily and by more than 2x
        ok = ok and all(a < b for a, b in zip(dense, dense[1:]))
        ok = ok and means["dense_diffuser"] > 2.0 * means["dense_lenslets1"]
        # sparse objects are never harder than dense ones
        for psf_name in ("lenslets1", "lenslets2", "lenslets3", "lenslets4",
                         "lenslets5", "rml", "diffuser"):
            ok = ok and means[f"sparse_{psf_name}"] <= means[f"dense_{psf_name}"]
        # only very high multiplexing hurts the sparse object
        ok = ok and means["sparse_rml"] > means["sparse_lenslets5"]
        ok = ok and means["sparse_diffuser"] > means["sparse_lenslets5"]
        report(7, "poisson_sparsity_study", ok)

    def test_8_scaling_laws(self):
        # no zero padding: beta=0 needs every measurement rate strictly positive
        psf = generate_psf(PsfSpec(Lenslets(3), (8, 8), 0))
        H = build_system_matrix(psf, (8, 8), (8, 8))
        base = crb_from_fisher(fisher_gaussian(H, 1.0), object_shape=(8, 8)).values
        scaled = crb_from_fisher(fisher_gaussian(H, 7.0), object_shape=(8, 8)).values
        ok = np.max(np.abs(scaled - 7.0 * base) / (7.0 * base)) < 1e-9
        rng = np.random.default_rng(5)
        v = rng.uniform(0.5, 2.0, size=H.d)
        base = crb_from_fisher(fisher_poisson(H, v, 0.0), object_shape=(8, 8)).values
        scaled = crb_from_fisher(fisher_poisson(H, 3.0 * v, 0.0),
                                 object_shape=(8, 8)).values
        ok = ok and np.max(np.abs(scaled - 3.0 * base) / (3.0 * base)) < 1e-9
        report(8, "scaling_laws", ok)

    def test_9_determinism(self, study_root):
        d1 = study_root / "p1" / "fig3"
        d2 = study_root / "p2" / "fig3"
        # every data file byte-identical (manifest checksums exclude themselves)
        ok = checksum_tree(d1) == checksum_tree(d2)
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        # wall-clock times legitimately differ, the run's and each case's
        for m in (m1, m2):
            del m["timings"]
            for case in m["cases"].values():
                del case["timings"]
        ok = ok and m1 == m2
        report(9, "determinism", ok)
