import json
import os
import platform

import numpy as np
import pytest
import scipy

from lensless_crb import ConfigError, TrialFailureError, cli, fisher, forward_model, objects
from lensless_crb.cli import main
from lensless_crb.storage import read_grid_csv, sha256_file


def run(*argv):
    return main([str(a) for a in argv])


class TestPsfCommand:
    def test_writes_round_trip_psf(self, tmp_path):
        out = tmp_path / "psf"
        assert run("psf", "--kind", "lenslets", "--n", 3, "--size", 16,
                   "--out", out) == 0
        grid = read_grid_csv(out / "psf.csv")
        assert grid.shape == (16, 16)
        assert grid.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out / "psf.pgm").exists()

    def test_diffuser_occupancy(self, tmp_path):
        out = tmp_path / "psf"
        assert run("psf", "--kind", "diffuser", "--size", 32, "--seed", 42,
                   "--out", out) == 0
        grid = read_grid_csv(out / "psf.csv")
        assert np.mean(grid > 0.1 * grid.max()) >= 0.30

    def test_manifest_records_multiplexing_index(self, tmp_path):
        out = tmp_path / "psf"
        run("psf", "--kind", "lenslets", "--n", 1, "--size", 16, "--out", out)
        manifest = json.loads((out / "manifest.json").read_text())
        grid = read_grid_csv(out / "psf.csv")
        expected = grid.sum() ** 2 / (grid.size * np.sum(grid ** 2))
        assert manifest["multiplexing_index"] == pytest.approx(expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, size", [(("--size", 0), "0x0"),
                                            (("--kind", "diffuser", "--size", 1), "1x1")])
    def test_too_small_grid_names_its_size(self, tmp_path, capsys, argv, size):
        assert run("psf", *argv, "--out", tmp_path / "o") == 2
        assert f"size {size}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", list(cli.PSF_KINDS))
    def test_every_kind_name(self, tmp_path, kind):
        out = tmp_path / "psf"
        assert run("psf", "--kind", kind, "--size", 16, "--out", out) == 0
        grid = read_grid_csv(out / "psf.csv")
        assert grid.shape == ((1, 1) if kind == "delta" else (16, 16))
        assert grid.sum() == pytest.approx(1.0, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["psf_kind"] == kind


class TestObjectCommand:
    @pytest.mark.parametrize("kind", list(cli.OBJECT_KINDS))
    def test_every_kind_name(self, tmp_path, kind):
        out = tmp_path / "obj"
        assert run("object", "--kind", kind, "--size", 16, "--out", out) == 0
        grid = read_grid_csv(out / "object.csv")
        assert grid.shape == (16, 16)
        assert grid.max() == 100.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["object_kind"] == kind
        assert manifest["config"]["object_n"] is None

    def test_beads(self, tmp_path):
        out = tmp_path / "obj"
        assert run("object", "--kind", "beads", "--n", 5, "--size", 16,
                   "--peak", 80, "--out", out) == 0
        grid = read_grid_csv(out / "object.csv")
        assert np.count_nonzero(grid) == 5
        assert grid.max() == 80.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sparsity"] == pytest.approx(5 / 256)


class TestCrbCommand:
    def test_delta_psf_gaussian_crb_is_sigma2(self, tmp_path):
        out = tmp_path / "crb"
        cfg = tmp_path / "case.cfg"
        cfg.write_text("psf_kind = delta\nobject_size = 8\nsigma2 = 1.0\n")
        assert run("crb", "--config", cfg, "--out", out) == 0
        grid = read_grid_csv(out / "crb.csv")
        assert grid.shape == (8, 8)
        np.testing.assert_allclose(grid, 1.0, rtol=1e-6)

    def test_gaussian_bound_object_independent(self, tmp_path):
        # two different objects, identical encoder: identical Gaussian CRB bytes
        cfg = tmp_path / "case.cfg"
        cfg.write_text("psf_size = 8\nobject_size = 8\npsf_n = 2\n")
        digests = []
        for obj_seed_key, out in (("10", tmp_path / "a"), ("11", tmp_path / "b")):
            extra = tmp_path / f"c{obj_seed_key}.cfg"
            extra.write_text(cfg.read_text()
                             + f"object_kind = beads\nobject_n = {obj_seed_key}\n")
            assert run("crb", "--config", extra, "--out", out) == 0
            digests.append(sha256_file(out / "crb.csv"))
        assert digests[0] == digests[1]

    def test_poisson_crb_depends_on_object(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("psf_size = 8\nobject_size = 8\nnoise = poisson\n")
        out = tmp_path / "p"
        assert run("crb", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["background"] == 1e-3
        assert np.all(read_grid_csv(out / "crb.csv") > 0)

    def test_cross_section_is_middle_row(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("psf_size = 8\nobject_size = 8\n")
        out = tmp_path / "x"
        run("crb", "--config", cfg, "--out", out)
        grid = read_grid_csv(out / "crb.csv")
        cross = read_grid_csv(out / "cross_section.csv")
        np.testing.assert_array_equal(cross[0], grid[4])

    def test_seed_determinism(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text("psf_size = 8\nobject_size = 8\nnoise = poisson\n")
        run("crb", "--config", cfg, "--seed", 5, "--out", tmp_path / "r1")
        run("crb", "--config", cfg, "--seed", 5, "--out", tmp_path / "r2")
        assert sha256_file(tmp_path / "r1" / "crb.csv") \
            == sha256_file(tmp_path / "r2" / "crb.csv")


class TestConfigHandling:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigmaa2 = 1.0\n")
        assert run("crb", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_bad_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma2 = huge\n")
        assert run("crb", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_missing_config_file(self, tmp_path):
        assert run("crb", "--config", tmp_path / "absent.cfg",
                   "--out", tmp_path / "o") == 2

    def test_comments_and_flag_override(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment line\npsf_kind = delta  # inline\n"
                       "object_size = 8\nsigma2 = 4.0\n")
        out = tmp_path / "o"
        assert run("crb", "--config", cfg, "--sigma2", 9.0, "--out", out) == 0
        np.testing.assert_allclose(read_grid_csv(out / "crb.csv"), 9.0, rtol=1e-6)

    @pytest.mark.parametrize("flags", [("--sigma2", "inf"), ("--sigma2", "nan"),
                                       ("--noise", "poisson", "--background", "inf"),
                                       ("--epsilon-rel=-0.5",), ("--epsilon-rel", "nan")])
    def test_non_finite_noise_parameter_is_config_error(self, tmp_path, flags):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("psf_kind = delta\nobject_size = 8\n")
        assert run("crb", "--config", cfg, *flags, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "crb.csv").exists()

    @pytest.mark.parametrize("key", sorted(key for key, value in cli.DEFAULTS.items()
                                           if isinstance(value, float)))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_key_is_config_error(self, key, value):
        with pytest.raises(ConfigError):
            cli.resolve_config("crb", {key: value}, {})

    @pytest.mark.parametrize("key", sorted(key for key, value in cli.DEFAULTS.items()
                                           if value is None or isinstance(value, int)))
    def test_negative_int_key_is_config_error(self, key):
        command = next(c for c, keys in cli.COMMAND_KEYS.items() if key in keys)
        with pytest.raises(ConfigError, match=key):
            cli.resolve_config(command, {key: "-1"}, {})
        assert cli.resolve_config(command, {key: "0"}, {})[key] == 0

    @pytest.mark.parametrize("argv, config", [
        (("object", "--kind", "beads", "--peak", "nan"), None),
        (("object", "--kind", "beads", "--peak", "inf"), None),
        (("crb",), "psf_kind = diffuser\npsf_corr_length = nan"),
        (("crb",), "psf_kind = rml\npsf_width_max = inf"),
        (("crb",), "psf_kind = rml\npsf_width_min = nan"),
        (("crb",), "psf_kind = diffuser\npsf_contrast = -inf")])
    def test_non_finite_generator_parameter_is_config_error(self, tmp_path, argv,
                                                            config):
        if config is not None:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"psf_size = 16\nobject_size = 8\n{config}\n")
            argv += ("--config", cfg)
        assert run(*argv, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("contrast", [1000, -1000])
    def test_diffuser_contrast_that_overflows_is_config_error(self, tmp_path, capsys,
                                                              contrast):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"psf_kind = diffuser\npsf_contrast = {contrast}\n"
                       "psf_size = 16\nobject_size = 8\n")
        assert run("crb", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "contrast" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["psf_kind = lens", "object_kind = cell",
                                      "noise = laplace"])
    def test_unknown_kind_name_is_config_error(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"psf_size = 8\nobject_size = 8\n{line}\n")
        assert run("crb", "--config", cfg, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [("verify", "--n-samples", 100, "--n-trials", 10),
                                         ("study", "fig2"), ("study", "fig3")])
    @pytest.mark.parametrize("line", ["psf_kind = lens", "object_kind = cell"])
    def test_unknown_kind_name_fails_every_command(self, tmp_path, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"psf_size = 16\nobject_size = 8\n{line}\n")
        assert run(*command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ("psf", "--kind", "lenslets", "--size", 16, "--sigma2", -5, "--n-trials", 3),
        ("psf", "--psf-pad", 18), ("object", "--background", 1.0),
        ("object", "--epsilon-rel", 1e-6), ("object", "--n-samples", 10),
        ("crb", "--n-trials", -3), ("study", "fig2", "--n-samples", 10)])
    def test_generators_reject_pipeline_flags(self, tmp_path, argv):
        with pytest.raises(SystemExit) as info:
            run(*argv, "--out", tmp_path / "o")
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run("psf", "--kind", "lenslets", "--size", 16,
                   "--out", blocker / "sub") == 4


class TestCommandKeys:
    @pytest.mark.parametrize("command, argv", [
        ("psf", ("psf", "--size", 16)),
        ("object", ("object", "--size", 16)),
        ("crb", ("crb", "--config", "small.cfg")),
        ("verify", ("verify", "--n-samples", 100, "--n-trials", 0)),
        ("study fig2", ("study", "fig2", "--config", "small.cfg")),
        ("study fig3", ("study", "fig3", "--config", "small.cfg"))])
    def test_manifest_config_lists_the_keys_the_command_reads(self, tmp_path,
                                                              monkeypatch, command, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "small.cfg").write_text("psf_size = 16\nobject_size = 8\n")
        assert run(*argv, "--out", "o") == 0
        manifest = next((tmp_path / "o").rglob("manifest.json"))
        manifest = json.loads(manifest.read_text())
        assert manifest["command"] == command
        assert set(manifest["config"]) == cli.COMMAND_KEYS[command]
        assert ("psf_pad" in manifest["notes"]) == ("psf_pad" in manifest["config"])

    @pytest.mark.parametrize("argv, config, key", [
        (("study", "fig3"), "psf_kind = rml", "psf_kind"),
        (("study", "fig3"), "object_kind = beads", "object_kind"),
        (("study", "fig3"), "n_trials = 5", "n_trials"),
        (("study", "fig3"), "noise = gaussian", "noise"),
        (("study", "fig3", "--sigma2", 2), "", "sigma2"),
        (("study", "fig2", "--background", 1), "", "background"),
        (("crb",), "n_trials = -3", "n_trials"),
        (("crb", "--seed", -5), "", "seed"),
        (("verify",), "psf_pad = 50", "psf_pad")])
    def test_unread_key_or_negative_int_is_config_error(self, tmp_path, capsys,
                                                         argv, config, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{config}\n")
        out = tmp_path / "o"
        assert run(*argv, "--config", cfg, "--out", out) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_verify_has_no_psf_pad_flag(self, tmp_path):
        # verify pads its fixed 8x8 PSFs to 10x10 whatever the config says
        with pytest.raises(SystemExit) as info:
            run("verify", "--psf-pad", 50, "--out", tmp_path / "o")
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()


class TestVerifyCommand:
    def test_reduced_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run("verify", "--n-samples", 20_000, "--n-trials", 2000,
                   "--out", out)
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert all(line.startswith("PASS") for line in lines)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {c["status"] for c in manifest["checks"]} == {"PASS"}

    def test_manifest_times_each_check_and_records_monte_carlo(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(fisher, "cpu_count", lambda: 3)
        out = tmp_path / "v"
        assert run("verify", "--n-samples", 2 * fisher.MC_CHUNK, "--n-trials", 0,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        checks = [c["check"] for c in manifest["checks"]]
        timings = manifest["timings"]
        assert sorted(timings) == sorted(["verify"] + checks)
        assert all(timings[c] >= 0 for c in checks)
        assert sum(timings[c] for c in checks) <= timings["verify"] + 1e-5
        # two chunks cap the three CPUs at two workers, each at one BLAS thread
        assert manifest["monte_carlo"] == {"workers": 2,
                                           "blas_threads": forward_model.blas_thread_cap(),
                                           "chunk_samples": fisher.MC_CHUNK,
                                           "block_bytes": fisher.MC_BLOCK_BYTES}

    def test_manifest_records_uncapped_blas_threads_as_null(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.setattr(forward_model, "_openblas_thread_controls", lambda: None)
        out = tmp_path / "v"
        assert run("verify", "--n-samples", fisher.MC_CHUNK, "--n-trials", 0,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monte_carlo"]["workers"] == 1
        assert manifest["monte_carlo"]["blas_threads"] is None

    def test_manifest_records_no_monte_carlo_workers_when_skipped(self, tmp_path):
        out = tmp_path / "v"
        assert run("verify", "--n-samples", 100, "--n-trials", 0, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {c["check"]: c["status"] for c in manifest["checks"]
                if c["check"].startswith("mc_fisher")} == \
            {"mc_fisher_gaussian": "SKIP", "mc_fisher_poisson": "SKIP"}
        assert manifest["monte_carlo"]["workers"] == 0
        assert manifest["monte_carlo"]["blas_threads"] is None

    def test_insufficient_budget_skips(self, capsys):
        code = run("verify", "--n-samples", 100, "--n-trials", 10)
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        skipped = [line for line in lines if line.startswith("SKIP")]
        assert any("mc_fisher" in line for line in skipped)
        assert any("gls_efficiency" in line for line in skipped)

    def test_trial_failure_is_numeric_error(self, monkeypatch, capsys):
        def failing_trials(*args, **kwargs):
            raise TrialFailureError(20, 1000)

        monkeypatch.setattr(cli, "run_trials", failing_trials)
        assert run("verify", "--n-samples", 100, "--n-trials", 1000) == 3
        assert "20/1000 estimator failures" in capsys.readouterr().err

    def test_injected_corruption_fails(self, tmp_path, monkeypatch, capsys):
        build = cli.build_system_matrix

        def corrupted(*args, **kwargs):
            H = build(*args, **kwargs)
            H.matrix[0, 0] = -1e-3
            return H

        monkeypatch.setattr(cli, "build_system_matrix", corrupted)
        code = run("verify", "--n-samples", 100, "--n-trials", 10)
        assert code == 3
        assert "FAIL system_matrix_invariants" in capsys.readouterr().out
        # the Monte Carlo budget is met, but the checks stop at the first FAIL
        out = tmp_path / "v"
        assert run("verify", "--n-samples", 20_000, "--n-trials", 10,
                   "--out", out) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["status"] for c in manifest["checks"]] == ["FAIL"]
        assert manifest["monte_carlo"]["workers"] == 0

    @pytest.mark.parametrize("flags", [("--epsilon-rel=-0.5",), ("--epsilon-rel", "nan"),
                                       ("--sigma2", -1), ("--background", "inf"),
                                       ("--n-samples", -5), ("--n-trials", -5)])
    def test_bad_parameter_fails_before_any_check(self, tmp_path, capsys, flags):
        out = tmp_path / "v"
        code = run("verify", "--n-samples", 100, "--n-trials", 10, *flags, "--out", out)
        assert code == 2
        assert "PASS" not in capsys.readouterr().out
        assert not out.exists()


@pytest.fixture(scope="module")
def fig2_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    cfg = root / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 16\n")
    assert run("study", "fig2", "--config", cfg, "--out", root) == 0
    return root / "fig2"


class TestStudyCommand:
    def test_case_layout(self, fig2_dir):
        cases = ["lenslets1", "lenslets2", "lenslets3", "lenslets4",
                 "lenslets5", "rml", "diffuser"]
        for case in cases:
            for f in ("crb.csv", "crb.pgm", "cross_section.csv", "psf.csv"):
                assert (fig2_dir / case / f).exists()

    def test_summary_matches_maps(self, fig2_dir):
        lines = (fig2_dir / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "case,mean,median,max"
        assert len(lines) == 8
        for line in lines[1:]:
            case, mean, median, mx = line.split(",")
            grid = read_grid_csv(fig2_dir / case / "crb.csv")
            assert float(mean) == grid.mean()
            assert float(mx) == grid.max()

    def test_manifest_covers_all_files(self, fig2_dir):
        manifest = json.loads((fig2_dir / "manifest.json").read_text())
        listed = manifest["files"]
        on_disk = {str(p.relative_to(fig2_dir)) for p in fig2_dir.rglob("*")
                   if p.is_file() and p.name != "manifest.json"}
        assert set(listed) == on_disk
        for rel, digest in listed.items():
            assert sha256_file(fig2_dir / rel) == digest

    def test_gaussian_means_track_multiplexing(self, fig2_dir):
        lines = (fig2_dir / "summary.csv").read_text().strip().splitlines()[1:]
        means = {l.split(",")[0]: float(l.split(",")[1]) for l in lines}
        lenslets = [means[f"lenslets{n}"] for n in range(1, 6)]
        assert all(a <= b for a, b in zip(lenslets, lenslets[1:]))
        assert means["diffuser"] >= means["lenslets5"]


STAGES = {"fisher", "crb", "files"}


def test_cases_record_their_stage_timings(tmp_path):
    # study: each case's stages sit inside its PSF's time, which also covers
    # building H and the other object's case
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 16\n")
    assert run("study", "fig3", "--config", cfg, "--out", tmp_path) == 0
    manifest = json.loads((tmp_path / "fig3" / "manifest.json").read_text())
    for psf_name, psf_s in manifest["timings"].items():
        stages = [manifest["cases"][f"{prefix}_{psf_name}"]["timings"]
                  for prefix in ("dense", "sparse")]
        assert all(set(t) == STAGES and min(t.values()) >= 0 for t in stages)
        assert sum(sum(t.values()) for t in stages) <= psf_s
    # crb: the one case's stages sit inside its pipeline time
    out = tmp_path / "crb"
    assert run("crb", "--config", cfg, "--noise", "poisson", "--out", out) == 0
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert min(timings[stage] for stage in STAGES) >= 0
    assert sum(timings[stage] for stage in STAGES) <= timings["pipeline"]


@pytest.mark.parametrize("threads", [None, "1"])
def test_manifest_records_the_environment(tmp_path, monkeypatch, threads):
    # crb.csv bytes depend on the BLAS thread count, so a manifest records it
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    assert run("psf", "--size", 16, "--out", tmp_path) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["openblas_num_threads"] == threads
    assert env["cpu_count"] == len(os.sched_getaffinity(0))
    assert (env["python"], env["numpy"], env["scipy"]) == (
        platform.python_version(), np.__version__, scipy.__version__)
    for package in (np, scipy):
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env[f"{package.__name__}_blas"] == {"name": blas["name"],
                                                   "version": blas["version"]}


def test_psf_and_object_commands_write_the_grids_a_study_uses(tmp_path):
    # every command draws its PSF and object from the same substreams of --seed
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 16\n")
    assert run("study", "fig3", "--config", cfg, "--seed", 3, "--out", tmp_path) == 0
    assert run("psf", "--kind", "diffuser", "--size", 16, "--seed", 3,
               "--out", tmp_path / "psf") == 0
    assert run("object", "--kind", "beads", "--size", 16, "--seed", 3,
               "--out", tmp_path / "object") == 0
    study = tmp_path / "fig3"
    assert sha256_file(tmp_path / "psf" / "psf.csv") \
        == sha256_file(study / "dense_diffuser" / "psf.csv")
    assert sha256_file(tmp_path / "object" / "object.csv") \
        == sha256_file(study / "sparse_rml" / "object.csv")


def test_study_rejects_psf_kind(tmp_path, capsys):
    # the studies run their own encoders, so psf_kind is not theirs to read
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_kind = delta\npsf_size = 16\nobject_size = 8\n")
    out = tmp_path / "out"
    assert run("study", "fig2", "--config", cfg, "--out", out) == 2
    assert "'psf_kind'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("study", ["fig2", "fig3"])
def test_study_that_cannot_generate_a_psf_writes_nothing(tmp_path, study):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 8\nobject_size = 8\n")   # 15 rml spots do not fit
    out = tmp_path / "out"
    assert run("study", study, "--config", cfg, "--out", out) == 2
    assert not any(out.rglob("*"))


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("study, expected", [
    ("fig2", {"build_system_matrix": 7, "fisher_gaussian": 7}),
    ("fig3", {"build_system_matrix": 7, "generate_object": 2, "fisher_poisson": 14}),
])
def test_study_builds_each_h_once(tmp_path, monkeypatch, study, expected):
    counts = {}
    for module, name in ((cli, "build_system_matrix"), (objects, "generate_object"),
                         (fisher, "fisher_gaussian"), (fisher, "fisher_poisson")):
        _count_calls(monkeypatch, module, name, counts)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 8\n")   # 15 rml spots need 16x16
    assert run("study", study, "--config", cfg, "--out", tmp_path) == 0
    assert counts == expected


def test_fig2_builds_no_dense_system_matrix(tmp_path, monkeypatch):
    # the Gaussian Fisher matrix comes from the PSF autocorrelation
    built = []

    def build(*args, **kwargs):
        built.append(cli_build(*args, **kwargs))
        return built[-1]

    cli_build = cli.build_system_matrix
    monkeypatch.setattr(cli, "build_system_matrix", build)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 8\n")
    assert run("study", "fig2", "--config", cfg, "--out", tmp_path) == 0
    assert len(built) == 7
    assert all("matrix" not in vars(H) for H in built)
