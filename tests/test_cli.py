import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy

from lensless_crb import (ConfigError, FactorizationError, TrialFailureError, cli, fisher,
                          forward_model, noise, objects)
from lensless_crb.cli import main
from lensless_crb.storage import checksum_tree, read_grid_csv, sha256_file

ROOT = Path(__file__).resolve().parents[1]


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
        # the map is uniform, so its summary statistics agree; a Gaussian
        # run records its model's background, 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = manifest["summary"]
        assert summary["mean"] == summary["median"] == summary["max"] == grid[0, 0]
        assert manifest["background"] == 0.0

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

    def test_key_set_twice_is_config_error_naming_both_lines(self, tmp_path, capsys):
        # the later line does not silently win
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("sigma2 = 1\npsf_kind = delta\nsigma2 = 4\n")
        assert run("crb", "--config", cfg, "--out", tmp_path / "o") == 2
        assert f"{cfg}:3: sigma2 is already set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
                                       ("--epsilon-rel=-0.5",), ("--epsilon-rel", "nan"),
                                       ("--sigma2", "1e-320"),
                                       ("--noise", "poisson", "--background", "1e-320"),
                                       ("--epsilon-rel", "1e10")])
    def test_non_finite_noise_parameter_is_config_error(self, tmp_path, capsys, flags):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("psf_kind = delta\nobject_size = 8\n")
        assert run("crb", "--config", cfg, *flags, "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o" / "crb.csv").exists()
        # the message names the parameter, also where only its reciprocal overflows
        flag = flags[-2] if len(flags) > 1 else flags[0].split("=")[0]
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["fig2", "fig3"])
    def test_study_rejects_a_load_that_sets_the_bound(self, tmp_path, capsys, study):
        # at epsilon_rel >= 1 the load, not J, would set every pixel's bound
        cfg = tmp_path / "small.cfg"
        cfg.write_text("psf_size = 16\nobject_size = 8\n")
        out = tmp_path / "o"
        assert run("study", study, "--config", cfg, "--epsilon-rel", "1e10",
                   "--out", out) == 2
        assert "epsilon_rel" in capsys.readouterr().err
        assert not out.exists()

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


# the fields every command's manifest records
MANIFEST_BASE_FIELDS = {"toolkit_version", "command", "config", "environment", "notes",
                        "psf_surrogate", "files", "timings"}


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
        assert manifest["notes"] == {"surrogates": cli.SURROGATE_NOTE}

    @pytest.mark.parametrize("argv, own", [
        (("psf",), {"pgm_scale", "multiplexing_index"}),
        (("object",), {"pgm_scale", "sparsity"}),
        (("crb", "--config", "small.cfg"),
         {"pgm_scale", "epsilon_used", "summary", "background"}),
        (("verify", "--n-samples", 0, "--n-trials", 0), {"checks", "monte_carlo"}),
        (("study", "fig2", "--config", "small.cfg"), {"background", "case_pool", "cases"})])
    def test_every_manifest_has_the_base_fields_and_its_own(self, tmp_path, monkeypatch,
                                                            argv, own):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "small.cfg").write_text("psf_size = 16\nobject_size = 8\n")
        assert run(*argv, "--out", "o") == 0
        manifest = json.loads(next((tmp_path / "o").rglob("manifest.json")).read_text())
        assert set(manifest) == MANIFEST_BASE_FIELDS | own

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
        # verify convolves its fixed 8x8 PSFs unpadded whatever the config
        # says, and its GLS check loads J as the GLS solver does
        for flag in ("--psf-pad", "--epsilon-rel"):
            with pytest.raises(SystemExit) as info:
                run("verify", flag, 50, "--out", tmp_path / "o")
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
        # two chunks cap the three CPUs at two workers, each at one BLAS thread;
        # the Poisson counts came from tables of verify's 225 measurement
        # pixels, the 15x15 full convolution of its 8x8 PSF and object
        table_bytes = manifest["monte_carlo"]["draws"]["poisson"]["table_bytes"]
        assert manifest["monte_carlo"] == {
            "workers": 2, "blas_threads": forward_model.blas_thread_cap(),
            "chunk_samples": fisher.MC_CHUNK, "block_bytes": forward_model.GRAM_BLOCK_BYTES,
            "draws": {"gaussian": {"path": "rng.normal", "table_bytes": 0},
                      "poisson": {"path": "tables", "table_bytes": table_bytes}}}
        assert table_bytes % (225 * noise.TABLE_ENTRY_BYTES) == 0
        assert 0 < table_bytes <= forward_model.GRAM_BLOCK_BYTES

    def test_manifest_records_rng_poisson_when_tables_exceed_the_block(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(noise, "GRAM_BLOCK_BYTES", 1 << 10)
        out = tmp_path / "v"
        assert run("verify", "--n-samples", fisher.MC_CHUNK, "--n-trials", 0,
                   "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monte_carlo"]["draws"]["poisson"] == {"path": "rng.poisson",
                                                               "table_bytes": 0}

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
        assert manifest["monte_carlo"]["draws"] == {}

    def test_skipped_monte_carlo_checks_are_the_noise_models(self, monkeypatch, capsys):
        # the Monte Carlo check names come from NOISE_MODELS whether they run or not
        monkeypatch.setattr(cli, "NOISE_MODELS", {"poisson": cli.NOISE_MODELS["poisson"]})
        assert run("verify", "--n-samples", 0, "--n-trials", 0) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "mc_fisher" in line] \
            == ["SKIP mc_fisher_poisson: skipped-insufficient-samples"]

    def test_efficiency_checks_follow_the_noise_models(self, monkeypatch, capsys):
        # verify's decoder efficiency check belongs to a noise model by one
        # VERIFY_DECODERS entry, so a model that is not there runs none;
        # verify builds every NOISE_MODELS entry, so each entry has its model
        assert set(cli.VERIFY_DECODERS) <= set(cli.NOISE_MODELS)

        def efficiency_lines():
            assert run("verify", "--n-samples", 0, "--n-trials", cli.EFF_MIN_TRIALS) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines
            return [line.split(":")[0] for line in lines if "efficiency" in line]

        assert efficiency_lines() == ["PASS gls_efficiency"]
        monkeypatch.setattr(cli, "VERIFY_DECODERS", {})
        assert efficiency_lines() == []

    def test_monte_carlo_checks_pass_at_the_smallest_budget_they_run(self, capsys):
        # seed 8 drew the largest Poisson error of seeds 6-35: 0.052 at 10 000
        # samples, 0.037 at 20 000
        assert run("verify", "--seed", 8, "--n-samples", cli.MC_MIN_SAMPLES,
                   "--n-trials", 0) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if "mc_fisher" in line] \
            == ["PASS mc_fisher_gaussian", "PASS mc_fisher_poisson"]

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

    def test_zero_background_passes_every_check(self, capsys):
        # H is the full convolution, so every measurement pixel is reached
        # by the instance's dense cells and no rate is zero at beta 0
        assert run("verify", "--background", 0, "--n-samples", 20_000,
                   "--n-trials", 1000) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS") for line in lines)

    def test_zero_poisson_rate_fails_before_any_check(self, tmp_path, monkeypatch, capsys):
        # beads leave the object's corners empty, so at zero background the
        # corner measurements have a zero rate in the Poisson closed form
        # that the Monte Carlo check compares with
        monkeypatch.setattr(cli, "VERIFY_CASE", {**cli.VERIFY_CASE, "object_kind": "beads"})
        out = tmp_path / "v"
        assert run("verify", "--background", 0, "--n-trials", 0, "--out", out) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "zero Poisson rate" in captured.err
        assert not out.exists()
        # without the Monte Carlo checks, the finite differences handle zero rates
        assert run("verify", "--background", 0, "--n-samples", 100, "--n-trials", 0) == 0

    @pytest.mark.parametrize("flag, value", [
        *[("--background", b) for b in (0, 1e-3, 1, 1e3, 1e6, 1e9)],
        *[("--sigma2", s) for s in (1e-6, 1, 1e6, 1e12)]])
    def test_finite_difference_checks_pass_at_every_scale(self, capsys, flag, value):
        # the likelihood sums grow with k * background or k/2 log(2 pi
        # sigma2); the checks difference per measurement, so they keep their
        # digits, and beta = 0 leaves out the rates no object pixel reaches
        assert run("verify", "--n-samples", 0, "--n-trials", 0, flag, value) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(line.split(":")[0] for line in lines if "fd_" in line) == \
            ["PASS fd_hessian_gaussian", "PASS fd_hessian_poisson",
             "PASS fd_score_gaussian", "PASS fd_score_poisson"]

    @pytest.mark.parametrize("flags", [("--sigma2", -1), ("--background", "inf"),
                                       ("--n-samples", -5), ("--n-trials", -5),
                                       ("--sigma2", "1e-320"), ("--background", "1e-320")])
    def test_bad_parameter_fails_before_any_check(self, tmp_path, capsys, flags):
        out = tmp_path / "v"
        code = run("verify", "--n-samples", 100, "--n-trials", 10, *flags, "--out", out)
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert flags[0][2:].replace("-", "_") in captured.err
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
            assert float(median) == np.median(grid)
            assert float(mx) == grid.max()

    def test_manifest_records_the_models_background(self, fig2_dir):
        # fig2 runs the Gaussian model, whose background is 0
        assert json.loads((fig2_dir / "manifest.json").read_text())["background"] == 0.0

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


@pytest.mark.parametrize("threads", [None, 2])
def test_manifest_records_the_environment(tmp_path, monkeypatch, blas_threads_at_two,
                                          threads):
    # crb.csv bytes depend on the BLAS thread count, so a manifest records the
    # count SciPy's OpenBLAS, the package's one BLAS, runs at: null where the
    # library is not found
    if threads is None:
        monkeypatch.setattr(forward_model, "_openblas_thread_controls", lambda: None)
    elif blas_threads_at_two is None:
        pytest.skip("SciPy's OpenBLAS was not found")
    assert run("psf", "--size", 16, "--out", tmp_path) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["blas_threads"] == threads
    assert env["cpu_count"] == len(os.sched_getaffinity(0))
    assert (env["python"], env["numpy"], env["scipy"]) == (
        platform.python_version(), np.__version__, scipy.__version__)
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["scipy_blas"] == {"name": blas["name"], "version": blas["version"]}
    assert set(env) == {"python", "numpy", "scipy", "scipy_blas", "blas_threads",
                        "cpu_count"}


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
    # a crb case directory holds a study case's files, from the same grids
    crb = tmp_path / "crb"
    cfg.write_text("psf_size = 16\nobject_size = 16\npsf_kind = diffuser\n"
                   "object_kind = beads\nnoise = poisson\n")
    assert run("crb", "--config", cfg, "--seed", 3, "--out", crb) == 0
    assert {f.name for f in crb.iterdir()} - {"manifest.json"} \
        == {f.name for f in (study / "sparse_diffuser").iterdir()}
    for name in ("psf", "object"):
        assert sha256_file(crb / f"{name}.csv") \
            == sha256_file(tmp_path / name / f"{name}.csv")
    # so do psf and object given crb's generator keys at other values
    keys = {"psf": "psf_kind = rml\npsf_n_spots = 8\npsf_size = 16\n",
            "object": "object_kind = beads\nobject_n = 5\nobject_size = 16\n"}
    for name, lines in keys.items():
        (tmp_path / f"{name}.cfg").write_text(lines)
        assert run(name, "--config", tmp_path / f"{name}.cfg", "--seed", 3,
                   "--out", tmp_path / f"{name}2") == 0
    cfg.write_text(keys["psf"] + keys["object"] + "noise = poisson\n")
    assert run("crb", "--config", cfg, "--seed", 3, "--out", tmp_path / "crb2") == 0
    for name in ("psf", "object"):
        assert sha256_file(tmp_path / "crb2" / f"{name}.csv") \
            == sha256_file(tmp_path / f"{name}2" / f"{name}.csv")
    assert read_grid_csv(tmp_path / "psf2" / "psf.csv").shape == (16, 16)
    assert np.count_nonzero(read_grid_csv(tmp_path / "object2" / "object.csv")) == 5


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


def _count_calls(monkeypatch, module, name, call_log):
    # recorded in the file, so the calls made in the study's worker
    # processes count too
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        call_log.record(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("study, expected", [
    ("fig2", {"build_system_matrix": 7, "bound": 7}),
    ("fig3", {"build_system_matrix": 7, "generate_object": 2, "bound": 14}),
])
def test_study_builds_each_h_once(tmp_path, monkeypatch, call_log, study, expected):
    for module, name in ((cli, "build_system_matrix"), (objects, "generate_object"),
                         (fisher, "bound")):
        _count_calls(monkeypatch, module, name, call_log)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 8\n")   # 15 rml spots need 16x16
    assert run("study", study, "--config", cfg, "--out", tmp_path) == 0
    assert Counter(call_log.lines()) == expected


def test_fig2_builds_no_dense_system_matrix(tmp_path, dense_builds):
    # the Gaussian Fisher matrix comes from the PSF autocorrelation
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 8\n")
    assert run("study", "fig2", "--config", cfg, "--out", tmp_path) == 0
    assert dense_builds() == []


@pytest.mark.parametrize("command", [("study", "fig3"), ("crb", "--noise", "poisson")])
def test_poisson_runs_build_no_dense_system_matrix(tmp_path, dense_builds, command):
    # the rate is a row-Toeplitz product and the Gram is fed bands formed
    # from the padded PSF, so the Poisson Fisher path never reads the dense H
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 16\n")
    assert run(*command, "--config", cfg, "--out", tmp_path / "out") == 0
    assert dense_builds() == []


@pytest.mark.parametrize("pad, out_shape", [((), (23, 23)), (("--psf-pad", 18), (25, 25))],
                         ids=["default", "psf-pad-18"])
@pytest.mark.parametrize("command", [("crb",), ("study", "fig2"), ("study", "fig3")],
                         ids=["crb", "fig2", "fig3"])
def test_h_is_the_full_convolution_unless_padded(tmp_path, monkeypatch, call_log, command,
                                                 pad, out_shape):
    # by default each H measures object + PSF - 1 pixels per axis, in a
    # study's worker processes too; psf_pad enlarges the plane
    build = cli.build_system_matrix

    def spy(*args):
        H = build(*args)
        call_log.record(repr(H.out_shape))
        return H

    monkeypatch.setattr(cli, "build_system_matrix", spy)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 8\n")
    assert run(*command, "--config", cfg, *pad, "--out", tmp_path / "out") == 0
    assert call_log.lines() == [repr(out_shape)] * (1 if command == ("crb",)
                                                    else len(cli.STUDY_PSFS))


@pytest.mark.parametrize("study", ["fig2", "fig3"])
def test_psf_pad_leaves_every_study_bound(tmp_path, study):
    # padding adds only all-zero rows to H, and they add nothing to J
    cfg = _small_study_config(tmp_path)
    assert run("study", study, "--config", cfg, "--out", tmp_path / "full") == 0
    assert run("study", study, "--config", cfg, "--psf-pad", 18,
               "--out", tmp_path / "padded") == 0
    maps = sorted((tmp_path / "full" / study).glob("*/crb.csv"))
    assert len(maps) == len(cli.STUDY_PSFS) * len(cli.STUDIES[study][1])
    for path in maps:
        padded = tmp_path / "padded" / study / path.parent.name / "crb.csv"
        np.testing.assert_allclose(read_grid_csv(padded), read_grid_csv(path),
                                   rtol=1e-9, atol=0)


def _small_study_config(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("psf_size = 16\nobject_size = 16\n")
    return cfg


@pytest.mark.parametrize("cpus, workers, found", [(1, 1, True), (9, 7, False)])
def test_study_manifest_records_how_its_cases_ran(tmp_path, monkeypatch, blas_threads_at_two,
                                                  cpus, workers, found):
    # the cases run on one worker process per usable CPU, at most one per
    # PSF, each at one BLAS thread (null where SciPy's OpenBLAS is not
    # found); the environment keeps the command's own live thread count
    if not found:
        monkeypatch.setattr(forward_model, "_openblas_thread_controls", lambda: None)
    elif blas_threads_at_two is None:
        pytest.skip("SciPy's OpenBLAS was not found")
    monkeypatch.setattr(fisher, "cpu_count", lambda: cpus)
    assert run("study", "fig2", "--config", _small_study_config(tmp_path),
               "--out", tmp_path) == 0
    assert multiprocessing.active_children() == []
    manifest = json.loads((tmp_path / "fig2" / "manifest.json").read_text())
    assert manifest["case_pool"] == {"workers": workers, "blas_threads": 1 if found else None}
    assert manifest["environment"]["blas_threads"] == (2 if found else None)


def test_a_case_that_fails_in_a_worker_exits_3(tmp_path, monkeypatch, capsys):
    # the worker's typed error reaches the command intact; the PSFs still
    # queued are cancelled and every worker is joined
    write = cli.write_case

    def failing(out_dir, *args):
        if out_dir.name == "dense_rml":
            raise FactorizationError(0.5, "Cholesky failed in dense_rml")
        return write(out_dir, *args)

    monkeypatch.setattr(cli, "write_case", failing)
    assert run("study", "fig3", "--config", _small_study_config(tmp_path),
               "--out", tmp_path) == 3
    assert capsys.readouterr().err == "numeric error: Cholesky failed in dense_rml\n"
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "fig3" / "summary.csv").exists()
    assert not (tmp_path / "fig3" / "manifest.json").exists()


@pytest.mark.parametrize("argv, stage", [
    (("crb", "--object-size", 100_000), "make_object_grid"),
    (("study", "fig2"), "write_case")], ids=["crb", "study-worker"])
def test_out_of_memory_is_numeric_error(tmp_path, monkeypatch, capsys, argv, stage):
    # an array too large to allocate, in the command's process or in a study
    # worker, ends the run with one line, writing nothing and leaving no worker
    def too_large(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, stage, too_large)
    out = tmp_path / "o"
    assert run(*argv, "--config", _small_study_config(tmp_path), "--out", out) == 3
    assert capsys.readouterr().err == "numeric error: Unable to allocate 74.5 GiB\n"
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_study_at_zero_background_exits_3_naming_one_pixel(tmp_path, capsys):
    # the 16x16 objects leave corner pixels empty (the dense cells their
    # bottom-right corner, the beads nearly every pixel), so measurements
    # that only those pixels reach have a zero rate at beta 0
    assert run("study", "fig3", "--config", _small_study_config(tmp_path),
               "--background", 0, "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric error: zero Poisson rate at measurement pixel \d+\n", err)
    assert multiprocessing.active_children() == []


def test_study_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every case runs in a worker at one BLAS thread, whatever thread count
    # the command starts with; crb bytes still depend on it
    cfg = _small_study_config(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    sums = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "lensless_crb.cli", "study", "fig3",
                        "--config", str(cfg), "--out", str(out)],
                       env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True,
                       capture_output=True, timeout=300)
        sums.append(checksum_tree(out / "fig3"))
    assert len(sums[0]) == 14 * 5 + 1
    assert sums[0] == sums[1]


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [7.5], [0.1, 0.30000000000000004, 0.7, 1e300],
    [0.0, 5e-324, 5e-324, 1.0], [2.0, np.inf, 1.0], [np.inf, 1.0, np.inf, 2.0],
    [np.inf, np.inf], [1.0, np.nan, 2.0], [np.nan, 0.5, 3.0, 2.0], [np.inf, np.nan]],
    ids=["odd", "even", "one", "even-rounding", "even-subnormal", "inf-odd", "inf-even",
         "all-inf", "nan-odd", "nan-even", "inf-nan"])
def test_median_is_numpys_bit_for_bit(values):
    # cli.median replaces np.median, whose first call on float data imports
    # numpy.ma; a 2-D grid is the median of all its entries
    for a in (np.array(values), np.array(values * 2).reshape(2, -1)):
        got, want = cli.median(a), np.median(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_median_is_numpys_on_random_non_negative_data():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = rng.exponential(size=rng.integers(1, 40))
        a[rng.random(a.size) < 0.05] = np.inf
        a[rng.random(a.size) < 0.02] = np.nan
        assert np.float64(cli.median(a)).tobytes() == np.float64(np.median(a)).tobytes()
