"""CLI: subcommands, exit codes, config files, output determinism."""

import hashlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compdiff import cli, experiments
from compdiff.cli import build_parser, main
from compdiff.operators import (SingularSpectrum, spectrum_from_csv,
                                spectrum_to_csv)
from compdiff.series import dilation
from oracles import hs_parseval_sum

DATA = Path(__file__).parent / "data"


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path), *extra])


def _refuse_constant(name):
    """``parse_constant`` hook: NaN and Infinity are not standard JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


class TestSpectrum:
    def test_dilation_csv(self, tmp_path):
        code = run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "64"],
                   tmp_path)
        assert code == 0
        spectrum = spectrum_from_csv((tmp_path / "spectrum.csv").read_text())
        expected = 0.5 ** np.arange(64)
        np.testing.assert_allclose(spectrum.values, expected, atol=1e-10)
        assert spectrum.horizon == 64

    def test_not_self_map_exits_3(self, tmp_path):
        code = run(["spectrum", "--symbol", "dilation(a=2)", "--N", "32"],
                   tmp_path)
        assert code == 3

    def test_bad_symbol_exits_2(self, tmp_path):
        code = run(["spectrum", "--symbol", "warp(a=1)", "--N", "32"], tmp_path)
        assert code == 2

    def test_dry_run_writes_nothing(self, tmp_path):
        code = run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "64"],
                   tmp_path, extra=["--dry-run"])
        assert code == 0
        assert not (tmp_path / "spectrum.csv").exists()

    def test_byte_identical_runs(self, tmp_path):
        run(["spectrum", "--symbol", "half_map", "--N", "32"], tmp_path / "a")
        run(["spectrum", "--symbol", "half_map", "--N", "32"], tmp_path / "b")
        assert ((tmp_path / "a" / "spectrum.csv").read_bytes()
                == (tmp_path / "b" / "spectrum.csv").read_bytes())

    # N=256 runs the blocked FFT power build of one term (rewritten when the
    # build went from one column to 8 per batched inverse FFT: the horizon
    # stayed, every value moved by under 2e-17 sigma_1); both bases are
    # dense, so exact tables for sparse bases leave these bytes alone.
    # Rewritten again when the N0 side became a sketch: 128 rows, N and the
    # horizon (2 and 6) kept, sigma_1 ... sigma_40 within 6e-16 sigma_1; and
    # when the N0 side became the top-left block of the 2*N0 build: rows and
    # horizons kept, every value within 1e-16 sigma_1
    @pytest.mark.parametrize("extra, fname", [
        ([], "spectrum_corner_N256.csv"),
        (["--weight", "weight_power(alpha=1)"],
         "weighted_spectrum_corner_N256.csv"),
    ], ids=["composition", "weighted"])
    def test_corner_csv_bytes_pinned(self, tmp_path, extra, fname):
        code = run(["spectrum", "--symbol", "corner_map", "--N", "256",
                    *extra], tmp_path)
        assert code == 0
        expected = (DATA / fname).read_bytes()
        assert (tmp_path / "spectrum.csv").read_bytes() == expected


class TestDiffSpectrum:
    def test_diagonal_difference(self, tmp_path):
        code = run(["diff-spectrum", "--phi", "dilation(a=0.5)",
                    "--psi", "dilation(a=0.25)", "--N", "32"], tmp_path)
        assert code == 0
        spectrum = spectrum_from_csv((tmp_path / "spectrum.csv").read_text())
        assert spectrum.sigma(1) == pytest.approx(0.25, abs=1e-12)

    def test_corner_csv_bytes_pinned(self, tmp_path):
        # N=256 decides the horizon on the leading N0 and 2*N0 values; the
        # file was written with the horizon from a full SVD, rewritten for
        # the blocked FFT build (horizon 6 kept, every value within 1.2e-15
        # sigma_1, a rounding move of the two terms of size 1), again for
        # the N0 sketch (128 rows, horizon 6 kept, sigma_1 ... sigma_40
        # within 9e-16 sigma_1), and when the N0 side became the top-left
        # block of the 2*N0 build (128 rows, horizon 6 kept, in-horizon
        # values within 9.3e-14 relative, every value within 5.4e-15
        # sigma_1)
        code = run(["diff-spectrum", "--phi", "corner_map",
                    "--psi", "corner_perturbation(c=0.01)", "--N", "256"],
                   tmp_path)
        assert code == 0
        expected = (Path(__file__).parent / "data"
                    / "diff_spectrum_corner_N256.csv").read_bytes()
        assert (tmp_path / "spectrum.csv").read_bytes() == expected


class TestHsNorm:
    def test_matches_parseval_oracle(self, tmp_path, capsys):
        code = run(["hs-norm", "--phi", "dilation(a=0.5)",
                    "--psi", "dilation(a=0.25)"], tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "hs_norm.json").read_text())
        oracle = hs_parseval_sum(dilation(0.5), dilation(0.25), 64)
        assert payload["value"] == pytest.approx(oracle, rel=1e-5)
        assert not payload["diverged"]

    def test_divergent_value_is_null(self, tmp_path, capsys):
        code = run(["hs-norm", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=2.2, c=0.005)"], tmp_path)
        assert code == 0
        payload = json.loads((tmp_path / "hs_norm.json").read_text(),
                             parse_constant=_refuse_constant)
        assert payload["value"] is None and payload["diverged"]
        assert "divergent" in capsys.readouterr().out

    def test_non_finite_values_are_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_outputs(tmp_path,
                               {"out.json": cli._json_text({"value": math.inf})})
        assert not (tmp_path / "out.json").exists()

    def test_not_self_map_exits_3(self, tmp_path, capsys):
        code = run(["hs-norm", "--phi", "half_map", "--psi", "dilation(a=2)"],
                   tmp_path)
        assert code == 3
        assert "NotSelfMap" in capsys.readouterr().err
        assert not (tmp_path / "hs_norm.json").exists()


class TestBounds:
    def test_lower_bound(self, tmp_path):
        code = run(["lower-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)",
                    "--n", "8"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "lower_bound.json").read_text())
        assert doc["n"] == 8 and doc["value_constant_free"] > 0

    def test_upper_bound(self, tmp_path):
        code = run(["upper-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)",
                    "--n", "6", "--r-grid", "0.9,0.99"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "upper_bound.json").read_text())
        assert doc["n"] == 6 and doc["r"] in (0.9, 0.99)
        assert len(doc["trace"]) == 2

    @pytest.mark.parametrize("extra, fname", [
        (["--n", "12"], "lower_bound_pinch_n12.json"),
        (["--n", "40", "--sequence", "radial"], "lower_bound_radial_n40.json"),
    ])
    def test_lower_bound_bytes_pinned(self, tmp_path, extra, fname):
        code = run(["lower-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)", *extra],
                   tmp_path)
        assert code == 0
        expected = (DATA / fname).read_bytes()
        assert (tmp_path / "lower_bound.json").read_bytes() == expected

    def test_upper_bound_bytes_pinned(self, tmp_path, capsys):
        code = run(["upper-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)",
                    "--n", "12"], tmp_path)
        assert code == 0
        expected = (DATA / "upper_bound_n12.json").read_bytes()
        assert (tmp_path / "upper_bound.json").read_bytes() == expected
        *printed, wrote = capsys.readouterr().out.splitlines()
        assert printed == [
            "n=12 best r=0.89363408 value=1.794134e-01",
            "sups: B.phi=7.527e-03 B.psi=7.856e-03 w.phi=1.815e-02 w.psi=1.843e-02",
        ]
        assert wrote.startswith("wrote ")

    def test_sequence_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sequence = radial\n")
        code = run(["lower-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)",
                    "--n", "40"], tmp_path, extra=["--config", str(cfg)])
        assert code == 0
        expected = (DATA / "lower_bound_radial_n40.json").read_bytes()
        assert (tmp_path / "lower_bound.json").read_bytes() == expected

    def test_upper_bound_without_a_split_layout(self, tmp_path):
        # {|psi| <= r} is empty for an automorphism; the single-curve layout
        # still certifies
        code = run(["upper-bound", "--phi", "half_map",
                    "--psi", "mobius(a=0.3+0.2i)", "--n", "8"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "upper_bound.json").read_text())
        assert doc["r"] == 0.6
        assert doc["flags"]["empty_sets"] == ["B_psi"]

    def test_colliding_images_exit_3(self, tmp_path):
        code = run(["lower-bound", "--phi", "half_map", "--psi", "half_map",
                    "--n", "8"], tmp_path)
        assert code == 3

    @pytest.mark.parametrize("n, code, message", [
        ("0", 2, "n >= 2"), ("1", 2, "n >= 2"), ("2", 3, "EmptyRange"),
    ])
    def test_radial_below_its_smallest_n(self, tmp_path, capsys, n, code,
                                         message):
        assert run(["lower-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)",
                    "--sequence", "radial", "--n", n], tmp_path) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "lower_bound.json").exists()


class TestExperimentAndFit:
    def test_experiment_smooth_small(self, tmp_path, capsys):
        code = run(["experiment", "smooth", "--alpha", "3", "--c", "0.005",
                    "--N", "128"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "power_band" in out
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["name"] == "smooth_perturbation"
        assert (tmp_path / "certificates.json").exists()

    def test_smooth_driver_bytes_pinned(self, tmp_path):
        from compdiff.experiments import run_smooth_perturbation

        run_smooth_perturbation(3.0, 0.005, 64, window=(2, 8),
                                r_grid=(0.9, 0.99)).write(tmp_path)
        for name in ("result.json", "certificates.json"):
            expected = (DATA / f"smooth_N64_{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == expected, name

    # the multi-n certificate path of the weighted driver (n = 2..7); numpy
    # takes a separate path for integer complex powers, so a non-integer
    # alpha is pinned as well
    @pytest.mark.parametrize("alpha, prefix", [
        (1.0, "weighted_N64"), (1.6, "weighted_alpha1.6_N64")])
    def test_weighted_driver_bytes_pinned(self, tmp_path, alpha, prefix):
        from compdiff.experiments import run_weighted_power

        run_weighted_power(alpha, 64, window=(2, 8)).write(tmp_path)
        for name in ("result.json", "certificates.json"):
            expected = (DATA / f"{prefix}_{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == expected, name

    def test_fit_subcommand(self, tmp_path, capsys):
        run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "32"], tmp_path)
        capsys.readouterr()  # drain the spectrum run's output
        code = main(["fit", "--csv", str(tmp_path / "spectrum.csv"),
                     "--model", "root_exp", "--window", "2:16"])
        assert code == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["model"] == "root_exp" and 0 <= fit["r2"] <= 1

    def test_fit_without_horizon_exits_3(self, tmp_path, capsys):
        csv = tmp_path / "spectrum.csv"
        csv.write_text(spectrum_to_csv(
            SingularSpectrum(0.5 ** np.arange(32.0), order=32)))
        code = main(["fit", "--csv", str(csv), "--model", "root_exp",
                     "--window", "2:16"])
        assert code == 3
        captured = capsys.readouterr()
        assert "WindowExceedsHorizon" in captured.err and captured.out == ""

    def test_bidisc_glued(self, tmp_path, capsys):
        code = run(["bidisc", "--kind", "glued", "--N", "32"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["glued: N=32 horizon=2", "bidisc glued: verdicts {}"]

    def test_bidisc_split(self, tmp_path, capsys):
        # one line per spectrum; N=128 has too few trusted squares to fit
        code = run(["bidisc", "--kind", "split", "--N", "128"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == ["tensor: N=16384 horizon=15",
                           "difference: N=128 horizon=4",
                           "factor: N=128 horizon=128",
                           "bidisc split: verdicts {}"]

    # result.json and certificates.json are pinned as files, each spectrum
    # CSV by its SHA-256 (the split tensor CSV has 4,096 rows).  The N = 128
    # pins were rewritten when the N0 side became the top-left block of the
    # 2*N0 build: horizons and result.json kept, spectra within 3.9e-15
    # sigma_1, triangular block terms within 5.2e-18; N = 32 did not move
    @pytest.mark.parametrize("kind, n", [
        ("split", 128), ("glued", 32), ("triangular", 128)])
    def test_bidisc_bytes_pinned(self, tmp_path, kind, n):
        code = run(["bidisc", "--kind", kind, "--N", str(n)], tmp_path)
        assert code == 0
        label = f"{kind}_N{n}"
        digests = json.loads(
            (DATA / "bidisc_spectra_sha256.json").read_text())[label]
        written = sorted(p.name for p in tmp_path.iterdir())
        pinned = sorted(p.name.removeprefix(f"bidisc_{label}_")
                        for p in DATA.glob(f"bidisc_{label}_*"))
        assert written == sorted([*pinned, *digests])
        for name in pinned:
            expected = (DATA / f"bidisc_{label}_{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == expected, name
        for name, digest in digests.items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_smooth_window_below_three_points_exits_3(self, tmp_path, capsys):
        code = run(["experiment", "smooth", "--N", "80"], tmp_path)
        assert code == 3
        assert "WindowExceedsHorizon" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_experiment_weighted_small(self, tmp_path, capsys):
        code = run(["experiment", "weighted", "--alpha", "1", "--N", "256"],
                   tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "power_band" in out or "zero_slope" in out


class TestDriverDefaults:
    """``experiment`` and ``bidisc`` pass on only the flags given, so a flag
    left out takes the driver's default."""

    @pytest.mark.parametrize("argv, driver, expected", [
        (["experiment", "smooth"], "run_smooth_perturbation",
         {"alpha": 3.0, "c": 0.005, "n_trunc": 1024}),
        (["experiment", "corner"], "run_corner_perturbation",
         {"c": 0.01, "n_trunc": 1024}),
        (["experiment", "weighted"], "run_weighted_power",
         {"alpha": 1.0, "n_trunc": 1024}),
        (["bidisc", "--kind", "split"], "_run_split",
         {"c": 0.01, "n_trunc": 512}),
        (["bidisc", "--kind", "glued"], "_run_glued",
         {"c": 0.01, "n_trunc": 256}),
        (["bidisc", "--kind", "triangular"], "_run_triangular",
         {"c": 0.01, "n_trunc": 2048}),
        (["experiment", "corner", "--c", "0.02", "--N", "64"],
         "run_corner_perturbation", {"c": 0.02, "n_trunc": 64}),
        (["bidisc", "--kind", "glued", "--N", "32"], "_run_glued",
         {"c": 0.01, "n_trunc": 32}),
    ])
    def test_driver_receives(self, tmp_path, monkeypatch, argv, driver,
                             expected):
        seen = []
        module = cli if hasattr(cli, driver) else experiments
        real = getattr(module, driver)

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments)
            return experiments.ExperimentResult(name=driver, parameters={})

        monkeypatch.setattr(module, driver, spy)
        assert run(argv, tmp_path) == 0
        (arguments,) = seen
        assert {key: arguments[key] for key in expected} == expected

    def test_config_values_pass_the_converters(self, tmp_path, monkeypatch):
        seen = []

        def spy(**kwargs):
            seen.append(kwargs)
            return experiments.ExperimentResult(name="w", parameters={})

        monkeypatch.setattr(cli, "run_weighted_power", spy)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\nN = 64\n")
        assert run(["experiment", "weighted"], tmp_path,
                   extra=["--config", str(cfg)]) == 0
        assert seen == [{"alpha": 2.0, "n_trunc": 64}]
        assert type(seen[0]["alpha"]) is float

    @pytest.mark.parametrize("argv, message", [
        (["experiment", "weighted", "--c", "0.3"],
         "experiment weighted takes no --c"),
        (["experiment", "corner", "--alpha", "3"],
         "experiment corner takes no --alpha"),
    ], ids=["weighted c", "corner alpha"])
    def test_flag_the_run_does_not_take_is_named(self, tmp_path, capsys,
                                                 argv, message):
        assert run(argv, tmp_path, extra=["--dry-run"]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"


class TestConfigFile:
    def test_file_fills_defaults_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 16\ncsv = from_file.csv\n# comment line\n")
        code = run(["spectrum", "--symbol", "dilation(a=0.5)",
                    "--csv", "flag.csv"], tmp_path,
                   extra=["--config", str(cfg)])
        assert code == 0
        # N came from the file, csv from the flag
        assert (tmp_path / "flag.csv").exists()
        spectrum = spectrum_from_csv((tmp_path / "flag.csv").read_text())
        assert spectrum.order == 16

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        code = run(["spectrum", "--symbol", "half_map"], tmp_path,
                   extra=["--config", str(cfg)])
        assert code == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--csv", "x.csv", "--model", "sine"])
        assert exc.value.code == 2


class TestWeighted:
    def test_certificates_bytes_pinned(self, tmp_path, capsys):
        # the r optimiser sorts the grid and keeps the first minimum, so the
        # certificates of a fixed configuration never change
        code = run(["weighted", "--omega", "weight_power(alpha=1)",
                    "--phi", "half_map", "--N", "64", "--n", "8"], tmp_path)
        assert code == 0
        expected = (Path(__file__).parent / "data"
                    / "weighted_certificates_N64_n8.json").read_text()
        assert (tmp_path / "certificates.json").read_text() == expected
        *printed, wrote = capsys.readouterr().out.splitlines()
        assert printed == [
            "weight_power(alpha=1.0) * C[half_map]: N=64 horizon=7",
            "   n        sigma_n",
            "   1  1.4763278533e+00",
            "   2  8.0632661468e-01",
            "   4  4.2457068791e-01",
            "   8  2.1299935210e-01  past horizon",
            "  16  2.0929965635e-02  past horizon",
            "  32  1.6032681090e-07  past horizon",
            "  64  1.1766882124e-29  past horizon",
            "lower(n=8) = 1.353007e-02   upper(n=8) = 7.176139e-01",
        ]
        assert wrote.startswith("wrote ")

    def test_failed_certificates_write_nothing(self, tmp_path, capsys):
        # the spectrum succeeds and prints, a certificate fails after it
        out = tmp_path / "out"
        assert main(["weighted", "--omega", "weight_power(alpha=1)",
                     "--phi", "constant(c=0.5)", "--N", "32", "--n", "4",
                     "--out", str(out)]) == 3
        printed = capsys.readouterr()
        assert "sigma_n" in printed.out and "CollidingImages" in printed.err
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["--N", "1024", "--n", "1"], "pinch sequence needs n >= 4"),
        (["--N", "32", "--n", "4", "--csv", "certificates.json"],
         "would overwrite certificates.json"),
        (["--N", "32", "--n", "4", "--csv", "./certificates.json"],
         "would overwrite certificates.json"),
    ], ids=["n=1", "csv", "csv-dot"])
    def test_bad_configuration_fails_before_the_spectrum(self, tmp_path,
                                                         capsys, argv, error):
        out = tmp_path / "out"
        assert main(["weighted", "--omega", "weight_power(alpha=1)",
                     "--phi", "half_map", *argv, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert "sigma_n" not in printed.out and error in printed.err
        assert not out.exists()


# one valid invocation of every subcommand
EVERY_COMMAND = [
    ["spectrum", "--symbol", "half_map"],
    ["diff-spectrum", "--phi", "half_map", "--psi", "corner_map"],
    ["lower-bound", "--phi", "half_map", "--psi", "corner_map"],
    ["upper-bound", "--phi", "half_map", "--psi", "corner_map"],
    ["hs-norm", "--phi", "half_map", "--psi", "corner_map"],
    ["weighted", "--omega", "weight_power(alpha=1)", "--phi", "half_map"],
    ["bidisc", "--kind", "glued"],
    ["experiment", "smooth"],
    ["fit", "--csv", "none.csv", "--model", "power"],
]


class TestDryRunEverywhere:
    def test_every_subcommand_has_dry_run(self, tmp_path):
        for argv in EVERY_COMMAND:
            code = main([*argv, "--out", str(tmp_path), "--dry-run"])
            assert code == 0, argv
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda a: a[0])
    def test_dry_run_prints_one_line(self, tmp_path, capsys, argv):
        code = main([*argv, "--out", str(tmp_path), "--dry-run"])
        assert code == 0
        assert capsys.readouterr().out == f"dry-run: {argv[0]}\n"


# (valid arguments, the option given a bad value, the bad value)
BAD_VALUES = {
    "symbol": (["spectrum", "--symbol", "half_map", "--N", "16"],
               "weight", "warp(a=1)"),
    "upper-bound r grid": (["upper-bound", "--phi", "half_map",
                            "--psi", "corner_map", "--n", "4"],
                           "r_grid", "2,3"),
    "weighted r grid": (["weighted", "--omega", "weight_power(alpha=1)",
                         "--phi", "half_map", "--N", "16", "--n", "4"],
                        "r_grid", "2,3"),
    "window": (["fit", "--csv", "none.csv", "--model", "power"],
               "window", "8:x"),
    # argparse holds only flags to choices=, so a converter checks the name
    "sequence": (["lower-bound", "--phi", "half_map", "--psi", "corner_map",
                  "--n", "4"], "sequence", "foo"),
    # a flag the chosen run's driver does not take
    "weighted c": (["experiment", "weighted", "--N", "64"], "c", "0.3"),
    "corner alpha": (["experiment", "corner", "--N", "64"], "alpha", "3"),
    "threads": (["spectrum", "--symbol", "half_map", "--N", "16"],
                "threads", "-3"),
}


class TestDryRunParity:
    """argparse converts flags and config values alike, so a bad value exits
    2 with or without --dry-run, before anything is computed or written."""

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_exits_2(self, tmp_path, capsys, case, source, dry_run):
        argv, key, bad = BAD_VALUES[case]
        if source == "flag":
            given = ["--" + key.replace("_", "-"), bad]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {bad}\n")
            given = ["--config", str(cfg)]
        out = tmp_path / "out"
        code = main([*argv, *given, "--out", str(out),
                     *(["--dry-run"] if dry_run else [])])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()


class TestConfigPrecedence:
    def test_explicit_flag_equal_to_default_wins(self, tmp_path, monkeypatch):
        # --N 1024 is also the default; the file's N = 16 must not replace it
        seen = []
        real = cli.convergence_horizon

        def record(build, n):
            seen.append(n)
            return real(build, 16)  # a full N=1024 run is not needed here

        monkeypatch.setattr(cli, "convergence_horizon", record)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 16\n")
        code = run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "1024"],
                   tmp_path, extra=["--config", str(cfg)])
        assert code == 0
        assert seen == [1024]

    def test_explicit_default_n_wins_in_a_real_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 8\n")
        code = run(["lower-bound", "--phi", "half_map", "--psi", "corner_map",
                    "--n", "16"], tmp_path, extra=["--config", str(cfg)])
        assert code == 0
        assert json.loads((tmp_path / "lower_bound.json").read_text())["n"] == 16

    def test_keys_that_are_not_options_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("handler = cmd_fit\ncommand = fit\nalpha = 2\nN = 16\n")
        code = run(["spectrum", "--symbol", "dilation(a=0.5)"], tmp_path,
                   extra=["--config", str(cfg)])
        assert code == 0
        spectrum = spectrum_from_csv((tmp_path / "spectrum.csv").read_text())
        assert spectrum.order == 16

    @pytest.mark.parametrize("line, dry", [
        ("dry_run = 1", True), ("dry_run = true", True),
        ("dry-run = Yes", True), ("dry_run = on", True),
        ("dry_run = 0", False), ("dry_run = off", False),
    ])
    def test_boolean_spellings(self, tmp_path, line, dry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        code = run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "16"],
                   out, extra=["--config", str(cfg)])
        assert code == 0
        assert (out / "spectrum.csv").exists() is not dry


@pytest.mark.parametrize("argv", [
    ["spectrum", "--symbol", "half_map", "--config", "missing.cfg"],
    ["fit", "--csv", "missing.csv", "--model", "power"],
], ids=["config", "fit csv"])
def test_missing_input_file_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "missing." in capsys.readouterr().err


@pytest.mark.parametrize("kind, n, message", [
    ("triangular", "64", "N >= 128"),  # its largest block
    ("glued", "8", "N0 >= 16"),        # the smallest doubling
], ids=["triangular", "glued"])
def test_triangular_below_its_largest_block_exits_2(tmp_path, capsys, kind,
                                                    n, message):
    code = run(["bidisc", "--kind", kind, "--N", n], tmp_path)
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


EXIT_CONTRACT_RUNS = (
    [["experiment", which, "--N", str(n)]
     for which in ("smooth", "corner", "weighted") for n in range(16, 65, 8)]
    + [["bidisc", "--kind", kind, "--N", str(n)]
       for kind in ("split", "glued", "triangular") for n in (16, 32, 64, 128)]
    + [["hs-norm", "--phi", "half_map",
        "--psi", "power_perturbation(alpha=2.2, c=0.005)"]])


@pytest.mark.parametrize("argv", EXIT_CONTRACT_RUNS, ids=" ".join)
def test_small_driver_runs_keep_the_exit_code_contract(tmp_path, capsys, argv):
    # 0 for a run, 2 for a configuration error, 3 for a numeric failure;
    # an exception escaping main breaks the contract, and so does a JSON
    # file that is not standard JSON (NaN or Infinity)
    assert run(argv, tmp_path) in (0, 2, 3)
    capsys.readouterr()
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def _readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_cli_lines():
    text = _readme_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("compdiff ")]


class TestReadmeExamples:
    """Every ``compdiff ...`` line of the README's CLI block must parse."""

    def test_examples_cover_every_subcommand(self):
        _, commands = build_parser()
        used = {shlex.split(line)[1] for line in _readme_cli_lines()}
        assert used == set(commands)

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_example_parses(self, tmp_path, monkeypatch, capsys, line):
        monkeypatch.chdir(tmp_path)  # a relative --out would land here
        argv = shlex.split(line)[1:]
        code = main([*argv, "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 0
        assert capsys.readouterr().out == f"dry-run: {argv[0]}\n"
        assert list(tmp_path.iterdir()) == []


# the driver behind each run of the README's driver-default table
TABLE_DRIVERS = {
    "experiment smooth": experiments.run_smooth_perturbation,
    "experiment corner": experiments.run_corner_perturbation,
    "experiment weighted": experiments.run_weighted_power,
    "bidisc --kind split": experiments.bidisc_driver("split"),
    "bidisc --kind glued": experiments.bidisc_driver("glued"),
    "bidisc --kind triangular": experiments.bidisc_driver("triangular"),
}


def _exit_code(argv):
    """``main``'s exit code, also for a flag argparse does not know."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_readme_driver_table_matches_the_drivers(tmp_path, capsys):
    """Each number of the table is its driver's default; each dash is a
    keyword the driver lacks, and the flag exits 2 under --dry-run."""
    table = _readme_text().split("| run | `--alpha` | `--c` | `--N` |\n", 1)[1]
    rows = [line.strip("|").split("|")
            for line in table.split("\n\n", 1)[0].splitlines()[1:]]
    assert sorted(cell[0].strip(" `") for cell in rows) == sorted(TABLE_DRIVERS)
    for run_cell, *cells in rows:
        argv = shlex.split(run_cell.strip(" `"))
        params = inspect.signature(TABLE_DRIVERS[" ".join(argv)]).parameters
        for flag, key, cell in zip(("--alpha", "--c", "--N"),
                                   ("alpha", "c", "n_trunc"), cells):
            cell = cell.strip()
            if cell == "\u2014":
                assert key not in params, (argv, flag)
                code = _exit_code([*argv, flag, "1", "--out", str(tmp_path),
                                   "--dry-run"])
                assert code == 2, (argv, flag)
            else:
                assert params[key].default == float(cell), (argv, flag)
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_mpmath_and_scipy_unloaded():
    # mpmath loads only when a boundary value needs it; scipy is not a
    # dependency.  Either on the import path would add to every start-up.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, compdiff.cli; "
             "print([m for m in ('mpmath', 'scipy') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_READ_BLAS_THREADS = """
import ctypes, sys
from compdiff.cli import main
code = main(sys.argv[1:])
with open("/proc/self/maps") as maps:
    paths = sorted({line.split()[-1] for line in maps
                    if "openblas" in line.rsplit("/", 1)[-1]})
counts = []
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            counts.append(getter())
            break
print(code, counts)
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="reads the loaded BLAS libraries from /proc")
class TestThreads:
    """``--threads K`` reaches the BLAS library numpy has already loaded."""

    def _run(self, tmp_path, *extra):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        argv = ["spectrum", "--symbol", "dilation(a=0.5)", "--N", "16",
                "--out", str(tmp_path), *extra]
        proc = subprocess.run([sys.executable, "-c", _READ_BLAS_THREADS, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, counts = proc.stdout.strip().splitlines()[-1].split(" ", 1)
        return int(code), json.loads(counts)

    def test_flag_sets_blas_threads(self, tmp_path):
        code, counts = self._run(tmp_path, "--threads", "1")
        assert code == 0
        assert counts and all(c == 1 for c in counts)

    def test_config_file_sets_blas_threads(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
        code, counts = self._run(tmp_path, "--config", str(cfg))
        assert code == 0
        assert counts and all(c == 1 for c in counts)

    def test_no_setter_is_a_configuration_error(self, tmp_path, monkeypatch):
        from compdiff import cli, experiments

        monkeypatch.setattr(cli, "_BLAS_THREAD_SETTERS", ())
        code = run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "16"],
                   tmp_path, extra=["--threads", "1"])
        assert code == 2
        assert not (tmp_path / "spectrum.csv").exists()
