"""CLI: subcommands, exit codes, config files, output determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compdiff.cli import main
from compdiff.operators import spectrum_from_csv
from compdiff.series import dilation
from oracles import hs_parseval_sum

DATA = Path(__file__).parent / "data"


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path), *extra])


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


class TestDiffSpectrum:
    def test_diagonal_difference(self, tmp_path):
        code = run(["diff-spectrum", "--phi", "dilation(a=0.5)",
                    "--psi", "dilation(a=0.25)", "--N", "32"], tmp_path)
        assert code == 0
        spectrum = spectrum_from_csv((tmp_path / "spectrum.csv").read_text())
        assert spectrum.sigma(1) == pytest.approx(0.25, abs=1e-12)

    def test_corner_csv_bytes_pinned(self, tmp_path):
        # N=256 decides the horizon on the leading 2*N0 values; the file was
        # written when that horizon still came from a full SVD
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

    def test_upper_bound_bytes_pinned(self, tmp_path):
        code = run(["upper-bound", "--phi", "half_map",
                    "--psi", "power_perturbation(alpha=3, c=0.005)",
                    "--n", "12"], tmp_path)
        assert code == 0
        expected = (DATA / "upper_bound_n12.json").read_bytes()
        assert (tmp_path / "upper_bound.json").read_bytes() == expected

    def test_colliding_images_exit_3(self, tmp_path):
        code = run(["lower-bound", "--phi", "half_map", "--psi", "half_map",
                    "--n", "8"], tmp_path)
        assert code == 3


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

    def test_weighted_driver_bytes_pinned(self, tmp_path):
        # the multi-n certificate path of the weighted driver (n = 2..7)
        from compdiff.experiments import run_weighted_power

        run_weighted_power(1.0, 64, window=(2, 8)).write(tmp_path)
        for name in ("result.json", "certificates.json"):
            expected = (DATA / f"weighted_N64_{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == expected, name

    def test_fit_subcommand(self, tmp_path, capsys):
        run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "32"], tmp_path)
        capsys.readouterr()  # drain the spectrum run's output
        code = main(["fit", "--csv", str(tmp_path / "spectrum.csv"),
                     "--model", "root_exp", "--window", "2:16"])
        assert code == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["model"] == "root_exp" and 0 <= fit["r2"] <= 1

    def test_bidisc_glued(self, tmp_path, capsys):
        code = run(["bidisc", "--kind", "glued", "--N", "32"], tmp_path)
        assert code == 0
        assert "restriction_identity" in capsys.readouterr().out

    def test_bidisc_split(self, tmp_path, capsys):
        code = run(["bidisc", "--kind", "split", "--N", "128"], tmp_path)
        assert code == 0
        assert "tensor_products_exact" in capsys.readouterr().out

    def test_experiment_weighted_small(self, tmp_path, capsys):
        code = run(["experiment", "weighted", "--alpha", "1", "--N", "256"],
                   tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "power_band" in out or "zero_slope" in out


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
    def test_certificates_bytes_pinned(self, tmp_path):
        # the r optimiser keeps the grid order and the first minimum, so the
        # certificates of a fixed configuration never change
        code = run(["weighted", "--omega", "weight_power(alpha=1)",
                    "--phi", "half_map", "--N", "64", "--n", "8"], tmp_path)
        assert code == 0
        expected = (Path(__file__).parent / "data"
                    / "weighted_certificates_N64_n8.json").read_text()
        assert (tmp_path / "certificates.json").read_text() == expected


class TestDryRunEverywhere:
    def test_every_subcommand_has_dry_run(self, tmp_path):
        commands = [
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
        for argv in commands:
            code = main([*argv, "--out", str(tmp_path), "--dry-run"])
            assert code == 0, argv
        assert list(tmp_path.iterdir()) == []


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
        from compdiff import cli

        monkeypatch.setattr(cli, "_BLAS_THREAD_SETTERS", ())
        code = run(["spectrum", "--symbol", "dilation(a=0.5)", "--N", "16"],
                   tmp_path, extra=["--threads", "1"])
        assert code == 2
        assert not (tmp_path / "spectrum.csv").exists()
