"""Decay fitting, experiment drivers, serialisation round trips."""

import json
import math

import numpy as np
import pytest

import compdiff as cd
from compdiff import experiments
from compdiff.errors import WindowExceedsHorizon, ZeroInWindow
from compdiff.experiments import (_derive_verdicts, _kronecker_mismatch,
                                  _run_glued, _run_split, _run_triangular,
                                  fit_series, glued_difference_matrix, recheck)


class TestFitModels:
    def test_power_exact(self):
        ns = np.arange(4, 50)
        fit = fit_series(ns, 3.0 * ns ** -2.0, "power")
        assert fit.params["p"] == pytest.approx(2.0, abs=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.params["log_C"]) == pytest.approx(3.0, rel=1e-8)

    def test_root_exp_exact(self):
        ns = np.arange(4, 80)
        fit = fit_series(ns, np.exp(-0.3 * np.sqrt(ns)), "root_exp")
        assert fit.params["c"] == pytest.approx(0.3, abs=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_stretched_exact(self):
        ns = np.arange(4, 80)
        fit = fit_series(ns, 2.0 * np.exp(-0.7 * ns / np.log(ns)), "stretched")
        assert fit.params["c"] == pytest.approx(0.7, abs=1e-8)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_power_log_exact(self):
        ns = np.arange(4, 60)
        vals = 5.0 * np.log(ns) ** 2 * ns ** -1.5
        fit = fit_series(ns, vals, "power_log", q=2.0)
        assert fit.params["p"] == pytest.approx(1.5, abs=1e-8)

    def test_root_n_over_log_exact(self):
        ns = np.arange(8, 120)
        vals = np.exp(-1.3 * np.sqrt(ns / np.log(ns)))
        fit = fit_series(ns, vals, "root_n_over_log")
        assert fit.params["c"] == pytest.approx(1.3, abs=1e-8)

    def test_log_pollution_shifts_power_exponent(self):
        # sigma = (log n)/n fitted as a pure power on [8, 64]: the measured
        # exponent drops below 1 by the log drift (frozen from the regression)
        ns = np.arange(8, 65)
        fit = fit_series(ns, np.log(ns) / ns, "power")
        assert fit.params["p"] == pytest.approx(0.6849, abs=1e-3)
        assert 0.6 < fit.params["p"] < 1.0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_series(np.arange(4, 20), np.ones(16), "cubic_spline")


class TestFitDecay:
    def _spectrum(self):
        return cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.dilation(0.5), m), 32)

    def test_geometric_spectrum(self):
        fit = cd.fit_decay(self._spectrum(), "root_exp", (2, 16))
        assert fit.r2 > 0.9

    def test_window_exceeds_horizon(self):
        spectrum = self._spectrum()
        with pytest.raises(WindowExceedsHorizon):
            cd.fit_decay(spectrum, "power", (8, 64))

    def test_zero_in_window(self):
        spectrum = cd.difference_spectrum(cd.half_map(), cd.half_map(), 32)
        with pytest.raises(ZeroInWindow):
            cd.fit_decay(spectrum, "power", (2, 8))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            cd.fit_decay(self._spectrum(), "power", (1, 8))


class TestSmoothDriver:
    def test_structure_small(self):
        result = cd.run_smooth_perturbation(3.0, 0.005, n_trunc=128,
                                            certificates=False)
        assert result.name == "smooth_perturbation"
        assert "sigma_power" in result.fits
        assert "power_band" in result.verdicts
        assert result.details["window"][0] == 8

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            cd.run_smooth_perturbation(1.5, 0.005, n_trunc=64)

    def test_write_and_recheck(self, tmp_path):
        result = cd.run_smooth_perturbation(3.0, 0.005, n_trunc=128,
                                            certificates=False)
        result.write(tmp_path)
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "spectrum.csv").exists()
        assert recheck(tmp_path) == result.verdicts

    def test_byte_identical_outputs(self, tmp_path):
        a = cd.run_smooth_perturbation(3.0, 0.005, n_trunc=128,
                                       certificates=False)
        b = cd.run_smooth_perturbation(3.0, 0.005, n_trunc=128,
                                       certificates=False)
        a.write(tmp_path / "a")
        b.write(tmp_path / "b")
        assert ((tmp_path / "a" / "result.json").read_bytes()
                == (tmp_path / "b" / "result.json").read_bytes())
        assert ((tmp_path / "a" / "spectrum.csv").read_bytes()
                == (tmp_path / "b" / "spectrum.csv").read_bytes())


class TestCornerDriver:
    def test_structure_and_fallback_windows(self, tmp_path):
        # corner truncations cannot host the asymptotic windows; the driver
        # falls back to noise-floor windows and says so
        result = cd.run_corner_perturbation(0.01, n_trunc=256)
        assert set(result.fits) == {"single_root_exp", "single_stretched",
                                    "diff_root_exp", "diff_stretched"}
        assert set(result.verdicts) == {
            "diff_stretched_r2", "diff_stretched_beats_root_exp",
            "single_root_exp_r2", "single_root_exp_beats_stretched",
            "sigma64_separation"}
        assert result.details["window_exceeds_horizon_single"]
        for fit in result.fits.values():
            assert 0 <= fit.r2 <= 1
        # the trusted separation stays inside the difference's horizon and
        # above its noise floor
        details = result.details
        sep = details["trusted_separation"]
        assert set(sep) == {"n_a", "n_b", "rho_n_a", "rho_n_b"}
        diff = result.spectra["difference"]
        assert 1 <= sep["n_b"] <= diff.horizon
        assert sep["n_b"] <= details["floor_index_diff"]
        floor = 1e-13 * diff.sigma(1)
        assert diff.sigma(details["floor_index_diff"]) > floor
        assert diff.sigma(details["floor_index_diff"] + 1) <= floor
        assert details["window_diff"][1] <= details["floor_index_diff"]
        assert details["window_single"][1] <= details["floor_index_single"]
        single = result.spectra["single"]
        assert sep["rho_n_b"] == diff.sigma(sep["n_b"]) / single.sigma(sep["n_b"])
        result.write(tmp_path)
        assert recheck(tmp_path) == result.verdicts

    def test_write_and_recheck(self, tmp_path):
        result = cd.run_corner_perturbation(0.01, n_trunc=256)
        result.write(tmp_path)
        assert recheck(tmp_path) == result.verdicts


class TestWeightedDriver:
    def test_zero_slope_path(self):
        # the unit weight leaves the non-compact composition operator: a flat
        # spectrum head whose fitted power slope is ~0
        result = cd.run_weighted_power(0.0, n_trunc=256)
        assert result.verdicts == {"zero_slope": True}
        assert result.details["zero_slope"]

    def test_weighted_small(self):
        result = cd.run_weighted_power(1.0, n_trunc=256, certificates=False)
        assert "power_band" in result.verdicts
        assert not result.details["zero_slope"]


class TestBidiscSplit:
    def test_tensor_verdict_and_fit(self):
        result = _run_split(c=0.01, n_trunc=256, count=1024)
        assert result.verdicts["tensor_products_exact"]
        assert "tensor" in result.spectra
        # the dilation factor keeps the trusted tensor range wide enough
        # for the square-index rate fit
        assert "square_index_stretched" in result.fits
        assert result.verdicts["square_index_rate"]

    def test_kronecker_check_recorded(self):
        result = _run_split(c=0.01, n_trunc=128, count=512)
        assert 0 <= result.details["kronecker_max_mismatch"] <= 1e-10

    def test_perturbed_factor_spectrum_fails_kronecker_check(self):
        d = cd.difference_matrix(cd.corner_map(), cd.corner_perturbation(0.01), 8)
        f = cd.composition_matrix(cd.dilation(0.5), 8)
        sd, sf = cd.singular_spectrum(d), cd.singular_spectrum(f)
        assert _kronecker_mismatch(d.matrix, f.matrix, sd, sf) <= 1e-10
        bumped = sf.values.copy()
        bumped[1] *= 1 + 1e-6
        mismatch = _kronecker_mismatch(d.matrix, f.matrix, sd,
                                       cd.SingularSpectrum(bumped, order=8))
        assert mismatch > 1e-10
        verdicts = _derive_verdicts("bidisc_split", {}, {}, {},
                                    {"kronecker_max_mismatch": mismatch})
        assert verdicts == {"tensor_products_exact": False}

    def test_recheck_round_trip(self, tmp_path):
        result = _run_split(c=0.01, n_trunc=128, count=512)
        result.write(tmp_path)
        assert recheck(tmp_path) == result.verdicts


class TestBidiscGlued:
    def test_restriction_identity(self):
        result = _run_glued(c=0.01, n_trunc=32, check_order=8)
        assert result.verdicts["restriction_identity"]
        assert result.details["restriction_max_error"] <= 1e-12

    def test_mispacked_matrix_fails_restriction(self, monkeypatch):
        # pack the basis as (z2 degree) * m + (z1 degree) instead: the
        # z2-degree-0 block then reads the vanishing rows
        def mispacked(phi, psi, m):
            perm = np.arange(m * m).reshape(m, m).T.ravel()
            return glued_difference_matrix(phi, psi, m)[np.ix_(perm, perm)]

        monkeypatch.setattr(experiments, "glued_difference_matrix", mispacked)
        result = _run_glued(c=0.01, n_trunc=32, check_order=8)
        assert not result.verdicts["restriction_identity"]
        assert result.details["restriction_max_error"] > 1e-3

    def test_glued_matrix_shape(self):
        m = glued_difference_matrix(cd.corner_map(), cd.corner_perturbation(0.01), 4)
        assert m.shape == (16, 16)
        # rows with z2-degree > 0 vanish identically
        mask = np.ones(16, dtype=bool)
        mask[np.arange(4) * 4] = False
        assert np.abs(m[mask]).max() == 0


class TestBidiscTriangular:
    def test_small_schedule(self):
        phi0, phi1 = cd.corner_map(), cd.corner_perturbation(0.01)
        diff = cd.convergence_horizon(
            lambda m: cd.difference_matrix(phi0, phi1, m), 64)
        s0 = cd.convergence_horizon(
            lambda m: cd.composition_matrix(phi0, m), 64)
        s1 = cd.convergence_horizon(
            lambda m: cd.composition_matrix(phi1, m), 64)
        result = _run_triangular(c=0.01, n_trunc=64, k_range=range(1, 4),
                                 diff_spectrum=diff, phi0_spectrum=s0,
                                 phi1_spectrum=s1)
        assert "bound_vs_sqrt_n_log" in result.fits
        series = result.details["bound_series"]
        assert [n for n, _ in series] == [2 * 2 - 1, 3 * 4 - 2, 4 * 8 - 3]
        # bound values decrease with K (geometric tail dominates)
        values = [v for _, v in series]
        assert values[0] > values[1] > values[2]

    def test_recheck_round_trip(self, tmp_path):
        phi0, phi1 = cd.corner_map(), cd.corner_perturbation(0.01)
        diff = cd.convergence_horizon(
            lambda m: cd.difference_matrix(phi0, phi1, m), 64)
        s0 = cd.convergence_horizon(
            lambda m: cd.composition_matrix(phi0, m), 64)
        s1 = cd.convergence_horizon(
            lambda m: cd.composition_matrix(phi1, m), 64)
        result = _run_triangular(c=0.01, n_trunc=64, k_range=range(1, 4),
                                 diff_spectrum=diff, phi0_spectrum=s0,
                                 phi1_spectrum=s1)
        result.write(tmp_path)
        assert recheck(tmp_path) == result.verdicts


class TestResultPayload:
    def test_certificates_written(self, tmp_path):
        result = cd.run_smooth_perturbation(3.0, 0.005, n_trunc=128,
                                            certificates=False)
        result.certificates = {"lower": [{"n": 4, "value_constant_free": 0.1}]}
        result.write(tmp_path)
        certs = json.loads((tmp_path / "certificates.json").read_text())
        assert certs["lower"][0]["n"] == 4

    def test_result_json_fields(self, tmp_path):
        result = cd.run_smooth_perturbation(3.0, 0.005, n_trunc=128,
                                            certificates=False)
        result.write(tmp_path)
        payload = json.loads((tmp_path / "result.json").read_text())
        for key in ("name", "parameters", "fits", "verdicts", "details",
                    "spectra_files"):
            assert key in payload
