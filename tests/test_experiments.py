"""Decay fitting, experiment drivers, serialisation round trips."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import compdiff as cd
from compdiff import experiments
from compdiff.errors import WindowExceedsHorizon, ZeroInWindow
from compdiff.experiments import (DecayFit, _derive_verdicts,
                                  _measurable_window, _run_glued, _run_split,
                                  _run_triangular, fit_series, recheck)

from oracles import (difference_table_by_convolution, glued_difference_matrix,
                     kronecker_mismatch, series_power)


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

    def test_no_horizon_trusts_no_index(self):
        # a spectrum without a horizon, as a plain SVD or a CSV with an empty
        # horizon column gives it
        spectrum = cd.SingularSpectrum(0.5 ** np.arange(32.0), order=32)
        with pytest.raises(WindowExceedsHorizon, match="horizon None"):
            cd.fit_decay(spectrum, "root_exp", (2, 16))

    def test_zero_in_window(self):
        # the spectrum of C_phi - C_phi, trusted to its order
        spectrum = cd.SingularSpectrum(np.zeros(32), order=32, horizon=32)
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

    def test_one_point_window_raises(self):
        # horizon 8 leaves [8, 8] of the (8, 64) window: too few to fit
        with pytest.raises(WindowExceedsHorizon, match=r"window \(8, 64\)"):
            cd.run_smooth_perturbation(3.0, 0.005, n_trunc=80,
                                       certificates=False)

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


def _spectrum_with(horizon, floor_index, n=64):
    """sigma_n = 2^-n above the 1e-13 noise floor up to ``floor_index``,
    1e-20 past it, with the given horizon."""
    values = np.full(n, 1e-20)
    values[:floor_index] = 0.5 ** np.arange(1, floor_index + 1)
    return cd.SingularSpectrum(values, order=n, horizon=horizon)


class TestMeasurableWindow:
    def test_horizon_window_of_three_points(self):
        spectrum = _spectrum_with(horizon=18, floor_index=40)
        assert _measurable_window(spectrum, (16, 100)) == ((16, 18), False)

    def test_floor_window_is_flagged(self):
        # a horizon below the window start: the fit falls back to the
        # indices above the noise floor, four of them here
        spectrum = _spectrum_with(horizon=3, floor_index=19)
        assert experiments._floor_index(spectrum) == 19
        assert _measurable_window(spectrum, (16, 100)) == ((16, 19), True)

    def test_no_window_raises(self):
        spectrum = _spectrum_with(horizon=3, floor_index=17)
        with pytest.raises(WindowExceedsHorizon, match="up to n=17"):
            _measurable_window(spectrum, (16, 100))


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

    @pytest.mark.parametrize("n", [48, 64])
    def test_sigma64_verdict_false_below_trusted_index_64(self, n):
        # sigma_64 lies past both horizons here (and past N = 48 itself):
        # the verdict reads False instead of comparing rounding noise
        result = cd.run_corner_perturbation(0.01, n_trunc=n)
        assert result.verdicts["sigma64_separation"] is False
        assert not {"sigma64_single", "sigma64_difference"} & set(result.details)

    @pytest.mark.parametrize("horizon, expected", [(64, True), (63, False)])
    def test_sigma64_verdict_reads_trusted_values(self, horizon, expected):
        # 0.8^63 / 0.9^63 ~ 6e-4 < 1e-2, read once index 64 is trusted in both
        spectra = {
            "single": cd.SingularSpectrum(0.9 ** np.arange(128), order=128,
                                          horizon=horizon),
            "difference": cd.SingularSpectrum(0.8 ** np.arange(128), order=128,
                                              horizon=100)}
        fits = dict.fromkeys(("single_root_exp", "single_stretched",
                              "diff_stretched", "diff_root_exp"),
                             DecayFit("stretched", {}, 0.0, (1, 2)))
        verdicts = _derive_verdicts("corner_perturbation", {}, fits, spectra, {})
        assert verdicts["sigma64_separation"] is expected

    def test_write_and_recheck(self, tmp_path):
        result = cd.run_corner_perturbation(0.01, n_trunc=256)
        result.write(tmp_path)
        assert recheck(tmp_path) == result.verdicts


class TestWeightedDriver:
    # alpha = 0 is the non-compact composition operator (horizon 2); the
    # others have horizons 9 and 5 against the window start 8
    @pytest.mark.parametrize("alpha, n", [(0.0, 256), (0.3, 256), (1.0, 32)])
    def test_short_horizon_raises(self, alpha, n):
        with pytest.raises(WindowExceedsHorizon):
            cd.run_weighted_power(alpha, n_trunc=n, certificates=False)

    def test_four_point_window_is_fitted(self):
        # horizon 11: [8, 11] is fitted, not reported flat without a fit
        result = cd.run_weighted_power(1.0, n_trunc=128, certificates=False)
        assert result.details["window"] == [8, 11]
        assert result.fits["sigma_power"].window == (8, 11)
        assert result.verdicts == {"power_band": True, "zero_slope": False}

    def test_fitted_flat_slope_takes_the_zero_slope_verdict(self):
        flat = DecayFit("power", {"p": 0.05, "log_C": 0.0}, 0.5, (8, 20))
        verdicts = _derive_verdicts("weighted_power", {"alpha": 0.0},
                                    {"sigma_power": flat}, {},
                                    {"zero_slope": True})
        assert verdicts == {"zero_slope": True}

    def test_weighted_small(self):
        result = cd.run_weighted_power(1.0, n_trunc=256, certificates=False)
        assert "power_band" in result.verdicts
        assert not result.details["zero_slope"]


class TestBidiscSplit:
    def test_tensor_verdict_and_fit(self):
        result = _run_split(c=0.01, n_trunc=256)
        assert set(result.verdicts) == {"square_index_rate"}
        assert "tensor" in result.spectra
        # the dilation factor keeps the trusted tensor range wide enough
        # for the square-index rate fit
        assert "square_index_stretched" in result.fits
        assert result.verdicts["square_index_rate"]

    @pytest.mark.parametrize("n, m_top", [(256, 5), (512, 7)])
    def test_fit_reads_only_trusted_tensor_indices(self, n, m_top):
        # sigma_{m^2} is fitted for m = 3 up to the last square inside the
        # tensor's horizon (28 at N=256, 56 at N=512)
        result = _run_split(c=0.01, n_trunc=n)
        horizon = result.spectra["tensor"].horizon
        assert result.fits["square_index_stretched"].window == (3, m_top)
        ms = [m for m, _ in result.details["fit_sources"][
            "square_index_stretched"]["series"]]
        assert ms == list(range(3, m_top + 1))
        assert m_top ** 2 <= horizon < (m_top + 1) ** 2

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_factor_spectrum_is_exact(self, n):
        # C_{z/2} is diagonal with entries 2^-k: the driver records them in
        # closed form with horizon N; the doubling's SVD agrees to 1e-12
        # relative, bit for bit up to N = 64, where the 2N build that holds
        # the N block is still one np.convolve per column
        recorded = _run_split(c=0.01, n_trunc=n).spectra["factor"]
        assert recorded.values.tobytes() == (0.5 ** np.arange(n)).tobytes()
        assert recorded.horizon == recorded.order == n
        doubled = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.dilation(0.5), m), n)
        assert doubled.horizon == n
        np.testing.assert_allclose(doubled.values, recorded.values, rtol=1e-12,
                                   atol=0)
        if n <= 64:
            assert doubled.values.tobytes() == recorded.values.tobytes()

    def test_tensor_rule_matches_kronecker_svd(self):
        # the split factors at order 8, where the product matrix is cheap
        # to factor
        d = cd.difference_matrix(cd.corner_map(), cd.corner_perturbation(0.01), 8)
        f = cd.composition_matrix(cd.dilation(0.5), 8)
        sd, sf = cd.singular_spectrum(d), cd.singular_spectrum(f)
        assert 0 <= kronecker_mismatch(d.matrix, f.matrix, sd, sf) <= 1e-10

    def test_perturbed_factor_spectrum_fails_kronecker_check(self):
        d = cd.difference_matrix(cd.corner_map(), cd.corner_perturbation(0.01), 8)
        f = cd.composition_matrix(cd.dilation(0.5), 8)
        sd, sf = cd.singular_spectrum(d), cd.singular_spectrum(f)
        bumped = sf.values.copy()
        bumped[1] *= 1 + 1e-6
        mismatch = kronecker_mismatch(d.matrix, f.matrix, sd,
                                      cd.SingularSpectrum(bumped, order=8))
        assert mismatch > 1e-10

    # split N=128 has too few trusted squares for a fit, so neither run
    # records a fit source or a verdict
    @pytest.mark.parametrize("run", [
        lambda: _run_split(c=0.01, n_trunc=128),
        lambda: _run_glued(c=0.01, n_trunc=32)], ids=["split", "glued"])
    def test_recheck_round_trip(self, tmp_path, run):
        result = run()
        result.write(tmp_path)
        assert "fit_sources" not in result.details
        assert recheck(tmp_path) == result.verdicts == {}


def _series_powers(symbol, m):
    """m x m table with column j the first m coefficients of symbol**j, by
    repeated squaring (``oracles.series_power``), independent of the
    column recursion of ``oracles.power_table_by_convolution``."""
    return np.stack([series_power(symbol, j, m) for j in range(m)], axis=1)


def _restriction_gap(glued, m=8):
    """Largest gap between the z2-degree-0 block of the glued corner-pair
    matrix and the series powers: with the basis packed as
    (z1 degree) * m + (z2 degree), the block sits at rows and columns that
    are multiples of m, and its column j holds the coefficients of
    phi**j - psi**j."""
    idx = np.arange(m) * m
    oracle = (_series_powers(cd.corner_map(), m)
              - _series_powers(cd.corner_perturbation(0.01), m))
    return float(np.abs(glued[np.ix_(idx, idx)] - oracle).max())


def _glued_gap(m, weights):
    """Largest gap, relative to sigma_1, between the leading 8 singular
    values of the m^2 x m^2 glued matrix and those of the m x (2m - 1)
    difference table with column s scaled by ``weights(s)``."""
    phi, psi = cd.corner_map(), cd.corner_perturbation(0.01)
    full = np.linalg.svd(glued_difference_matrix(phi, psi, m),
                         compute_uv=False)[:8]
    table = difference_table_by_convolution(phi, psi, m, 2 * m - 1)
    scaled = np.linalg.svd(table * weights(np.arange(2 * m - 1)),
                           compute_uv=False)[:8]
    return float(np.abs(full - scaled).max() / full[0])


def _multiplicity(m):
    # the number of z1^j z2^k with j, k < m and j + k = s
    return lambda s: np.minimum(s + 1, 2 * m - 1 - s)


class TestBidiscGlued:
    @pytest.mark.parametrize("m", [8, 16])
    def test_multiplicity_identity(self, m):
        # D D* on the m^2 truncation counts the monomials of each total
        # degree, so the glued matrix has the singular values of the table
        # with column s scaled by the square root of that count
        assert _glued_gap(m, lambda s: np.sqrt(_multiplicity(m)(s))) <= 1e-10

    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("weights", ["unscaled", "counts"])
    def test_wrong_scale_fails_multiplicity_identity(self, m, weights):
        # a mispacked basis only permutes rows and columns, which the SVD
        # cannot see; a wrong column scale can be seen
        scale = {"unscaled": lambda s: np.ones_like(s),
                 "counts": _multiplicity(m)}[weights]
        assert _glued_gap(m, scale) > 1e-10

    def test_driver_uses_the_scale(self):
        phi, psi = cd.corner_map(), cd.corner_perturbation(0.01)
        scaled = (cd.difference_matrix(phi, psi, 64).matrix
                  * np.sqrt(np.arange(1, 65)))
        expected = np.linalg.svd(scaled, compute_uv=False)
        spectrum = _run_glued(c=0.01, n_trunc=64).spectra["glued"]
        assert spectrum.values.tobytes() == expected.tobytes()

    def test_restriction_identity(self):
        glued = glued_difference_matrix(cd.corner_map(),
                                        cd.corner_perturbation(0.01), 8)
        assert _restriction_gap(glued) <= 1e-12

    def test_mispacked_matrix_fails_restriction(self):
        # pack the basis as (z2 degree) * m + (z1 degree) instead: the
        # z2-degree-0 block then reads the vanishing rows
        glued = glued_difference_matrix(cd.corner_map(),
                                        cd.corner_perturbation(0.01), 8)
        perm = np.arange(64).reshape(8, 8).T.ravel()
        assert _restriction_gap(glued[np.ix_(perm, perm)]) > 1e-3

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

    def test_block_beyond_truncation_rejected_before_any_spectrum(
            self, monkeypatch):
        # the default schedule's last block is 2^7 = 128, so N=127 has no
        # sigma_128 to read; the check comes before the costly spectra
        def no_spectrum(*args, **kwargs):
            raise AssertionError("a spectrum was built")

        monkeypatch.setattr(experiments, "convergence_horizon", no_spectrum)
        with pytest.raises(ValueError, match="128 needs N >= 128, got N=127"):
            _run_triangular(c=0.01, n_trunc=127)

    def test_spectrum_shorter_than_a_block_rejected(self):
        # N0 = 64 spectra hold sigma_1 ... sigma_64, and the default
        # schedule's last block reads sigma_128
        spectra = {key: cd.convergence_horizon(build, 64) for key, build in (
            ("diff_spectrum", lambda m: cd.difference_matrix(
                cd.corner_map(), cd.corner_perturbation(0.01), m)),
            ("phi0_spectrum", lambda m: cd.composition_matrix(
                cd.corner_map(), m)),
            ("phi1_spectrum", lambda m: cd.composition_matrix(
                cd.corner_perturbation(0.01), m)))}
        with pytest.raises(ValueError, match="128 needs sigma_128, but the "
                           "difference spectrum holds 64 values"):
            cd.run_bidisc("triangular", c=0.01, n_trunc=128, **spectra)

    def test_block_past_the_sketched_values_rejected(self):
        # above N = 128 a doubling spectrum holds the 128 sketched values,
        # so K = 8 (block size 256) is refused even at N = 256
        with pytest.raises(ValueError, match="256 needs sigma_256, but the "
                           "difference spectrum holds 128 values"):
            _run_triangular(c=0.01, n_trunc=256, k_range=range(3, 9))


def _small_triangular():
    return _run_triangular(c=0.01, n_trunc=64, k_range=range(1, 4))


# every driver at a small N, with each kind of fit source it records
SMALL_DRIVERS = {
    "smooth": lambda: cd.run_smooth_perturbation(
        3.0, 0.005, 64, window=(2, 8), r_grid=(0.9, 0.99)),
    "weighted": lambda: cd.run_weighted_power(1.0, 64, window=(2, 8)),
    "corner": lambda: cd.run_corner_perturbation(0.01, n_trunc=256),
    "split": lambda: _run_split(c=0.01, n_trunc=256),
    "glued": lambda: _run_glued(c=0.01, n_trunc=32),
    "triangular": _small_triangular,
}


class TestRecheckFits:
    @pytest.mark.parametrize("driver", sorted(SMALL_DRIVERS))
    def test_recheck_rebuilds_every_fit_exactly(self, tmp_path, monkeypatch,
                                                driver):
        # the fits recheck hands to the verdicts equal the driver's own,
        # bit for bit (dataclass equality on params, r2 and window)
        result = SMALL_DRIVERS[driver]()
        result.write(tmp_path)
        seen = {}
        derive = experiments._derive_verdicts

        def spy(name, parameters, fits, spectra, details):
            seen.update(fits)
            return derive(name, parameters, fits, spectra, details)

        monkeypatch.setattr(experiments, "_derive_verdicts", spy)
        assert recheck(tmp_path) == result.verdicts
        assert seen == result.fits
        assert set(result.details.get("fit_sources", {})) == set(result.fits)
        if driver != "glued":  # the glued driver fits nothing
            assert result.fits


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

    @pytest.mark.parametrize("slot", ["details", "certificates"])
    def test_non_finite_value_raises(self, tmp_path, slot):
        # the CLI's JSON writer: standard JSON, never NaN or Infinity; every
        # file is serialised first, so not even the spectrum CSV is written
        result = cd.ExperimentResult(
            "probe", {}, spectra={"s": cd.SingularSpectrum([1.0, 0.5], 2, 2)})
        getattr(result, slot)["value"] = math.inf
        with pytest.raises(ValueError):
            result.write(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_one_function_writes(self):
        # every directory and file the package makes goes through
        # experiments._write_outputs
        writers = set()
        for path in sorted(Path(cd.__file__).parent.glob("*.py")):
            writers |= {(path.name, owner, line)
                        for owner, line in _write_calls(ast.parse(path.read_text()))}
        assert {(name, owner) for name, owner, _ in writers} == {
            ("experiments.py", "_write_outputs")}, sorted(writers)


_WRITE_CALLS = ("write_text", "write_bytes", "mkdir", "makedirs", "touch")


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(path, mode)`` or ``path.open(mode)`` with a mode that writes,
    appends or creates, or with a mode that is not a literal."""
    positional = call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    modes = positional + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or not isinstance(m.value, str)
               or set(m.value) & set("wax+") for m in modes)


def _write_calls(node, owner="<module>"):
    """(enclosing function, line) of each call under ``node`` that makes a
    directory or writes a file."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _write_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _WRITE_CALLS or (name == "open" and _opens_for_writing(child)):
                yield owner, child.lineno
        yield from _write_calls(child, owner)
