"""Matrix truncations, spectra, tensor products, horizons, CSV export."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

import compdiff as cd
from compdiff import operators
from compdiff.errors import (BoundaryFixedOrigin, HorizonExceeded, NotSelfMap,
                             NumericalBreakdown)
from compdiff.series import IntPower, Symbol

RNG_SEED = 911


class TestCompositionMatrix:
    def test_identity(self):
        op = cd.composition_matrix(cd.identity(), 3)
        np.testing.assert_allclose(op.matrix, np.eye(3), atol=1e-15)

    def test_dilation_diagonal(self):
        a = 0.4 + 0.3j
        op = cd.composition_matrix(cd.dilation(a), 6)
        np.testing.assert_allclose(op.matrix, np.diag([a ** k for k in range(6)]),
                                   atol=1e-14)

    def test_constant_first_row(self):
        op = cd.composition_matrix(cd.constant(0.5), 3)
        np.testing.assert_allclose(op.matrix[0], [1, 0.5, 0.25], atol=1e-15)
        assert np.abs(op.matrix[1:]).max() == 0

    def test_not_self_map(self):
        with pytest.raises(NotSelfMap):
            cd.composition_matrix(cd.dilation(2), 8)

    def test_columns_match_series_powers(self):
        # column k must equal the series-module expansion of phi^k
        for symbol, n in ((cd.corner_map(), 96), (cd.half_map(), 160),
                          (cd.power_perturbation(3, 0.005), 96)):
            op = cd.composition_matrix(symbol, n)
            for k in (0, 1, 2, 5, n // 2, n - 1):
                expected = cd.taylor_array(
                    Symbol("p", IntPower(symbol.expr, k)), n)
                np.testing.assert_allclose(op.matrix[:, k], expected,
                                           atol=1e-12, err_msg=f"{symbol.name} k={k}")


    @pytest.mark.parametrize("n", [64, 256])  # convolve and FFT paths
    def test_real_symbols_build_float64(self, n):
        ops = [cd.composition_matrix(cd.corner_map(), n),
               cd.composition_matrix(cd.half_map(), n),
               cd.weighted_composition_matrix(cd.weight_power(2),
                                              cd.dilation(0.5), n)]
        for op in ops:
            assert op.matrix.dtype == np.float64, op.symbol_name

    @pytest.mark.parametrize("n", [64, 256])
    def test_complex_symbols_build_complex128(self, n):
        ops = [cd.composition_matrix(cd.power_perturbation(3, 0.005), n),
               cd.composition_matrix(cd.dilation(0.4 + 0.3j), n),
               cd.difference_matrix(cd.half_map(), cd.dilation(0.4 + 0.3j), n)]
        for op in ops:
            assert op.matrix.dtype == np.complex128, op.symbol_name

    def test_no_copy_of_float64_or_complex128(self):
        for dtype in (np.float64, np.complex128):
            m = np.eye(4, dtype=dtype)
            op = cd.TruncatedOperator(m, "eye")
            assert op.matrix.dtype == dtype
            assert np.shares_memory(op.matrix, m)
        as_int = cd.TruncatedOperator(np.eye(4, dtype=int), "eye")
        assert as_int.matrix.dtype == np.complex128

    @pytest.mark.parametrize("n", [64, 256])
    def test_difference_equals_difference_of_compositions(self, n):
        # real - real, real - complex and complex - real
        for phi, psi in ((cd.corner_map(), cd.corner_perturbation(0.01)),
                         (cd.half_map(), cd.power_perturbation(3, 0.005)),
                         (cd.power_perturbation(3, 0.005), cd.half_map())):
            a = cd.composition_matrix(phi, n).matrix
            b = cd.composition_matrix(psi, n).matrix
            d = cd.difference_matrix(phi, psi, n).matrix
            assert d.dtype == np.result_type(a, b)
            assert np.array_equal(d, a - b)
            assert not d.flags.writeable


def _composition_columns(phi, n):
    """Power table of phi at order n, built on its own."""
    return cd.composition_matrix(phi, n).matrix


_DTYPE_PAIRS = {
    "real-real": (cd.corner_map(), cd.half_map()),
    "real-complex": (cd.corner_map(), cd.power_perturbation(3, 0.005)),
    "complex-real": (cd.power_perturbation(3, 0.005), cd.half_map()),
    "complex-complex": (cd.power_perturbation(3, 0.005), cd.dilation(0.4 + 0.3j)),
}


class TestOneBufferDifference:
    @pytest.mark.parametrize("n", [64, 300])  # convolve and FFT paths
    @pytest.mark.parametrize("pair", list(_DTYPE_PAIRS))
    def test_bytes_equal_two_tables_subtracted(self, pair, n):
        phi, psi = _DTYPE_PAIRS[pair]
        expected = _composition_columns(phi, n) - _composition_columns(psi, n)
        got = cd.difference_matrix(phi, psi, n).matrix
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_peak_memory_is_one_buffer(self):
        phi, psi, n = cd.half_map(), cd.power_perturbation(3, 0.005), 1024
        tracemalloc.start()
        try:
            op = cd.difference_matrix(phi, psi, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffer = n * n * np.dtype(complex).itemsize
        assert op.matrix.dtype == np.complex128
        # two power tables held at once (the old build) peak at 1.5 buffers
        assert peak < 1.25 * buffer


class TestWeightedMatrix:
    def test_unit_weight_reduces(self):
        w = cd.weighted_composition_matrix(cd.weight_power(0), cd.half_map(), 16)
        c = cd.composition_matrix(cd.half_map(), 16)
        np.testing.assert_allclose(w.matrix, c.matrix, atol=1e-14)

    def test_shift(self):
        w = cd.weighted_composition_matrix(cd.identity(), cd.identity(), 3)
        np.testing.assert_allclose(w.matrix, np.diag([1, 1], -1), atol=1e-15)

    def test_one_minus_z_times_dilation(self):
        a = 0.5
        w = cd.weighted_composition_matrix(cd.weight_power(1), cd.dilation(a), 3)
        expected = np.array([[1, 0, 0], [-1, a, 0], [0, -a, a ** 2]],
                            dtype=complex)
        np.testing.assert_allclose(w.matrix, expected, atol=1e-14)


class TestSpectra:
    def test_identity_all_ones(self):
        s = cd.singular_spectrum(cd.composition_matrix(cd.identity(), 4))
        np.testing.assert_allclose(s.values, np.ones(4), atol=1e-12)

    def test_dilation_geometric(self):
        s = cd.singular_spectrum(cd.composition_matrix(cd.dilation(0.5), 4))
        np.testing.assert_allclose(s.values, [1, 0.5, 0.25, 0.125], atol=1e-12)

    def test_constant_rank_one(self):
        s = cd.singular_spectrum(cd.composition_matrix(cd.constant(0.5), 64))
        assert s.sigma(1) == pytest.approx((1 - 0.25) ** -0.5, abs=1e-10)
        assert s.sigma(2) < 1e-12

    def test_difference_diagonal(self):
        s = cd.difference_spectrum(cd.dilation(0.5), cd.dilation(0.25), 4)
        np.testing.assert_allclose(s.values, [0.25, 0.1875, 0.109375, 0],
                                   atol=1e-14)

    def test_structural_zero(self):
        s = cd.difference_spectrum(cd.half_map(), cd.half_map(), 8)
        assert np.all(s.values == 0) and s.horizon == 8

    def test_near_identity_sanity(self):
        s = cd.difference_spectrum(cd.identity(), cd.dilation(0.999), 64)
        bound = (cd.operator_norm_bound(cd.identity())
                 + cd.operator_norm_bound(cd.dilation(0.999)))
        assert s.sigma(1) <= bound

    @pytest.mark.parametrize("n", [64, 256])  # convolve and FFT paths
    def test_real_svd_matches_complex_svd(self, n):
        # a backward-stable SVD moves each value by O(eps * sigma_1), so the
        # real and complex SVDs agree relatively only where sigma_n is not tiny
        ops = [cd.composition_matrix(cd.corner_map(), n),
               cd.composition_matrix(cd.half_map(), n),
               cd.difference_matrix(cd.corner_map(),
                                    cd.corner_perturbation(0.01), n),
               cd.weighted_composition_matrix(cd.weight_power(1),
                                              cd.half_map(), n)]
        for op in ops:
            real = cd.singular_spectrum(op).values
            cplx = np.linalg.svd(op.matrix.astype(complex), compute_uv=False)
            np.testing.assert_allclose(real, cplx, rtol=1e-13,
                                       atol=1e-13 * cplx[0],
                                       err_msg=op.symbol_name)

    def test_non_increasing(self):
        s = cd.singular_spectrum(cd.composition_matrix(cd.half_map(), 64))
        assert np.all(np.diff(s.values) <= 1e-12)


class TestErrorPaths:
    def test_non_finite_matrix_breaks_down(self):
        bad = cd.TruncatedOperator(np.full((3, 3), np.nan, dtype=complex), "bad")
        with pytest.raises(NumericalBreakdown):
            cd.singular_spectrum(bad)

    def test_unbounded_weight_rejected(self):
        from compdiff.errors import NonFinite
        with pytest.raises(NonFinite):
            cd.weighted_composition_matrix(cd.weight_power(-1.0),
                                           cd.half_map(), 8)


class TestNormBound:
    def test_values(self):
        assert cd.operator_norm_bound(cd.dilation(0.7)) == 1.0
        assert cd.operator_norm_bound(cd.half_map()) == pytest.approx(
            math.sqrt(3), abs=1e-14)
        assert cd.operator_norm_bound(cd.constant(0.9)) == pytest.approx(
            math.sqrt(19), abs=1e-12)

    def test_boundary_origin(self):
        with pytest.raises(BoundaryFixedOrigin):
            cd.operator_norm_bound(cd.constant(1.0))


class TestTensor:
    def test_two_by_two(self):
        s = cd.SingularSpectrum(np.array([1, 0.5]), order=2, horizon=2)
        t = cd.SingularSpectrum(np.array([1, 0.5]), order=2, horizon=2)
        out = cd.tensor_spectrum(s, t, 4)
        np.testing.assert_allclose(out.values, [1, 0.5, 0.5, 0.25])

    def test_short_factor(self):
        s = cd.SingularSpectrum(np.array([1.0]), order=1)
        t = cd.SingularSpectrum(np.array([0.3, 0.2]), order=2)
        out = cd.tensor_spectrum(s, t, 10)
        np.testing.assert_allclose(out.values, [0.3, 0.2])

    def test_product_lower_bound_brute(self):
        rng = np.random.default_rng(RNG_SEED)
        s = cd.SingularSpectrum(np.sort(rng.uniform(0, 1, 12))[::-1], order=12)
        t = cd.SingularSpectrum(np.sort(rng.uniform(0, 1, 12))[::-1], order=12)
        out = cd.tensor_spectrum(s, t, 144)
        for m in range(1, 13):
            for n in range(1, 13):
                assert out.values[m * n - 1] >= s.values[m - 1] * t.values[n - 1] - 1e-15

    def test_matches_explicit_kronecker(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        b = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
        sa = np.linalg.svd(a, compute_uv=False)
        sb = np.linalg.svd(b, compute_uv=False)
        direct = np.linalg.svd(np.kron(a, b), compute_uv=False)
        via = cd.tensor_spectrum(
            cd.SingularSpectrum(sa, order=12),
            cd.SingularSpectrum(sb, order=14), 12 * 14)
        np.testing.assert_allclose(via.values, direct, atol=1e-10)


class TestHorizon:
    def test_identity_full(self):
        s = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.identity(), m), 16)
        assert s.horizon == 16

    def test_dilation_full(self):
        s = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.dilation(0.5), m), 16)
        assert s.horizon == 16

    def test_half_map_stabilises_positive(self):
        s = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.half_map(), m), 64)
        assert s.horizon >= 1
        assert s.values[: s.horizon].min() > 0.4  # non-compact tail

    def test_sigma_checked(self):
        s = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.dilation(0.5), m), 16)
        assert s.sigma_checked(16) == pytest.approx(0.5 ** 15)
        with pytest.raises(HorizonExceeded):
            s.sigma_checked(17)

    def test_minimum_order(self):
        with pytest.raises(ValueError):
            cd.convergence_horizon(
                lambda m: cd.composition_matrix(cd.identity(), m), 8)


def _full_svd_horizon(small, big):
    """The horizon scan against a full SVD of the 2*N0 matrix."""
    full = np.linalg.svd(big, compute_uv=False)
    floor = 1e-14 * max(full[0], 1e-300)
    horizon = 0
    for a, b in zip(small, full):
        if abs(a - b) > 1e-2 * max(b, floor):
            break
        horizon += 1
    return horizon, full


def _diagonal_build(values_at):
    return lambda m: cd.TruncatedOperator(np.diag(values_at(m)), "diag")


_CORNER_PAIR = (cd.corner_map(), cd.corner_perturbation(0.01))
CERTIFIED_CASES = {
    "corner single": lambda m: cd.composition_matrix(_CORNER_PAIR[0], m),
    "corner perturbed": lambda m: cd.composition_matrix(_CORNER_PAIR[1], m),
    "corner diff": lambda m: cd.difference_matrix(*_CORNER_PAIR, m),
    **{f"smooth {alpha}": (lambda m, alpha=alpha: cd.difference_matrix(
        cd.half_map(), cd.power_perturbation(alpha, 0.005), m))
       for alpha in (2.5, 3.0, 4.0)},
    **{f"weighted {alpha}": (lambda m, alpha=alpha: cd.weighted_composition_matrix(
        cd.weight_power(alpha), cd.half_map(), m))
       for alpha in (1.0, 2.0)},
}


def _spy_on_spectra(mp):
    """Record the sketch sizes and the SVD orders convergence_horizon uses."""
    calls = {"leading": [], "svd": []}
    real_leading = operators._leading_values
    real_svd = operators.singular_spectrum

    def spy_leading(matrix, k):
        out = real_leading(matrix, k)
        calls["leading"].append((k, out))
        return out

    def spy_svd(op):
        calls["svd"].append(op.order)
        return real_svd(op)

    mp.setattr(operators, "_leading_values", spy_leading)
    mp.setattr(operators, "singular_spectrum", spy_svd)
    return calls


@pytest.fixture(scope="module")
def certified_runs():
    """convergence_horizon at N0 = 256 and 512, against a full 2*N0 SVD."""
    runs = {}
    for n0 in (256, 512):
        for name, build in CERTIFIED_CASES.items():
            with pytest.MonkeyPatch.context() as mp:
                calls = _spy_on_spectra(mp)
                spectrum = cd.convergence_horizon(build, n0)
            horizon, full = _full_svd_horizon(spectrum.values,
                                              build(2 * n0).matrix)
            runs[name, n0] = (spectrum, calls, horizon, full)
    return runs


class TestCertifiedHorizon:
    @pytest.mark.parametrize("n0", [256, 512])
    @pytest.mark.parametrize("name", list(CERTIFIED_CASES))
    def test_horizon_equals_full_svd_path(self, certified_runs, name, n0):
        spectrum, calls, horizon, _ = certified_runs[name, n0]
        assert spectrum.horizon == horizon
        # decided on the first sketch, without an SVD of the 2*N0 matrix
        assert [k for k, _ in calls["leading"]] == [operators._SKETCH_RANK]
        assert calls["svd"] == [n0]

    @pytest.mark.parametrize("n0", [256, 512])
    @pytest.mark.parametrize("name", list(CERTIFIED_CASES))
    def test_full_svd_values_inside_weyl_intervals(self, certified_runs,
                                                   name, n0):
        _, calls, _, full = certified_runs[name, n0]
        (k, (s, e)), = calls["leading"]
        slack = 1e-13 * full[0]
        assert np.all(full[:k] >= s - slack)
        assert np.all(full[:k] <= np.sqrt(s ** 2 + e ** 2) + slack)
        assert np.all(full[k:] <= e + slack)

    def test_complex_and_real_sketches(self):
        rng = np.random.default_rng(RNG_SEED)
        u = np.linalg.qr(rng.normal(size=(300, 300))
                         + 1j * rng.normal(size=(300, 300)))[0]
        values = 0.9 ** np.arange(300)
        for matrix in (u * values, np.real(u) * values):
            s, e = operators._leading_values(matrix, 128)
            full = np.linalg.svd(matrix, compute_uv=False)
            assert s.dtype == np.float64 and len(s) == 128
            assert np.all(full[:128] >= s - 1e-13)
            assert np.all(full[:128] <= np.sqrt(s ** 2 + e ** 2) + 1e-13)

    def test_slow_tail_falls_back(self, monkeypatch):
        calls = _spy_on_spectra(monkeypatch)

        def values_at(m):
            # a flat tail of 1e-3 past index 128 and the same values at both
            # orders: the first 128 comparisons pass, and at index 129 the
            # interval [0, e] holds sigma_129 while failing at both ends, so
            # the fallback runs on the 2*N0 matrix
            v = np.full(m, 1e-3)
            v[:128] = 0.99 ** np.arange(128)
            return v

        spectrum = cd.convergence_horizon(_diagonal_build(values_at), 256)
        assert [k for k, _ in calls["leading"]] == [128]
        assert calls["svd"] == [256, 512]
        assert spectrum.horizon == 256

    @pytest.mark.parametrize("n0", [256, 512])
    def test_dilation_falls_back_after_one_sketch(self, monkeypatch, n0):
        # exact truncations: sigma_n = 0.5**n at both orders, so the passes
        # reach below the level (about 1e-11 sigma_1) where the rounding
        # slack lets a pass be certified; one sketch, then the full SVD
        calls = _spy_on_spectra(monkeypatch)
        build = lambda m: cd.composition_matrix(cd.dilation(0.5), m)
        spectrum = cd.convergence_horizon(build, n0)
        assert [k for k, _ in calls["leading"]] == [operators._SKETCH_RANK]
        assert calls["svd"] == [n0, 2 * n0]
        horizon, _ = _full_svd_horizon(spectrum.values, build(2 * n0).matrix)
        assert spectrum.horizon == horizon > 37

    def test_non_finite_2n0_matrix_raises(self):
        def values_at(m):
            v = np.ones(m)
            v[-1] = np.nan if m == 512 else 1.0
            return v

        with pytest.raises(NumericalBreakdown):
            cd.convergence_horizon(_diagonal_build(values_at), 256)

    def test_deterministic_and_leaves_global_rng_alone(self):
        build = CERTIFIED_CASES["corner diff"]
        np.random.seed(RNG_SEED)
        state = np.random.get_state()
        first = cd.convergence_horizon(build, 256)
        second = cd.convergence_horizon(build, 256)
        assert first.horizon == second.horizon == 6
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]


def _sequential_horizon(build, n0):
    """The N0 SVD, then the 2*N0 build, one after the other on this thread."""
    small = cd.singular_spectrum(build(n0))
    horizon, _ = _full_svd_horizon(small.values, build(2 * n0).matrix)
    return small.values, horizon


class TestOverlap:
    @pytest.mark.parametrize("name", ["corner diff", "smooth 3.0"])
    def test_matches_sequential_oracle(self, name):
        build = CERTIFIED_CASES[name]
        spectrum = cd.convergence_horizon(build, 256)
        values, horizon = _sequential_horizon(build, 256)
        assert spectrum.values.tobytes() == values.tobytes()
        assert spectrum.horizon == horizon

    def test_2n0_build_error_propagates_and_worker_ends(self):
        def build(m):
            if m == 512:
                raise RuntimeError("2*N0 build failed")
            return cd.composition_matrix(cd.half_map(), m)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="2\\*N0 build failed"):
            cd.convergence_horizon(build, 256)
        assert threading.active_count() == before

    def test_n0_svd_error_wins_over_2n0_build_error(self):
        def build(m):
            if m == 512:
                raise RuntimeError("2*N0 build failed")
            return cd.TruncatedOperator(np.full((m, m), np.nan), "nan")

        before = threading.active_count()
        with pytest.raises(NumericalBreakdown):
            cd.convergence_horizon(build, 256)
        assert threading.active_count() == before


class TestAlgebra:
    def test_semigroup_dilation(self):
        a = 0.6
        n = 64
        once = cd.composition_matrix(cd.dilation(a), n).matrix
        twice = cd.composition_matrix(cd.dilation(a * a), n).matrix
        prod = once @ once
        np.testing.assert_allclose(prod[: n // 2, : n // 2],
                                   twice[: n // 2, : n // 2], atol=1e-8)

    def test_semigroup_mobius_involution(self):
        # column mass of tau^k spreads to rows ~ k(1+a)/(1-a); the leading
        # N/2 block is truncation-clean once that factor stays below 2
        tau = cd.mobius(0.2)
        n = 128
        m = cd.composition_matrix(tau, n).matrix
        prod = m @ m
        np.testing.assert_allclose(prod[: n // 2, : n // 2],
                                   np.eye(n // 2), atol=1e-8)

    def test_parseval_frobenius_identity(self):
        phi, psi = cd.half_map(), cd.dilation(0.5)
        n = 64
        d = cd.difference_matrix(phi, psi, n).matrix
        total = 0.0
        for k in range(n):
            a = cd.taylor_array(Symbol("a", IntPower(phi.expr, k)), n)
            b = cd.taylor_array(Symbol("b", IntPower(psi.expr, k)), n)
            total += float(np.sum(np.abs(a - b) ** 2))
        assert float(np.linalg.norm(d) ** 2) == pytest.approx(total, rel=1e-10)

    def test_sigma_monotone_in_truncation(self):
        for symbol in (cd.half_map(), cd.corner_map()):
            small = cd.singular_spectrum(cd.composition_matrix(symbol, 64))
            big = cd.singular_spectrum(cd.composition_matrix(symbol, 128))
            assert np.all(big.values[:64] >= small.values - 1e-10)


class TestCsv:
    def test_round_trip(self):
        s = cd.convergence_horizon(
            lambda m: cd.composition_matrix(cd.dilation(0.5), m), 16)
        text = cd.spectrum_to_csv(s)
        lines = text.strip().splitlines()
        assert lines[0] == "n,sigma,N,horizon"
        assert len(lines) == 17
        back = cd.spectrum_from_csv(text)
        np.testing.assert_allclose(back.values, s.values, rtol=1e-16)
        assert back.order == 16 and back.horizon == s.horizon

    def test_17_significant_digits(self):
        s = cd.SingularSpectrum(np.array([1 / 3]), order=1, horizon=1)
        text = cd.spectrum_to_csv(s)
        assert "0.33333333333333331" in text
