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
from oracles import (leading_values_one_sketch, power_table_by_convolution,
                     tensor_values_walk)

RNG_SEED = 911
_B = operators._BLOCK  # columns per block of the FFT power build


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
        # column k must equal the series-module expansion of phi^k; the FFT
        # orders (n > 128) are also read at the edges of the column blocks
        for symbol, n in ((cd.corner_map(), 96), (cd.half_map(), 160),
                          (cd.power_perturbation(3, 0.005), 96),
                          (cd.power_perturbation(3, 0.005), 300)):
            op = cd.composition_matrix(symbol, n)
            for k in (0, 1, 2, 5, _B - 1, _B, _B + 1, 2 * _B, n // 2, n - 1):
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
        for i, op in enumerate(ops):
            assert op.matrix.dtype == np.float64, f"ops[{i}]"

    @pytest.mark.parametrize("n", [64, 256])
    def test_complex_symbols_build_complex128(self, n):
        ops = [cd.composition_matrix(cd.power_perturbation(3, 0.005), n),
               cd.composition_matrix(cd.dilation(0.4 + 0.3j), n),
               cd.difference_matrix(cd.half_map(), cd.dilation(0.4 + 0.3j), n)]
        for i, op in enumerate(ops):
            assert op.matrix.dtype == np.complex128, f"ops[{i}]"

    def test_no_copy_of_float64_or_complex128(self):
        for dtype in (np.float64, np.complex128):
            m = np.eye(4, dtype=dtype)
            op = cd.TruncatedOperator(m)
            assert op.matrix.dtype == dtype
            assert np.shares_memory(op.matrix, m)
        as_int = cd.TruncatedOperator(np.eye(4, dtype=int))
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


_TERM_SETS = {
    "single real": [(None, cd.corner_map())],
    "weighted real": [(cd.weight_power(1), cd.corner_map())],
    "complex difference": [(None, cd.power_perturbation(3, 0.005)),
                           (None, cd.dilation(0.4 + 0.3j))],
    "real-complex difference": [(None, cd.half_map()),
                                (None, cd.power_perturbation(3, 0.005))],
}


def _oracle_table(terms, n, cols):
    """The oracle table of ``terms`` and the largest entry of any term's table.

    A difference carries the rounding of its terms, so the scale of its
    error is that of the terms, not of the difference: the real-complex pair
    differs by at most 1.5e-2 against terms of size 1.
    """
    tables = [power_table_by_convolution(
        cd.taylor_array(phi, n),
        operators._unit(n) if omega is None else cd.taylor_array(omega, n),
        n, cols) for omega, phi in terms]
    scale = max(np.abs(t).max() for t in tables)
    return (tables[0] - tables[1] if len(tables) == 2 else tables[0]), scale


class TestBlockedPowers:
    # square tables on the FFT path: n - 1 = 128 columns after the first in
    # full blocks (129), a last block of one column (130) and of three
    # (300). The leading n x cols block at the block edges, checked at the
    # scale of its own columns; the top n rows of the (2n - 1) table, the
    # glued oracle's n x (2n - 1) table; and the top-left n x n block of the
    # 2n table, as a doubling reads its N0 side (n = 64 on the convolve path)
    @pytest.mark.parametrize("n, cols, order", [
        *(pytest.param(n, cols, max(n, cols), id=f"{n}-{cols}")
          for n in (129, 300)
          for cols in (1, 2, _B, _B + 1, 2 * _B + 1, n, 2 * n - 1)),
        pytest.param(130, 130, 130, id="130-130"),
        *(pytest.param(n, n, 2 * n, id=f"{n}-block-of-{2 * n}")
          for n in (64, 129, 300))])
    @pytest.mark.parametrize("terms", list(_TERM_SETS))
    def test_table_matches_convolution_oracle(self, terms, n, cols, order):
        got = operators._table(_TERM_SETS[terms], order)[:n, :cols]
        expected, scale = _oracle_table(_TERM_SETS[terms], n, cols)
        assert got.shape == (n, cols)
        assert np.abs(got - expected).max() <= 1e-14 * scale


def _c_order_table(terms, n):
    """The table of ``terms`` from the same block streams as ``_table``,
    each block written through a transposed view of a C-ordered n x n
    buffer."""
    dtypes, streams = zip(*(
        operators._power_columns(
            cd.taylor_array(phi, n),
            operators._unit(n) if omega is None else cd.taylor_array(omega, n),
            n)
        for omega, phi in terms))
    out = np.empty((n, n), dtype=np.result_type(*dtypes))
    k = 0
    for block, *minus in zip(*streams):
        out[:, k:k + len(block)].T[...] = block - minus[0] if minus else block
        k += len(block)
    return out


class TestTableLayout:
    @pytest.mark.parametrize("n", [64, 256])  # convolve and FFT paths
    @pytest.mark.parametrize("terms", list(_TERM_SETS))
    def test_fortran_table_equals_c_order_build(self, terms, n):
        got = operators._table(_TERM_SETS[terms], n)
        expected = _c_order_table(_TERM_SETS[terms], n)
        assert got.flags.f_contiguous and expected.flags.c_contiguous
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("terms", list(_TERM_SETS))
    def test_sketch_bits_equal_on_both_layouts(self, terms):
        # a table and its C-ordered copy; the top-left block of the 2n
        # table, a strided view as a doubling sketches it, and its Fortran-
        # and C-ordered copies
        fortran = operators._table(_TERM_SETS[terms], 256)
        block = operators._table(_TERM_SETS[terms], 512)[:256, :256]
        assert not (block.flags.f_contiguous or block.flags.c_contiguous)
        for matrices in ((fortran, np.ascontiguousarray(fortran)),
                         (block, np.asfortranarray(block),
                          np.ascontiguousarray(block))):
            for k in (40, 128):
                s, e = operators._leading_values(matrices[0], k)
                for copy in matrices[1:]:
                    s_c, e_c = operators._leading_values(copy, k)
                    assert s.tobytes() == s_c.tobytes() and e == e_c

    def test_builders_return_fortran_order(self):
        for build, _, _ in _PUBLIC_BUILDS:
            assert build(64).matrix.flags.f_contiguous


def _composition_columns(phi, n):
    """Power table of phi at order n, built on its own."""
    return cd.composition_matrix(phi, n).matrix


_DTYPE_PAIRS = {
    "real-real": (cd.corner_map(), cd.half_map()),
    "real-complex": (cd.corner_map(), cd.power_perturbation(3, 0.005)),
    "complex-real": (cd.power_perturbation(3, 0.005), cd.half_map()),
    "complex-complex": (cd.power_perturbation(3, 0.005), cd.dilation(0.4 + 0.3j)),
}


# every public builder, on bases with dense Taylor vectors: a build at order
# n, the dtype of its matrix and its number of terms
_PUBLIC_BUILDS = [
    (lambda n: cd.composition_matrix(cd.corner_map(), n), np.float64, 1),
    (lambda n: cd.weighted_composition_matrix(cd.weight_power(1),
                                              cd.corner_map(), n),
     np.float64, 1),
    (lambda n: cd.difference_matrix(cd.half_map(),
                                    cd.power_perturbation(3, 0.005), n),
     np.complex128, 2),
]


def _traced_build(build):
    """The operator ``build()`` returns and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        op = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return op, peak


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
        n = 1024
        for i, (build, dtype, _) in enumerate(_PUBLIC_BUILDS):
            op, peak = _traced_build(lambda: build(n))
            assert op.matrix.dtype == dtype, f"build {i}"
            buffer = n * n * op.matrix.dtype.itemsize
            # a power table held beside the buffer (the old difference build)
            # peaks at 1.5 buffers or more
            assert peak < 1.25 * buffer, f"build {i}"

    def test_transient_memory_per_term(self):
        # what a build holds beside its output: the transforms of the
        # truncated powers, one product and one inverse-transform block per
        # term (1.1 MB for one real term, 3.7 MB for the complex difference
        # at 8 columns per block; 32 columns per block take 4.3 and 13.1 MB)
        n = 2048
        for i, (build, _, terms) in enumerate(_PUBLIC_BUILDS):
            op, peak = _traced_build(lambda: build(n))
            assert peak - op.matrix.nbytes <= 2.5e6 * terms, f"build {i}"


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
        s = cd.singular_spectrum(
            cd.difference_matrix(cd.dilation(0.5), cd.dilation(0.25), 4))
        np.testing.assert_allclose(s.values, [0.25, 0.1875, 0.109375, 0],
                                   atol=1e-14)

    def test_structural_zero(self):
        # both terms run the same recursion, so every entry is x - x = 0
        for n in (8, 300):  # convolve and FFT paths
            for phi in (cd.half_map(), cd.power_perturbation(3, 0.005)):
                m = cd.difference_matrix(phi, phi, n).matrix
                assert not np.any(m), (phi.name, n)

    def test_near_identity_sanity(self):
        s = cd.singular_spectrum(
            cd.difference_matrix(cd.identity(), cd.dilation(0.999), 64))
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
        for i, op in enumerate(ops):
            real = cd.singular_spectrum(op).values
            cplx = np.linalg.svd(op.matrix.astype(complex), compute_uv=False)
            np.testing.assert_allclose(real, cplx, rtol=1e-13,
                                       atol=1e-13 * cplx[0],
                                       err_msg=f"ops[{i}]")

    def test_non_increasing(self):
        s = cd.singular_spectrum(cd.composition_matrix(cd.half_map(), 64))
        assert np.all(np.diff(s.values) <= 1e-12)


class TestErrorPaths:
    def test_non_finite_matrix_breaks_down(self):
        bad = cd.TruncatedOperator(np.full((3, 3), np.nan, dtype=complex))
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

    @staticmethod
    def _random_factor(rng):
        # unsorted values drawn from a few levels (ties, zeros) or uniform,
        # with a horizon anywhere in 0..len or none
        n = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            values = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        else:
            values = rng.uniform(0, 1, n) * (rng.random(n) < 0.8)
        horizon = None if rng.random() < 0.1 else int(rng.integers(0, n + 1))
        return cd.SingularSpectrum(values, order=n, horizon=horizon)

    def test_prefix_count_matches_the_walk(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(2000):
            s, t = self._random_factor(rng), self._random_factor(rng)
            count = int(rng.integers(1, len(s) * len(t) + 3))
            out = cd.tensor_spectrum(s, t, count)
            values, horizon = tensor_values_walk(s, t, count)
            assert out.values.tobytes() == values.tobytes()
            assert out.horizon == horizon

    def test_values_own_their_data(self):
        s = cd.SingularSpectrum(np.array([1.0, 0.5, 0.25]), order=3, horizon=2)
        out = cd.tensor_spectrum(s, s, 4)
        assert out.values.base is None


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
    """The horizon scan of exact N0 values against a full SVD of the 2*N0
    matrix."""
    full = np.linalg.svd(big, compute_uv=False)
    floor = 1e-14 * max(full[0], 1e-300)
    horizon = 0
    for a, b in zip(small, full):
        if abs(a - b) > 1e-2 * max(b, floor):
            break
        horizon += 1
    return horizon, full


def _diagonal_build(values_at):
    return lambda m: cd.TruncatedOperator(np.diag(values_at(m)))


def _nested_build(a, b):
    """A build at 2*N0 = 2 len(a) of [[diag(a), diag(sqrt(b**2 - a**2))],
    [0, 0]]: its top-left N0 x N0 block, the N0 side of a doubling, is
    diag(a), and its singular values are b (b >= a) and N0 zeros.  A
    compression cannot raise singular values, so the 2*N0 side of a doubling
    can only rise above the N0 one."""
    n0 = len(a)

    def build(m):
        assert m == 2 * n0
        matrix = np.zeros((m, m))
        matrix[:n0, :n0] = np.diag(a)
        matrix[:n0, n0:] = np.diag(np.sqrt(b ** 2 - a ** 2))
        return cd.TruncatedOperator(matrix)
    return build


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
    """Record the order, size and ``(s, e)`` of every sketch, the SVD orders
    convergence_horizon uses, and the matrices it sketches."""
    calls = {"leading": [], "svd": [], "matrices": []}
    real_leading = operators._leading_values
    real_svd = operators.singular_spectrum

    def spy_leading(matrix, k):
        out = real_leading(matrix, k)
        calls["leading"].append((matrix.shape[0], k, out))
        calls["matrices"].append(matrix)
        return out

    def spy_svd(op):
        calls["svd"].append(op.order)
        return real_svd(op)

    mp.setattr(operators, "_leading_values", spy_leading)
    mp.setattr(operators, "singular_spectrum", spy_svd)
    return calls


def _spy_on_scans(mp):
    """Record the arguments of every horizon scan."""
    scans = []
    real_scan = operators._scan_horizon

    def spy_scan(*args):
        scans.append(args)
        return real_scan(*args)

    mp.setattr(operators, "_scan_horizon", spy_scan)
    return scans


def _sketch_rank(s):
    """The 2*N0 sketch's rank: the N0 values above the horizon floor."""
    return max(1, int(np.count_nonzero(s > 1e-14 * s[0])))


@pytest.fixture(scope="module")
def certified_runs():
    """convergence_horizon at N0 = 256 and 512, against full SVDs of the
    2*N0 matrix it built and of its N0 block."""
    runs = {}
    for n0 in (256, 512):
        for name, build in CERTIFIED_CASES.items():
            built = []
            with pytest.MonkeyPatch.context() as mp:
                calls = _spy_on_spectra(mp)
                spectrum = cd.convergence_horizon(
                    lambda m: built.append(build(m)) or built[-1], n0)
            del calls["matrices"]  # the runs keep values, not matrices
            matrix = built.pop().matrix
            small = np.linalg.svd(matrix[:n0, :n0], compute_uv=False)
            horizon, big = _full_svd_horizon(small, matrix)
            runs[name, n0] = (spectrum, calls, horizon,
                              {n0: small, 2 * n0: big})
    return runs


class TestCertifiedHorizon:
    @pytest.mark.parametrize("n0", [256, 512])
    @pytest.mark.parametrize("name", list(CERTIFIED_CASES))
    def test_horizon_equals_full_svd_path(self, certified_runs, name, n0):
        spectrum, calls, horizon, full = certified_runs[name, n0]
        assert spectrum.horizon == horizon
        # decided on two sketches without a full SVD: N0 with k columns,
        # then 2*N0 with one column per N0 value above the horizon floor,
        # oversampled
        k = operators._SKETCH_RANK
        _, _, (s, _) = calls["leading"][0]
        rank = _sketch_rank(s)
        assert [(order, size) for order, size, _ in calls["leading"]] == [
            (n0, k), (2 * n0, rank + operators._OVERSAMPLE)]
        assert calls["svd"] == []
        # the spectrum holds the N0 sketch's k values, the lower ends of
        # their intervals, and matches LAPACK inside the horizon
        assert spectrum.order == n0
        assert spectrum.values.tobytes() == s.tobytes()
        np.testing.assert_allclose(spectrum.values[:horizon],
                                   full[n0][:horizon], rtol=1e-9)

    @pytest.mark.parametrize("n0", [256, 512])
    @pytest.mark.parametrize("name", list(CERTIFIED_CASES))
    def test_full_svd_values_inside_weyl_intervals(self, certified_runs,
                                                   name, n0):
        _, calls, _, full = certified_runs[name, n0]
        for order, k, (s, e) in calls["leading"]:
            exact = full[order]
            slack = 1e-13 * exact[0]
            assert np.all(exact[:k] >= s - slack)
            assert np.all(exact[:k] <= np.sqrt(s ** 2 + e ** 2) + slack)
            assert np.all(exact[k:] <= e + slack)

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

    def test_sketch_is_the_unbuffered_oracle_bit_for_bit(self):
        rng = np.random.default_rng(RNG_SEED)
        # 600 columns: the last residual block is narrower than k
        u = np.linalg.qr(rng.normal(size=(600, 600))
                         + 1j * rng.normal(size=(600, 600)))[0]
        values = 0.97 ** np.arange(600)
        for matrix in (u * values, np.real(u) * values):
            s, e = operators._leading_values(matrix, 128)
            s_ref, e_ref = leading_values_one_sketch(matrix, 128)
            assert s.tobytes() == s_ref.tobytes()
            assert e == e_ref

    def test_peak_below_the_unbuffered_oracle(self):
        # the residual reuses one n x k buffer where the oracle allocates
        # two blocks per step; a sketch that allocated each residual block
        # afresh would peak as high as the oracle
        matrix = cd.difference_matrix(
            cd.half_map(), cd.power_perturbation(3, 0.005), 1024).matrix
        assert matrix.dtype == np.complex128
        peaks = []
        for run in (lambda: operators._leading_values(matrix, 128),
                    lambda: leading_values_one_sketch(matrix, 128)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[0] < peaks[1]

    @pytest.mark.parametrize("ratio, step, svd", [
        (0.96, 30, []), (0.963, 40, [512, 256]), (0.97, 31, [512, 256])])
    def test_sketches_decide_or_fall_back(self, monkeypatch, ratio, step,
                                          svd):
        # sigma_n = ratio**n at both orders except that the 2*N0 values rise
        # by 3% from index ``step`` on (still non-increasing); the slower
        # the decay, the wider the 2*N0 intervals near the rise.  At 0.96
        # the sketches decide it; at 0.963 and 0.97 they leave it open, and
        # full SVDs give the same horizon and all N0 values.  The N0 block
        # has rank k, so its sketch is exact
        calls = _spy_on_spectra(monkeypatch)
        a = ratio ** np.arange(256.0)
        b = a.copy()
        b[step:] *= 1.03
        a[operators._SKETCH_RANK:] = 0.0

        spectrum = cd.convergence_horizon(_nested_build(a, b), 256)
        assert [order for order, _, _ in calls["leading"]] == [256, 512]
        assert calls["svd"] == svd
        assert spectrum.horizon == step
        assert len(spectrum) == (256 if svd else operators._SKETCH_RANK)

    def test_loose_n0_sketch_falls_back(self, monkeypatch):
        # sigma_n = 0.965**n, the 2*N0 values raised by 3% from index 20:
        # the N0 sketch's intervals are wider than the 1% test near the
        # rise, so the 2*N0 sketch cannot decide it, and full SVDs give the
        # horizon after both sketches
        calls = _spy_on_spectra(monkeypatch)
        a = 0.965 ** np.arange(256.0)
        b = a.copy()
        b[20:] *= 1.03

        spectrum = cd.convergence_horizon(_nested_build(a, b), 256)
        assert [order for order, _, _ in calls["leading"]] == [256, 512]
        assert calls["svd"] == [512, 256]
        assert spectrum.horizon == 20 and len(spectrum) == 256

    def test_slow_tail_falls_back(self, monkeypatch):
        calls = _spy_on_spectra(monkeypatch)
        scans = _spy_on_scans(monkeypatch)

        def values_at(m):
            # a flat tail of 1e-3 past index 128 and the same values at both
            # orders: the N0 sketch, with no column to spare for the tail,
            # leaves intervals wider than the 1% test from the first index
            # on, so the sketches leave the scan open, and the fallback runs
            # full SVDs
            v = np.full(m, 1e-3)
            v[:128] = 0.99 ** np.arange(128)
            return v

        spectrum = cd.convergence_horizon(_diagonal_build(values_at), 256)
        (n0, k, _), (n1, _, _) = calls["leading"]
        assert (n0, n1, k) == (256, 512, 128)
        assert operators._scan_horizon(*scans[0]) is None
        assert calls["svd"] == [512, 256]
        assert spectrum.horizon == len(spectrum) == 256

    def test_all_pass_over_k_values_falls_back(self, monkeypatch):
        # rank 128 and the same values at both orders: both sketches are
        # exact, all k = 128 comparisons pass and the scan returns k; the
        # horizon may reach past the values held, so full SVDs give it (the
        # zero tails agree, so it is N0)
        calls = _spy_on_spectra(monkeypatch)
        scans = _spy_on_scans(monkeypatch)

        def values_at(m):
            v = np.zeros(m)
            v[:128] = 0.9 ** np.arange(128)
            return v

        spectrum = cd.convergence_horizon(_diagonal_build(values_at), 256)
        (_, k, _), (_, cols, _) = calls["leading"]
        assert (k, cols) == (128, 128 + operators._OVERSAMPLE)
        assert operators._scan_horizon(*scans[0]) == k
        assert calls["svd"] == [512, 256]
        assert spectrum.horizon == len(spectrum) == 256

    @pytest.mark.parametrize("n0", [256, 512])
    def test_dilation_falls_back_after_both_sketches(self, monkeypatch, n0):
        # exact truncations: sigma_n = 0.5**n at both orders, so the horizon
        # reaches below the level (about 1e-11 sigma_1) where the rounding
        # slack lets a comparison be certified; both sketches, the 2*N0 one
        # with the 47 columns of the values above the floor and 16 more,
        # then full SVDs at both orders
        calls = _spy_on_spectra(monkeypatch)
        scans = _spy_on_scans(monkeypatch)
        build = lambda m: cd.composition_matrix(cd.dilation(0.5), m)
        spectrum = cd.convergence_horizon(build, n0)
        (order0, k, (s_small, _)), (order1, cols, (s, _)) = calls["leading"]
        assert (order0, order1, k) == (n0, 2 * n0, operators._SKETCH_RANK)
        rank = _sketch_rank(s_small)
        assert rank == 47 and cols == rank + operators._OVERSAMPLE == 63
        assert calls["svd"] == [2 * n0, n0]
        # the sketch scan reads k N0 values against the cols values of the
        # 2*N0 sketch, and past rank the N0 intervals start at 0
        small_lo, _, lo, hi = scans[0]
        assert len(s) == len(lo) == len(hi) == cols and len(small_lo) == k
        assert np.all(small_lo[rank:] == 0.0)
        matrix = build(2 * n0).matrix
        small = np.linalg.svd(matrix[:n0, :n0], compute_uv=False)
        assert spectrum.values.tobytes() == small.tobytes()
        horizon, _ = _full_svd_horizon(small, matrix)
        assert spectrum.horizon == horizon > 37

    def test_all_pass_over_the_reduced_sketch_is_no_horizon(self,
                                                            monkeypatch):
        # 40 values above the floor and a tail of 1e-15 sigma_1, the same
        # at both orders: the 2*N0 sketch takes the 40 columns and 16 more,
        # whose values are the non-zero tail, and every one of the first 40
        # comparisons passes; but past rank the N0 values lie below the
        # rounding slack, so their intervals start at 0 and no comparison
        # there passes.  The sketches do not decide, and full SVDs give the
        # horizon N0, not 40
        calls = _spy_on_spectra(monkeypatch)
        scans = _spy_on_scans(monkeypatch)

        def values_at(m):
            v = np.full(m, 1e-15)
            v[:40] = 0.8 ** np.arange(40)
            return v

        spectrum = cd.convergence_horizon(_diagonal_build(values_at), 256)
        (n0, k, (s_small, _)), (n1, cols, (s, _)) = calls["leading"]
        rank = _sketch_rank(s_small)
        assert (n0, n1, k, rank) == (256, 512, operators._SKETCH_RANK, 40)
        assert cols == rank + operators._OVERSAMPLE == 56
        small_lo, small_hi, lo, hi = scans[0]
        assert len(s) == cols and np.all(s[rank:] > 0.0)
        assert operators._scan_horizon(small_lo[:rank], small_hi[:rank],
                                       lo[:rank], hi[:rank]) == rank
        # an all-pass against a shorter 2*N0 side returns the N0 length, k,
        # which is never read as a horizon
        assert operators._scan_horizon(small_lo, small_hi,
                                       lo[:rank], hi[:rank]) == k
        # the band grows with the floor: a comparison that fails at the
        # highest floor fails at every lower one
        floor = 1e-14 * hi[0]
        assert np.all(small_lo[rank:] == 0.0)
        assert not any(operators._passes(a, b, floor)
                       for a, b in zip(small_lo[rank:], hi[rank:]))
        assert calls["svd"] == [512, 256]
        assert spectrum.horizon == len(spectrum) == 256

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
        assert first.values.tobytes() == second.values.tobytes()
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1])
        assert state[2:] == after[2:]


def _scan_violations(scan, trials):
    """Decisions of ``scan`` on random interval inputs that a sampled oracle
    contradicts, and the number of decided passes and failures whose
    intervals were not points.

    Each comparison's rectangle [small_lo, small_hi] x [lo, hi] is sampled
    on a 5 x 5 grid (corners included), the floor at five points of its
    range; a decided pass must pass at every sample, a decided failure must
    fail at every one.
    """
    rng = np.random.default_rng(RNG_SEED)
    violations, passes, failures = [], 0, 0
    for trial in range(trials):
        n = int(rng.integers(1, 40))
        # true values, some near the floor of the 1% test, and relative
        # interval widths up to one scale per trial
        big = np.sort(10.0 ** rng.uniform(-17, 0, n))[::-1]
        small = big * (1 + rng.choice([0.0, 3e-3, 2e-2], n)
                       * rng.standard_normal(n))
        scale = rng.choice([0.0, 1e-3, 5e-3, 2e-2])
        lo, hi, small_lo, small_hi = (
            v * (1 + sign * scale * rng.random(n))
            for v, sign in ((big, -1), (big, 1), (small, -1), (small, 1)))
        horizon = scan(small_lo, small_hi, lo, hi)
        if horizon is None:
            continue
        floors = 1e-14 * np.linspace(lo[0], hi[0], 5)
        decided = [(i, True) for i in range(horizon)]
        if horizon < n:
            decided.append((horizon, False))
        for i, want in decided:
            a = np.linspace(small_lo[i], small_hi[i], 5)[:, None, None]
            b = np.linspace(lo[i], hi[i], 5)[None, :, None]
            ok = np.abs(a - b) <= 1e-2 * np.maximum(b, floors[None, None, :])
            wide = small_lo[i] < small_hi[i] or lo[i] < hi[i]
            passes += int(want and wide)
            failures += int(not want and wide)
            if not np.all(ok == want):
                violations.append((trial, i, want))
    return violations, passes, failures


class TestScanHorizon:
    def test_exact_values_always_decide(self):
        # the full-SVD fallback passes exact values (lo = hi on both sides):
        # the scan must return a horizon, never None, also for values below
        # the floor
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            big = 10.0 ** rng.uniform(-30, 0, n)
            big[rng.random(n) < 0.1] = 0.0
            big = np.sort(big)[::-1]
            noise = rng.choice([0.0, 1e-3, 5e-2], n) * rng.standard_normal(n)
            small = np.sort(np.abs(big * (1 + noise)))[::-1]
            horizon = operators._scan_horizon(small, small, big, big)
            assert isinstance(horizon, int)
            floor = 1e-14 * max(big[0], 1e-300)
            assert horizon == next(
                (i for i, (a, b) in enumerate(zip(small, big))
                 if abs(a - b) > 1e-2 * max(b, floor)), n)

    def test_interval_decisions_hold_at_every_sample(self):
        # interval N0 sides as the N0 sketch gives them: every decided
        # pass passes, and every decided failure fails, over the whole
        # rectangle and floor range; the inputs reach both kinds of decision
        violations, passes, failures = _scan_violations(
            operators._scan_horizon, 2000)
        assert violations == []
        assert passes > 1000 and failures > 100

    def test_floor_range_can_leave_a_comparison_open(self):
        # sigma_1 of the 2*N0 side lies in [1, 1.015], so the floor lies in
        # [1e-14, 1.015e-14]; a gap of 1.008e-16 at b = 2e-16, on either
        # side, fails at the lowest floor and passes at the highest, so it
        # is not decided
        for sign in (1, -1):
            a = np.array([1.008, 2e-16 + sign * 1.008e-16])
            lo, hi = np.array([1.0, 2e-16]), np.array([1.015, 2e-16])
            assert operators._scan_horizon(a, a, lo, hi) is None
            assert operators._scan_horizon(a, a, lo, lo) == 1


class TestOneThread:
    """convergence_horizon runs on the caller's thread and builds one
    matrix, at 2*N0, whose top-left block is the N0 truncation."""

    def test_no_thread_starts(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def spy_start(thread):
            started.append(thread)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy_start)
        for n0 in (64, 256):
            cd.convergence_horizon(CERTIFIED_CASES["corner diff"], n0)
        assert started == []

    # decided on the sketches, the fallback after both sketches (exact
    # dilation values), and the full SVDs up to N0 = 128
    @pytest.mark.parametrize("build, n0, svd", [
        pytest.param(CERTIFIED_CASES["corner single"], 256, [], id="sketch"),
        pytest.param(lambda m: cd.composition_matrix(cd.dilation(0.5), m),
                     256, [512, 256], id="fallback"),
        pytest.param(CERTIFIED_CASES["corner diff"], 64, [128, 64],
                     id="full-64"),
        pytest.param(CERTIFIED_CASES["corner diff"], 128, [256, 128],
                     id="full-128")])
    def test_one_build_at_2n0(self, monkeypatch, build, n0, svd):
        orders = []
        calls = _spy_on_spectra(monkeypatch)
        cd.convergence_horizon(lambda m: orders.append(m) or build(m), n0)
        assert orders == [2 * n0]
        assert calls["svd"] == svd

    def test_n0_sketch_reads_a_view_of_the_2n0_matrix(self, monkeypatch):
        calls = _spy_on_spectra(monkeypatch)
        cd.convergence_horizon(CERTIFIED_CASES["corner diff"], 256)
        small, big = calls["matrices"]
        assert (small.shape, big.shape) == ((256, 256), (512, 512))
        assert np.shares_memory(small, big)

    @pytest.mark.parametrize("n0", [64, 256])
    def test_nan_in_the_n0_block_raises(self, n0):
        def values_at(m):
            v = np.ones(m)
            v[n0 - 1] = np.nan
            return v

        with pytest.raises(NumericalBreakdown):
            cd.convergence_horizon(_diagonal_build(values_at), n0)

    @pytest.mark.parametrize("n0", [64, 128])
    @pytest.mark.parametrize("name", ["corner diff", "smooth 3.0"])
    def test_small_orders_keep_the_full_svd(self, name, n0):
        # up to N0 = 128 the spectrum is a full SVD of the N0 block of the
        # 2*N0 matrix, bit for bit
        build = CERTIFIED_CASES[name]
        spectrum = cd.convergence_horizon(build, n0)
        matrix = build(2 * n0).matrix
        small = np.linalg.svd(matrix[:n0, :n0], compute_uv=False)
        horizon, _ = _full_svd_horizon(small, matrix)
        assert spectrum.values.tobytes() == small.tobytes()
        assert spectrum.horizon == horizon


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
