"""Truncated matrix models of (weighted) composition operators and their spectra.

Every truncation is built by one table function from a term ``(omega, phi)``
standing for M_omega C_phi (``omega`` None for C_phi), or from two terms, the
second subtracted (C_phi - C_psi); one constructor checks every symbol.  On
the monomial basis of H^2, column k of a term's matrix holds the Taylor
coefficients of ``omega * phi**k``.  Powers are built by truncated Cauchy
products of coefficient vectors, never by boundary-FFT extraction, whose
``r**-j`` factor would amplify errors for maps that touch the circle.  Up to
N = 128 each column is the product of the one before it with the base; above,
the columns come in blocks of ``_BLOCK``, each column of a block the product
of the last column before the block with a precomputed truncated power of
the base, so one forward and one batched inverse FFT serve a whole block.

Real symbols get real arithmetic.  When the Taylor coefficients of the map
and of the weight have imaginary parts that are exactly zero (for these
expression trees: every ``Const`` is real), the power table is built with
real convolutions / ``rfft`` and stored as float64, and the SVD runs in real
arithmetic, about a quarter of the complex flops.  The test is exact, never a
tolerance; everything else stays complex128, and a real matrix combined with
a complex one promotes to complex as numpy does.

The n-th singular value of the N x N truncation approximates the n-th
approximation number from below; every spectrum carries a stability horizon
``n*`` up to which values move by less than 1% when N doubles, and nothing
beyond the horizon should be fed into fits or certificates.

A doubling builds once, at 2*N0: the N0 truncation is the top-left block of
the 2*N0 one, read as a view.  Above N = 128 the horizon compares the
leading values of the two truncations, each certified to an interval by one
sketch, with no power pass; a comparison counts only when both intervals
give one answer, and a scan the sketches leave open is settled by full SVDs,
so the horizon is always the one full SVDs of both matrices give.  The N0
sketch takes 128 columns and the spectrum holds its 128 values; the 2*N0
sketch takes one column per N0 value above the horizon floor and
``_OVERSAMPLE`` more, and the scan compares the values both sides hold.
Past the floor the N0 intervals start at 0, so no comparison there passes.
:func:`convergence_horizon` describes the doubling.

A table is filled one column per contiguous row of a buffer and returned as
its transpose, so every truncation is a Fortran-ordered (column-contiguous)
array.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundaryFixedOrigin,
    HorizonExceeded,
    NonFinite,
    NotSelfMap,
    NumericalBreakdown,
)
from .series import Symbol, evaluate, taylor_array, validate_self_map

_HORIZON_RTOL = 1e-2
_HORIZON_FLOOR = 1e-14  # relative to sigma_1 of the 2*N0 spectrum
# leading values of the N0 and 2*N0 matrices, one sketch each: sketch size,
# the 2*N0 sketch's oversampling past its rank, fixed sketch seed, and the
# rounding slack (relative to sigma_1) that widens every certified interval
_SKETCH_RANK = 128
_OVERSAMPLE = 16
_SKETCH_SEED = 0
_ROUNDING_SLACK = 1e-13
# columns per batched inverse FFT of the power-table build (n > 128)
_BLOCK = 8


@functools.lru_cache(maxsize=256)
def _self_map_report(symbol: Symbol):
    return validate_self_map(symbol)


def ensure_self_map(symbol: Symbol) -> None:
    report = _self_map_report(symbol)
    if not report.passed:
        raise NotSelfMap(
            f"{symbol.name}: boundary modulus reaches {report.max_modulus:.6g}")


def _ensure_bounded_weight(symbol: Symbol) -> None:
    # the self-map scan samples the same boundary grid and reads a non-finite
    # value as inf, so one cached scan serves both checks
    if _self_map_report(symbol).max_modulus > 1e8:
        raise NonFinite(f"weight {symbol.name} is not bounded on the disc")


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense N x N truncation."""

    matrix: np.ndarray

    def __post_init__(self):
        # float64 stays real, everything else becomes complex128; asarray
        # (never astype) so that a matrix of the right dtype is not copied
        m = np.asarray(self.matrix)
        m = np.asarray(m, dtype=float if m.dtype == np.float64 else complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("expected a square matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing singular values of a truncation, with stability metadata."""

    values: np.ndarray
    order: int
    horizon: Optional[int] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def sigma(self, n: int) -> float:
        """n-th singular value, 1-indexed."""
        if not 1 <= n <= len(self.values):
            raise IndexError(f"index {n} outside 1..{len(self.values)}")
        return float(self.values[n - 1])

    def sigma_checked(self, n: int) -> float:
        """Like :meth:`sigma` but refuses indices beyond the horizon."""
        if self.horizon is None or n > self.horizon:
            raise HorizonExceeded(
                f"sigma_{n} requested but horizon is {self.horizon}")
        return self.sigma(n)

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def _power_columns(base: np.ndarray, first: np.ndarray, n: int) -> tuple:
    """Columns first, first*base, ..., first*base^(n-1) truncated to n
    coefficients.

    Returns ``(dtype, blocks)``: float64 when both inputs have exactly zero
    imaginary parts, complex128 otherwise, and an iterator over blocks of
    consecutive columns (see :func:`_powers`), one column per row of an
    ``(m, n)`` array, n columns in all, so a caller can store or combine
    each block as it comes.
    """
    real = not (np.any(np.imag(base)) or np.any(np.imag(first)))
    if real:
        base, first = np.real(base), np.real(first)
    return (float if real else complex), _powers(base, first, n, real)


def _powers(base: np.ndarray, first: np.ndarray, n: int, real: bool):
    """The blocks of :func:`_power_columns`.

    The first block is the column ``first``.  Up to n = 128 every later
    block is one column, the truncated product of the one before it with
    ``base`` (``np.convolve``).  Above, every later block holds the next
    B = ``_BLOCK`` columns, the last block the rest: truncation commutes
    with these lower-triangular Toeplitz products, so column k + j is
    trunc(col_k * P_j) with P_j = trunc(base^j), and a block is one forward
    FFT of its anchor col_k, the last column before it, times the
    precomputed transforms of P_1 ... P_B, and one batched inverse FFT.  The
    linear product has 2n - 1 <= ``size`` coefficients, so the cyclic one
    does not alias.  n > 128 leaves n - 1 > B columns after the first.
    """
    yield first[None]
    col = first
    if n <= 128:
        for _ in range(1, n):
            col = np.convolve(col, base)[:n]
            yield col[None]
        return
    size = 1 << (2 * n - 1).bit_length()
    # size is even, so irfft's default output length is size
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    # P_1 ... P_B by the one-column recursion, transformed once
    trunc = np.empty((_BLOCK, n), dtype=base.dtype)
    trunc[0] = base
    fbase = fft(base, size)
    for j in range(1, _BLOCK):
        trunc[j] = ifft(fft(trunc[j - 1], size) * fbase)[:n]
    ftrunc = fft(trunc, size, axis=1)
    del trunc, fbase
    prod = np.empty_like(ftrunc)
    for k in range(1, n, _BLOCK):
        m = min(_BLOCK, n - k)
        np.multiply(fft(col, size), ftrunc[:m], out=prod[:m])
        block = ifft(prod[:m], axis=1)[:, :n]
        yield block
        col = block[-1]


def _unit(n: int) -> np.ndarray:
    first = np.zeros(n)
    first[0] = 1.0
    return first


def _table(terms, n: int) -> np.ndarray:
    """n x n table of the first term minus the second, if there is one.

    Column k of a term ``(omega, phi)`` holds taylor(omega * phi**k, n), with
    ``omega`` None read as 1.  Each term keeps its own real or complex
    arithmetic (see _power_columns); their block streams run in lockstep
    (both split the columns alike) into one ``(n, n)`` buffer of the
    result dtype, each block into contiguous rows, so no power table of a
    term is held.  Returns the buffer's transpose, a Fortran-ordered array.
    """
    dtypes, streams = zip(*(
        _power_columns(taylor_array(phi, n),
                       _unit(n) if omega is None else taylor_array(omega, n),
                       n)
        for omega, phi in terms))
    out = np.empty((n, n), dtype=np.result_type(*dtypes))
    k = 0
    for block, *minus in zip(*streams):
        dest = out[k:k + len(block)]
        if minus:
            np.subtract(block, minus[0], out=dest)
        else:
            dest[...] = block
        k += len(block)
    return out.T


def _truncation(terms, n: int) -> TruncatedOperator:
    """The N x N truncation of ``terms``, after checking each symbol."""
    if n < 2:
        raise ValueError("truncation order must be at least 2")
    for omega, phi in terms:
        ensure_self_map(phi)
        if omega is not None:
            _ensure_bounded_weight(omega)
    return TruncatedOperator(_table(terms, n))


def composition_matrix(phi: Symbol, n: int) -> TruncatedOperator:
    """N x N truncation of C_phi : f -> f o phi; column k = taylor(phi**k, N)."""
    return _truncation([(None, phi)], n)


def weighted_composition_matrix(omega: Symbol, phi: Symbol, n: int) -> TruncatedOperator:
    """Truncation of g -> omega * (g o phi); column k = taylor(omega * phi**k, N)."""
    return _truncation([(omega, phi)], n)


def difference_matrix(phi: Symbol, psi: Symbol, n: int) -> TruncatedOperator:
    """N x N truncation of C_phi - C_psi, built in one N x N buffer."""
    return _truncation([(None, phi), (None, psi)], n)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def _finite(op: TruncatedOperator) -> TruncatedOperator:
    if not np.all(np.isfinite(op.matrix)):
        raise NumericalBreakdown("matrix contains non-finite entries")
    return op


def singular_spectrum(op: TruncatedOperator) -> SingularSpectrum:
    """Dense SVD of the truncation, values sorted non-increasing."""
    try:
        values = np.linalg.svd(_finite(op).matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(str(exc)) from exc
    return SingularSpectrum(values, order=op.order)


def operator_norm_bound(phi: Symbol) -> float:
    """Classical bound ||C_phi|| <= sqrt((1 + |phi(0)|) / (1 - |phi(0)|))."""
    ensure_self_map(phi)
    p0 = abs(evaluate(phi, 0.0))
    if p0 >= 1:
        raise BoundaryFixedOrigin(f"|phi(0)| = {p0} >= 1")
    return math.sqrt((1 + p0) / (1 - p0))


def tensor_spectrum(s: SingularSpectrum, t: SingularSpectrum,
                    count: int) -> SingularSpectrum:
    """Largest ``count`` pairwise products; exact spectrum of the Kronecker truncation."""
    if len(s) == 0 or len(t) == 0:
        raise ValueError("tensor_spectrum requires nonempty spectra")
    products = np.sort(np.outer(s.values, t.values).ravel())[::-1]
    values = products[:count].copy()  # a view would keep every product alive
    horizon = None
    if s.horizon is not None and t.horizon is not None:
        # the sorted products agree with the sorted trusted ones (both factors
        # inside their horizons) down to the largest product with an untrusted
        # factor, the trusted products tied with it included
        edge = max(s.values[s.horizon:].max(initial=0.0) * t.values.max(),
                   s.values.max() * t.values[t.horizon:].max(initial=0.0))
        trusted = np.outer(s.values[: s.horizon], t.values[: t.horizon])
        horizon = min(len(values), int(np.count_nonzero(trusted >= edge)))
    return SingularSpectrum(values, order=s.order * t.order, horizon=horizon)


def _leading_values(matrix: np.ndarray, k: int) -> tuple:
    """Leading singular values of a square matrix A, with a certified error.

    The randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53,
    2011, Alg. 4.1): a fixed-seed Gaussian sketch and a QR give an
    orthonormal Q with k columns.  With B = Q^H A and E = A - Q B,
    A^H A = B^H B + E^H E exactly, so by Weyl's inequality sigma_j(A) lies
    in [s_j, sqrt(s_j**2 + e**2)], where s = sigma(B) (s_j = 0 for j > k)
    and e = ||E||_F.  Returns ``(s, e)``.  E is formed in column blocks in
    one preallocated n x k buffer.
    """
    n = matrix.shape[1]
    rng = np.random.default_rng(_SKETCH_SEED)
    q, _ = np.linalg.qr(matrix @ rng.standard_normal((n, k)))
    buf = np.empty(n * k, dtype=np.result_type(matrix, q))
    b = q.conj().T @ matrix
    e_sq = 0.0
    for start in range(0, n, k):
        cols = slice(start, start + k)
        block = buf[:n * min(k, n - start)].reshape(n, -1)
        np.matmul(q, b[:, cols], out=block)
        np.subtract(matrix[:, cols], block, out=block)
        e_sq += float(np.linalg.norm(block)) ** 2
    return np.linalg.svd(b, compute_uv=False), math.sqrt(e_sq)


def _passes(a: float, b: float, floor: float) -> bool:
    return abs(a - b) <= _HORIZON_RTOL * max(b, floor)


def _weyl_intervals(s: np.ndarray, e: float) -> tuple:
    """``(lo, hi)``: sigma_j lies in [s_j, sqrt(s_j**2 + e**2)] (see
    :func:`_leading_values`), every end widened by the rounding slack."""
    hi = np.sqrt(s ** 2 + e ** 2)
    slack = _ROUNDING_SLACK * hi[0]
    return np.maximum(s - slack, 0.0), hi + slack


def _scan_horizon(small_lo: np.ndarray, small_hi: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> Optional[int]:
    """Horizon of N0 values in [small_lo, small_hi] against 2*N0 values in
    [lo, hi], or None.

    The floor of the 1% test is ``_HORIZON_FLOOR`` times sigma_1 of the
    2*N0 spectrum, so it lies between the floors of lo[0] and hi[0].  A pair
    (a, b) passes when b - t <= a <= b + t, t = 1% max(b, floor); both ends
    grow with b and the band with the floor.  So a comparison passes for all
    pairs in its rectangle when it passes at the corners (a_hi, b_lo) and
    (a_lo, b_hi) at the lowest floor, and fails for all when a_lo lies above
    the band of b_hi, or a_hi below that of b_lo, at the highest floor.
    Returns None when a comparison before the first decided failure is not
    decided; exact values (small_lo = small_hi, lo = hi) always decide.  The
    scan stops at the shorter side, and an all-pass returns
    ``len(small_lo)``, also when the 2*N0 side holds fewer values.
    """
    floor_lo, floor_hi = (_HORIZON_FLOOR * max(end[0], 1e-300)
                          for end in (lo, hi))
    for n, (a_lo, a_hi, b_lo, b_hi) in enumerate(
            zip(small_lo, small_hi, lo, hi)):
        if _passes(a_hi, b_lo, floor_lo) and _passes(a_lo, b_hi, floor_lo):
            continue
        if (a_lo > b_hi and not _passes(a_lo, b_hi, floor_hi)
                or a_hi < b_lo and not _passes(a_hi, b_lo, floor_hi)):
            return n
        return None
    return len(small_lo)


def convergence_horizon(build: Callable[[int], TruncatedOperator],
                        n0: int) -> SingularSpectrum:
    """Build at 2*N0; annotate the N0 spectrum with its stability horizon.

    The horizon is the largest n* such that sigma_n agrees within 1% between
    the N0 and 2*N0 truncations for every n <= n*.  ``build`` runs once, at
    2*N0: the N0 truncation P_N0 T P_N0 is the top-left N0 x N0 block of
    P_2N0 T P_2N0, and is read as a view of it, never copied or built.
    Above N0 = 128 each side is the leading values of one sketch
    (:func:`_leading_values`), each sigma_n in [s_n, sqrt(s_n**2 + e**2)]
    widened by 1e-13 sigma_1 for rounding.  The N0 sketch takes k = 128
    columns.  The 2*N0 sketch takes rank + 16 (``_OVERSAMPLE``) columns,
    rank being the number of N0 values s_n above the horizon floor
    (1e-14 s_1), at least one and at most k: the range finder needs a column
    per value to resolve, and the oversampling (Halko, Martinsson & Tropp,
    Sec. 4.2) lets it resolve them without a power pass.  The scan compares
    the values both sides hold, at most k.  Past rank every N0 value is at
    most 1e-14 s_1, below the 1e-13 s_1 slack, so its interval starts at 0,
    and a comparison there never passes (the 2*N0 interval reaches up to
    the slack, far above the band of 1% of the floor around 0).  An
    all-pass returns k (see :func:`_scan_horizon`), which is never read as
    a horizon.
    When the scan decides a horizon below k (a horizon of k may reach past
    the values held), the spectrum holds the k values s_n of the N0 side.
    Otherwise, and for N0 <= 128, full SVDs of the 2*N0 matrix and its block
    give exact values, which always decide, and the spectrum holds all N0
    values.  So the horizon is the one full SVDs give.  A non-finite entry
    anywhere in the 2*N0 matrix raises before any SVD.
    """
    if n0 < 16:
        raise ValueError("doubling diagnostics start at N0 >= 16")
    big = _finite(build(2 * n0))
    small = TruncatedOperator(big.matrix[:n0, :n0])
    if n0 > _SKETCH_RANK:
        try:
            s_small, e = _leading_values(small.matrix, _SKETCH_RANK)
            small_lo, small_hi = _weyl_intervals(s_small, e)
            rank = max(1, int(np.count_nonzero(
                s_small > _HORIZON_FLOOR * s_small[0])))
            s, e = _leading_values(big.matrix, rank + _OVERSAMPLE)
            horizon = _scan_horizon(small_lo, small_hi,
                                    *_weyl_intervals(s, e))
            if horizon is not None and horizon < _SKETCH_RANK:
                return SingularSpectrum(s_small, order=n0, horizon=horizon)
        except np.linalg.LinAlgError:
            pass
    # the exact values of full SVDs always decide
    b = singular_spectrum(big).values
    a = singular_spectrum(small).values
    return SingularSpectrum(a, order=n0, horizon=_scan_horizon(a, a, b, b))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def spectrum_to_csv(spectrum: SingularSpectrum) -> str:
    """CSV dump: header ``n,sigma,N,horizon``, 17 significant digits."""
    buf = io.StringIO()
    buf.write("n,sigma,N,horizon\n")
    horizon = "" if spectrum.horizon is None else str(spectrum.horizon)
    for i, sigma in enumerate(spectrum.values, start=1):
        buf.write(f"{i},{sigma:.17g},{spectrum.order},{horizon}\n")
    return buf.getvalue()


def spectrum_from_csv(text: str) -> SingularSpectrum:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "n,sigma,N,horizon":
        raise ValueError("not a spectrum CSV (missing 'n,sigma,N,horizon' header)")
    values, order, horizon = [], 0, None
    for ln in lines[1:]:
        _, sigma, n_str, hor = ln.split(",")
        values.append(float(sigma))
        order = int(n_str)
        horizon = int(hor) if hor else None
    return SingularSpectrum(np.array(values), order=order, horizon=horizon)
