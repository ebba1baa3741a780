"""Truncated matrix models of (weighted) composition operators and their spectra.

On the monomial basis of H^2, column k of the matrix of ``g -> w * (g o phi)``
holds the Taylor coefficients of ``w * phi**k``.  Powers are built by iterated
truncated Cauchy products of the base coefficient vector (column-wise
recursion, never boundary-FFT extraction, whose ``r**-j`` factor would
amplify errors for maps that touch the circle).

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

The horizon compares the N0 spectrum (a full dense SVD) with the leading
values of the 2*N0 truncation A.  Those come from randomized subspace
iteration (Halko, Martinsson & Tropp 2011, Alg. 4.4) with a fixed seed:
for an orthonormal Q, B = Q^H A and E = A - Q B give A^H A = B^H B + E^H E,
so by Weyl's inequality sigma_j(A) lies in [sigma_j(B), sqrt(sigma_j(B)**2
+ ||E||_F**2)].  A comparison is decided only when the 1% test gives one
answer over the whole interval; when one up to index horizon+1 is not, or
N0 <= k, a full SVD of A decides.  The horizon therefore always equals the
full-SVD one.

The N0 SVD and the 2*N0 build do not depend on each other, so each doubling
runs them at once: the caller's thread builds the N0 matrix, hands its SVD
to one worker thread, builds the 2*N0 matrix and joins the worker before
the sketch starts.  The join sits there for memory, not speed: a sketch
running beside the SVD would hold the 2*N0 matrix, its sketch buffers, the
N0 matrix and the SVD workspace at once (peak memory of the smooth
benchmark pipeline at N0 = 1024: 149 MB instead of 130 MB).  The worker
looks ``singular_spectrum`` up through this module, so a wrapper installed
on it sees the call; an error of the N0 SVD is raised in preference to one
of the 2*N0 build, as when the SVD ran first.  Holding the N0 matrix during
the 2*N0 build is paid for by the difference build: ``difference_matrix``
runs the phi and psi power recursions in lockstep and subtracts each pair
of columns into one N x N buffer of the result dtype, so neither power
table is ever held whole.  The values are those of the two tables
subtracted, bit for bit.
"""

from __future__ import annotations

import functools
import io
import math
import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundaryFixedOrigin,
    HorizonExceeded,
    NonFinite,
    NotSelfMap,
    NumericalBreakdown,
)
from .series import Symbol, eval_boundary, boundary_grid, evaluate, taylor_array, validate_self_map

_VALIDATION_SAMPLES = 2048
_HORIZON_RTOL = 1e-2
_HORIZON_FLOOR = 1e-14  # relative to sigma_1 of the 2*N0 spectrum
# leading values of the 2*N0 matrix: sketch size, power iterations,
# fixed sketch seed, and the rounding slack (relative to sigma_1) that widens
# every certified interval
_SKETCH_RANK = 128
_POWER_ITERATIONS = 2
_SKETCH_SEED = 0
_ROUNDING_SLACK = 1e-13


@functools.lru_cache(maxsize=256)
def _self_map_report(symbol: Symbol):
    return validate_self_map(symbol, _VALIDATION_SAMPLES)


def ensure_self_map(symbol: Symbol) -> None:
    report = _self_map_report(symbol)
    if not report.passed:
        raise NotSelfMap(
            f"{symbol.name}: boundary modulus reaches {report.max_modulus:.6g}")


def _ensure_bounded_weight(symbol: Symbol) -> float:
    values = np.abs(eval_boundary(symbol, boundary_grid(1024)))
    if not np.all(np.isfinite(values)) or values.max() > 1e8:
        raise NonFinite(f"weight {symbol.name} is not bounded on the disc")
    return float(values.max())


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense N x N truncation with builder metadata."""

    matrix: np.ndarray
    symbol_name: str

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

def _power_columns(base: np.ndarray, first: np.ndarray, n: int,
                   cols: int) -> tuple:
    """Columns first, first*base, first*base^2, ... truncated to n coefficients.

    Returns ``(dtype, columns)``: float64 when both inputs have exactly zero
    imaginary parts, complex128 otherwise, and an iterator over the ``cols``
    columns, each computed from the one before it, so a caller can store or
    combine each column as it comes.
    """
    real = not (np.any(np.imag(base)) or np.any(np.imag(first)))
    if real:
        base, first = np.real(base), np.real(first)
    return (float if real else complex), _powers(base, first, n, cols, real)


def _powers(base: np.ndarray, first: np.ndarray, n: int, cols: int,
            real: bool):
    yield first
    col = first
    if n <= 128:
        for _ in range(1, cols):
            col = np.convolve(col, base)[:n]
            yield col
        return
    size = 1 << (2 * n - 1).bit_length()
    # size is even, so irfft's default output length is size
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    fbase = fft(base, size)
    for _ in range(1, cols):
        col = ifft(fft(col, size) * fbase)[:n]
        yield col


def _power_table(base: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """N x N table whose column k is first * base**k (see _power_columns)."""
    dtype, columns = _power_columns(base, first, n, n)
    out = np.empty((n, n), dtype=dtype)
    for k, col in enumerate(columns):
        out[:, k] = col
    return out


def _unit(n: int) -> np.ndarray:
    first = np.zeros(n)
    first[0] = 1.0
    return first


def _difference_table(phi: Symbol, psi: Symbol, n: int, cols: int) -> np.ndarray:
    """n x cols table whose column k holds taylor(phi**k - psi**k, n).

    The two power recursions run in lockstep and each pair of columns is
    subtracted straight into one buffer of the result dtype, so no power
    table of either symbol is ever held; the values are those of the two
    tables subtracted.
    """
    one = _unit(n)
    (dtype_a, a), (dtype_b, b) = (_power_columns(taylor_array(s, n), one, n, cols)
                                  for s in (phi, psi))
    out = np.empty((n, cols), dtype=np.result_type(dtype_a, dtype_b))
    for k, (col_a, col_b) in enumerate(zip(a, b)):
        np.subtract(col_a, col_b, out=out[:, k])
    return out


def _check_order(n: int) -> None:
    if n < 2:
        raise ValueError("truncation order must be at least 2")


def composition_matrix(phi: Symbol, n: int) -> TruncatedOperator:
    """N x N truncation of C_phi : f -> f o phi; column k = taylor(phi**k, N)."""
    _check_order(n)
    ensure_self_map(phi)
    return TruncatedOperator(_power_table(taylor_array(phi, n), _unit(n), n),
                             phi.name)


def weighted_composition_matrix(omega: Symbol, phi: Symbol, n: int) -> TruncatedOperator:
    """Truncation of g -> omega * (g o phi); column k = taylor(omega * phi**k, N)."""
    _check_order(n)
    ensure_self_map(phi)
    _ensure_bounded_weight(omega)
    base = taylor_array(phi, n)
    first = taylor_array(omega, n)
    return TruncatedOperator(_power_table(base, first, n), phi.name)


def difference_matrix(phi: Symbol, psi: Symbol, n: int) -> TruncatedOperator:
    """N x N truncation of C_phi - C_psi, built in one N x N buffer."""
    _check_order(n)
    ensure_self_map(phi)
    ensure_self_map(psi)
    return TruncatedOperator(_difference_table(phi, psi, n, n),
                             f"{phi.name} - {psi.name}")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def singular_spectrum(op: TruncatedOperator) -> SingularSpectrum:
    """Dense SVD of the truncation, values sorted non-increasing."""
    if not np.all(np.isfinite(op.matrix)):
        raise NumericalBreakdown("matrix contains non-finite entries")
    try:
        values = np.linalg.svd(op.matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(str(exc)) from exc
    return SingularSpectrum(values, order=op.order)


def difference_spectrum(phi: Symbol, psi: Symbol, n: int) -> SingularSpectrum:
    """Spectrum of C_phi - C_psi at truncation N; identical symbols short-circuit to 0."""
    if phi.expr == psi.expr:
        ensure_self_map(phi)
        return SingularSpectrum(np.zeros(n), order=n, horizon=n)
    return singular_spectrum(difference_matrix(phi, psi, n))


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
    count = min(count, len(products))
    values = products[:count]
    horizon = None
    if s.horizon is not None and t.horizon is not None:
        trusted = np.sort(np.outer(s.values[: s.horizon],
                                   t.values[: t.horizon]).ravel())[::-1]
        # the leading tensor values are trusted as long as the full product
        # list agrees with the trusted-only list
        horizon = 0
        for a, b in zip(values, trusted):
            if a != b:
                break
            horizon += 1
    return SingularSpectrum(values, order=s.order * t.order, horizon=horizon)


def _leading_values(matrix: np.ndarray, k: int) -> tuple:
    """Leading singular values of a square matrix A, with a certified error.

    Randomized subspace iteration (Halko, Martinsson & Tropp, SIAM Rev. 53,
    2011, Alg. 4.4): a fixed-seed Gaussian sketch, ``_POWER_ITERATIONS``
    passes through A^H and A, and a QR after every product, give an
    orthonormal Q with k columns.  With B = Q^H A and E = A - Q B,
    A^H A = B^H B + E^H E exactly, so by Weyl's inequality sigma_j(A) lies in
    [s_j, sqrt(s_j**2 + e**2)], where s = sigma(B) (s_j = 0 for j > k) and
    e = ||E||_F.  Returns ``(s, e)``; E is formed in column blocks.
    """
    n = matrix.shape[1]
    rng = np.random.default_rng(_SKETCH_SEED)
    q, _ = np.linalg.qr(matrix @ rng.standard_normal((n, k)))
    for _ in range(_POWER_ITERATIONS):
        # A^H Q as (Q^H A)^H, so A itself is never conjugated
        q, _ = np.linalg.qr((q.conj().T @ matrix).conj().T)
        q, _ = np.linalg.qr(matrix @ q)
    b = q.conj().T @ matrix
    e_sq = 0.0
    for start in range(0, n, k):
        block = matrix[:, start:start + k] - q @ b[:, start:start + k]
        e_sq += float(np.linalg.norm(block)) ** 2
    return np.linalg.svd(b, compute_uv=False), math.sqrt(e_sq)


def _passes(a: float, b: float, floor: float) -> bool:
    return abs(a - b) <= _HORIZON_RTOL * max(b, floor)


def _scan_horizon(small: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  floor_lo: float, floor_hi: float) -> Optional[int]:
    """Horizon of ``small`` against 2*N0 values known to lie in [lo, hi], or None.

    Each comparison is evaluated at both ends of its interval, the floor at
    both ends of [floor_lo, floor_hi].  The pass set of the 1% test is an
    interval in b that contains a and grows with the floor, so a comparison
    that passes at both ends (lowest floor), or fails at both ends on the
    same side of a (highest floor), is decided for every value inside.
    Returns None when a comparison before the first decided failure is not
    decided; exact values (lo = hi, one floor) always decide.
    """
    for n, a in enumerate(small):
        if _passes(a, lo[n], floor_lo) and _passes(a, hi[n], floor_lo):
            continue
        if (not _passes(a, lo[n], floor_hi) and not _passes(a, hi[n], floor_hi)
                and not lo[n] <= a <= hi[n]):
            return n
        return None
    return len(small)


def _spectrum_into(box: list, op: TruncatedOperator) -> None:
    """Append singular_spectrum(op), or the exception it raised, to ``box``.

    Looks ``singular_spectrum`` up at call time, so a wrapper installed on
    the module is seen from the worker thread too.
    """
    try:
        box.append(singular_spectrum(op))
    except BaseException as exc:
        box.append(exc)


def convergence_horizon(build: Callable[[int], TruncatedOperator],
                        n0: int) -> SingularSpectrum:
    """Build at N0 and 2*N0; annotate the N0 spectrum with its stability horizon.

    The horizon is the largest n* such that sigma_n agrees within 1% between
    the two truncations for every n <= n*.  The N0 spectrum is a full dense
    SVD.  Of the 2*N0 matrix A only the leading k values are computed
    (:func:`_leading_values`, k = 128): each sigma_n(A) is known to lie in
    [s_n, sqrt(s_n**2 + e**2)], widened by 1e-13 sigma_1 for rounding.  The
    scan decides a comparison only when the 1% test gives the same answer
    over the whole interval, so the horizon is the one a full SVD of A gives.
    When a comparison up to index horizon+1 is not decided, or N0 <= 128,
    the 2*N0 spectrum is a full dense SVD and the scan runs on it.  A pass
    can be certified only while sigma_n stays above about 1e-11 sigma_1
    (the slack over the 1% tolerance), so a horizon that reaches past that
    level (a dilation's exact truncations) costs one sketch on top of the
    full SVD.

    The N0 SVD runs on one worker thread while the caller's thread builds
    the 2*N0 matrix, and is joined before the sketch, so the sketch never
    overlaps the SVD: that would hold the N0 matrix and the SVD workspace
    next to the 2*N0 matrix and its sketch, and raise peak memory.  An error
    of the N0 SVD wins over one of the 2*N0 build.  The values are the same
    bits as with the two steps in sequence.
    """
    if n0 < 16:
        raise ValueError("doubling diagnostics start at N0 >= 16")
    # the worker holds the only reference to the N0 matrix, so the matrix is
    # freed as soon as its SVD returns
    box: list = []
    worker = threading.Thread(target=_spectrum_into, args=(box, build(n0)),
                              daemon=True)
    worker.start()
    try:
        big = build(2 * n0)
    finally:
        worker.join()
        if isinstance(box[0], BaseException):
            raise box[0]
    s_small = box[0]
    # one sketch; a non-finite matrix goes straight to singular_spectrum,
    # which raises
    if n0 > _SKETCH_RANK and np.all(np.isfinite(big.matrix)):
        try:
            s, e = _leading_values(big.matrix, _SKETCH_RANK)
        except np.linalg.LinAlgError:
            pass
        else:
            # Weyl intervals, s_n = 0 past k, every end widened by the slack
            s_n = np.pad(s, (0, n0 - len(s)))
            hi_1 = math.sqrt(s[0] ** 2 + e ** 2)
            slack = _ROUNDING_SLACK * hi_1
            horizon = _scan_horizon(
                s_small.values, np.maximum(s_n - slack, 0.0),
                np.sqrt(s_n ** 2 + e ** 2) + slack,
                _HORIZON_FLOOR * max(s[0] - slack, 1e-300),
                _HORIZON_FLOOR * max(hi_1 + slack, 1e-300))
            if horizon is not None:
                return replace(s_small, horizon=horizon)
    b = singular_spectrum(big).values
    floor = _HORIZON_FLOOR * max(b[0], 1e-300)
    return replace(s_small,
                   horizon=_scan_horizon(s_small.values, b, b, floor, floor))


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
