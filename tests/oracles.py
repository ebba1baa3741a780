"""Reference computations that tests compare the production code against.

None of these sits on a production path: each is slower, narrower or less
stable than the code it checks, which is what makes it an independent check.
"""

import math

import numpy as np

from compdiff.bounds import _SUP_SAMPLES, _sup_values, boundary_sup
from compdiff.hardy import (as_points, cumulative_hyperbolic_length,
                            pseudo_distance_array)
from compdiff.operators import (_SKETCH_SEED, difference_matrix,
                                tensor_spectrum)
from compdiff.series import eval_array, taylor_array


def contour_coefficients(symbol, n, radius=0.5, oversampling=8):
    """Taylor coefficients by trapezoid sampling on |z| = radius.

    The ``radius**-j`` factor amplifies rounding noise, so the oracle is
    trustworthy only for the leading coefficients.
    """
    m = oversampling * n
    t = 2 * np.pi * np.arange(m) / m
    values = eval_array(symbol, radius * np.exp(1j * t))
    j = np.arange(n)
    phases = np.exp(-1j * np.outer(j, t))
    return (phases @ values) / m / radius ** j


def hs_parseval_sum(phi, psi, n0=256, rel_tol=1e-6, max_doublings=5):
    """sum_k ||taylor(phi^k) - taylor(psi^k)||^2, the coefficient side of hs_norm.

    Squared Frobenius norm of the difference truncation, stabilised by
    doubling N.
    """
    n = n0
    prev = None
    for _ in range(max_doublings):
        value = float(np.linalg.norm(difference_matrix(phi, psi, n).matrix) ** 2)
        if prev is not None and abs(value - prev) <= rel_tol * max(value, 1e-300):
            return value
        prev = value
        n *= 2
    return prev


def power_table_by_convolution(base, first, n, cols):
    """n x cols table with column k = trunc(first * base**k), by direct sums.

    The one-column ``np.convolve`` recursion of the n <= 128 build, run at
    any n and always in complex128: no FFT, no blocking.
    """
    out = np.empty((n, cols), dtype=complex)
    col = np.asarray(first, dtype=complex)
    out[:, 0] = col
    for k in range(1, cols):
        col = np.convolve(col, base)[:n]
        out[:, k] = col
    return out


def difference_table_by_convolution(phi, psi, n, cols):
    """n x cols table with column k = trunc(phi**k - psi**k), by direct sums."""
    unit = np.eye(1, n).ravel()
    return (power_table_by_convolution(taylor_array(phi, n), unit, n, cols)
            - power_table_by_convolution(taylor_array(psi, n), unit, n, cols))


def leading_values_one_sketch(matrix, k):
    """The randomized range finder with E in freshly allocated blocks.

    The unbuffered form of ``operators._leading_values``: the same seed, the
    same sketch, QR and products, E formed one fresh column block at a time.
    Returns ``(sigma(Q^H A), ||A - Q Q^H A||_F)``.
    """
    n = matrix.shape[1]
    rng = np.random.default_rng(_SKETCH_SEED)
    q, _ = np.linalg.qr(matrix @ rng.standard_normal((n, k)))
    b = q.conj().T @ matrix
    e_sq = 0.0
    for start in range(0, n, k):
        block = matrix[:, start:start + k] - q @ b[:, start:start + k]
        e_sq += float(np.linalg.norm(block)) ** 2
    return np.linalg.svd(b, compute_uv=False), math.sqrt(e_sq)


def tensor_values_walk(s, t, count):
    """Leading ``count`` tensor products and their horizon, by two sorted lists.

    The walk form of ``operators.tensor_spectrum``: the trusted products
    (both factors inside their horizons) are sorted on their own, and the
    horizon is the length of the common prefix of the two sorted lists.
    Returns ``(values, horizon)``; the horizon is None unless both factors
    carry one.
    """
    products = np.sort(np.outer(s.values, t.values).ravel())[::-1]
    values = products[:min(count, len(products))]
    if s.horizon is None or t.horizon is None:
        return values, None
    trusted = np.sort(np.outer(s.values[: s.horizon],
                               t.values[: t.horizon]).ravel())[::-1]
    horizon = 0
    for a, b in zip(values, trusted):
        if a != b:
            break
        horizon += 1
    return values, horizon


def kronecker_mismatch(a, b, sa, sb):
    """Largest gap between the singular values of ``kron(a, b)`` and
    ``tensor_spectrum(sa, sb)``, relative to the largest singular value."""
    direct = np.linalg.svd(np.kron(a, b), compute_uv=False)
    via = tensor_spectrum(sa, sb, len(direct)).values
    return float(np.abs(via - direct).max() / max(direct[0], 1e-300))


def glued_difference_matrix(phi, psi, m):
    """Truncation of C_Phi - C_Psi for glued symbols (f(z1, z2) -> f(phi, phi)).

    Basis z1^j z2^k with j, k < m, packed as index j*m + k; the image of
    every monomial depends on z1 alone, so all rows with z2-degree > 0
    vanish.  The m^2 x m^2 matrix that the glued driver's column-scaled
    one-variable table replaces.
    """
    # column s holds the first m coefficients of phi**s - psi**s
    diff = difference_table_by_convolution(phi, psi, m, 2 * m - 1)
    out = np.zeros((m * m, m * m), dtype=diff.dtype)
    # rows (p, q=0) sit at index p*m; basis column j*m + k takes diff[:, j + k]
    j, k = divmod(np.arange(m * m), m)
    out[::m] = diff[:, j + k]
    return out


def kernel_gram(points):
    """Gram matrix G[j, k] = <k_{z_k}, k_{z_j}> = 1/(1 - conj(z_j) z_k)."""
    z = as_points(points).points
    return 1.0 / (1.0 - np.conj(z)[:, None] * z[None, :])


def carleson_norm_by_window(points):
    """Dyadic-window Carleson estimate with one dict entry per window.

    The window-by-window form of ``hardy.carleson_norm``: the same windows,
    the same 1e-12 rounding guard, and each window's masses summed in point
    order, so the two agree bit for bit.
    """
    pts = as_points(points).points
    if len(pts) == 0:
        raise ValueError("carleson_norm requires a nonempty sequence")
    masses = 1.0 - np.abs(pts) ** 2
    gaps = 1.0 - np.abs(pts)
    angles = np.angle(pts)

    best = 0.0
    for m in range(53):
        delta = 2.0 ** (-m)
        admissible = gaps <= delta
        if not np.any(admissible):
            break
        step = delta / 2.0
        k_lo = math.ceil(-math.pi / step)
        k_hi = math.floor(math.pi / step)
        acc = {}
        for theta, mass in zip(angles[admissible], masses[admissible]):
            for shift in (-2 * math.pi, 0.0, 2 * math.pi):
                th = theta + shift
                lo = max(k_lo, math.ceil((th - delta) / step - 1e-12))
                hi = min(k_hi, math.floor((th + delta) / step + 1e-12))
                for k in range(lo, hi + 1):
                    acc[k] = acc.get(k, 0.0) + mass
        if acc:
            best = max(best, max(acc.values()) / delta)
    return float(best)


def hyperbolic_distance(z, w):
    """d(z, w) = log((1 + rho)/(1 - rho)) for two points of the open disc."""
    rho = float(pseudo_distance_array(z, w))
    if rho >= 1:
        raise ValueError("hyperbolic distance requires both points inside the disc")
    return math.log1p(rho) - math.log1p(-rho)


def hyperbolic_length_refined(parametrize, t0, t1, rel_tol=1e-6, start=64,
                              max_doublings=22):
    """Length of a parametrised curve, sampled ever finer by doubling until
    the trapezoid of ``cumulative_hyperbolic_length`` is stable."""
    n = start
    prev = None
    for _ in range(max_doublings):
        t = np.linspace(t0, t1, n + 1)
        length = float(cumulative_hyperbolic_length(parametrize(t))[-1])
        if prev is not None and abs(length - prev) <= rel_tol * max(abs(length), 1e-300):
            return length
        prev = length
        n *= 2
    return prev


def weighted_difference_bound(u0, u1, n, diff_spectrum, phi0_spectrum,
                              phi1_spectrum):
    """min of the two cross combinations bounding a_n(M_u0 C_phi0 - M_u1 C_phi1):

    ||u_i||_inf a_n(C_phi0 - C_phi1) + ||u0 - u1||_inf a_n(C_phi_{1-i}),

    each a_n read within its spectrum's horizon.  It is block k = 1 of
    ``bounds.triangular_bound`` written out on its own.
    """
    a_diff = diff_spectrum.sigma_checked(n)
    a0 = phi0_spectrum.sigma_checked(n)
    a1 = phi1_spectrum.sigma_checked(n)
    sup0 = boundary_sup(u0)
    sup1 = boundary_sup(u1)
    d01 = float(np.abs(_sup_values(u0, _SUP_SAMPLES)
                       - _sup_values(u1, _SUP_SAMPLES)).max())
    return min(sup0 * a_diff + d01 * a1, sup1 * a_diff + d01 * a0)
