"""Reference computations that tests compare the production code against.

None of these sits on a production path: each is slower, narrower or less
stable than the code it checks, which is what makes it an independent check.
"""

import math

import numpy as np

from compdiff.hardy import (as_points, cumulative_hyperbolic_length,
                            pseudo_distance_array)
from compdiff.operators import difference_matrix
from compdiff.series import eval_array


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


def kernel_gram(points):
    """Gram matrix G[j, k] = <k_{z_k}, k_{z_j}> = 1/(1 - conj(z_j) z_k)."""
    z = as_points(points, distinct=False).points
    return 1.0 / (1.0 - np.conj(z)[:, None] * z[None, :])


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
