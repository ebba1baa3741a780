"""Geometry of the disc and H^2: the pseudohyperbolic distance, Blaschke
products, hyperbolic arc length, uniform separation and Carleson norms.

Each quantity the certificates use has one implementation here.

Carleson norms of atomic measures are estimated on a dyadic window grid:
windows ``Q(theta0, delta) = {r e^{i theta}: r >= 1 - delta, |theta - theta0| <= delta}``
with ``delta = 2**-m`` and ``theta0`` stepping by ``delta/2``.  Every grid
window is a genuine Carleson window, so the reported supremum is a guaranteed
lower bound on the true norm; the grid is refined until no window can contain
a point, which caps the achievable ratio exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DuplicatePoints

_DISTINCT_TOL = 1e-15


# ---------------------------------------------------------------------------
# point sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointSequence:
    """A finite ordered list of points of the open disc."""

    points: np.ndarray
    distinct: bool = True

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if np.any(np.abs(pts) >= 1):
            raise ValueError("all points must lie in the open disc")
        if self.distinct and len(pts) > 1:
            if _min_pairwise_distance(pts) < _DISTINCT_TOL:
                raise DuplicatePoints("points closer than 1e-15 in a distinct sequence")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


PointsLike = Union[PointSequence, Sequence[complex], np.ndarray]


def as_points(z: PointsLike, distinct: bool = True) -> PointSequence:
    if isinstance(z, PointSequence):
        return z
    return PointSequence(np.asarray(list(z), dtype=complex), distinct=distinct)


def _min_pairwise_distance(pts: np.ndarray) -> float:
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


# ---------------------------------------------------------------------------
# pseudohyperbolic distance
# ---------------------------------------------------------------------------

def pseudo_distance_array(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rho(z, w) = |z - w| / |1 - conj(z) w| elementwise, clipped to [0, 1];
    rho = 0 wherever z == w exactly.

    Safe on boundary samples where the denominator underflows: rho on the
    closed bidisc never exceeds 1, so clipping cannot weaken suprema.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    num = np.abs(z - w)
    den = np.abs(1 - np.conj(z) * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = num / np.maximum(den, 1e-300)
    rho = np.where(num == 0, 0.0, rho)
    return np.clip(np.where(np.isfinite(rho), rho, 1.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Blaschke products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with the prescribed zeros."""

    zeros: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=complex).ravel()
        if np.any(np.abs(z) >= 1):
            raise ValueError("Blaschke zeros must lie in the open disc")
        z.setflags(write=False)
        object.__setattr__(self, "zeros", z)

    @property
    def degree(self) -> int:
        return len(self.zeros)


def blaschke_eval(product: BlaschkeProduct, z) -> np.ndarray:
    """Evaluate prod_a (|a|/a)(a - z)/(1 - conj(a) z), with factor z when a = 0."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    out = np.ones_like(zz)
    for a in product.zeros:
        if a == 0:
            out = out * zz
        else:
            out = out * (abs(a) / a) * (a - zz) / (1 - a.conjugate() * zz)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# hyperbolic length
# ---------------------------------------------------------------------------

def cumulative_hyperbolic_length(pts: np.ndarray) -> np.ndarray:
    """Running hyperbolic length along a sampled path (first entry 0).

    Composite trapezoid for 2 * integral |dz| / (1 - |z|^2); the last entry
    is the length of the whole path.
    """
    g = 2.0 / (1.0 - np.abs(pts) ** 2)
    seg = np.abs(np.diff(pts)) * (g[:-1] + g[1:]) / 2.0
    return np.concatenate([[0.0], np.cumsum(seg)])


# ---------------------------------------------------------------------------
# separation and Carleson norm
# ---------------------------------------------------------------------------

def _log_rho_matrix(pts: np.ndarray) -> np.ndarray:
    num = np.abs(pts[:, None] - pts[None, :])
    den = np.abs(1 - np.conj(pts)[:, None] * pts[None, :])
    with np.errstate(divide="ignore"):
        lr = np.log(num) - np.log(den)
    np.fill_diagonal(lr, 0.0)
    return lr


def uniform_separation(points: PointsLike) -> float:
    """delta(Z) = inf_j prod_{k != j} rho(z_j, z_k); empty products are 1."""
    seq = as_points(points, distinct=True)
    pts = seq.points
    if len(pts) <= 1:
        return 1.0
    if _min_pairwise_distance(pts) < _DISTINCT_TOL:
        raise DuplicatePoints("uniform separation requires distinct points")
    # products over many near-unit factors: run in the log domain
    log_products = _log_rho_matrix(pts).sum(axis=1)
    return float(np.exp(log_products.min()))


def carleson_norm(points: PointsLike) -> float:
    """Estimate the Carleson norm of nu_Z = sum_j (1 - |z_j|^2) delta_{z_j}.

    The supremum runs over dyadic windows of side 2^-m, m <= 52, centred on a
    half-side angular grid.
    """
    seq = as_points(points, distinct=False)
    pts = seq.points
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
        acc: dict = {}
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

