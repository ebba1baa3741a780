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
    """A finite ordered list of points of the open disc, duplicates allowed."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if np.any(np.abs(pts) >= 1):
            raise ValueError("all points must lie in the open disc")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


PointsLike = Union[PointSequence, Sequence[complex], np.ndarray]


def as_points(z: PointsLike) -> PointSequence:
    if isinstance(z, PointSequence):
        return z
    return PointSequence(np.asarray(list(z), dtype=complex))


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
    out = np.ones_like(zz)
    for a in product.zeros:
        if a == 0:
            out = out * zz
        else:
            out = out * (abs(a) / a) * (a - zz) / (1 - a.conjugate() * zz)
    return out


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

def _separation(pts: np.ndarray) -> tuple:
    """(min_{j != k} |z_j - z_k|, delta) from one |z_j - z_k| matrix; delta is
    0 when the gap is below 1e-15, and 1 (the empty product) for one point."""
    if len(pts) <= 1:
        return math.inf, 1.0
    num = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(num, np.inf)
    gap = float(num.min())
    if gap < _DISTINCT_TOL:
        return gap, 0.0
    den = np.abs(1 - np.conj(pts)[:, None] * pts[None, :])
    # products over many near-unit factors: run in the log domain
    log_rho = np.log(num) - np.log(den)
    np.fill_diagonal(log_rho, 0.0)
    return gap, float(np.exp(log_rho.sum(axis=1).min()))


def uniform_separation(points: PointsLike) -> float:
    """delta(Z) = inf_j prod_{k != j} rho(z_j, z_k); empty products are 1.
    Duplicates are caught in the |z_j - z_k| matrix that rho needs anyway."""
    gap, delta = _separation(as_points(points).points)
    if gap < _DISTINCT_TOL:
        raise DuplicatePoints("uniform separation requires distinct points")
    return delta


def carleson_norm(points: PointsLike) -> float:
    """Estimate the Carleson norm of nu_Z = sum_j (1 - |z_j|^2) delta_{z_j}.

    The supremum runs over dyadic windows of side 2^-m, m <= 52, centred on a
    half-side angular grid.
    """
    pts = as_points(points).points
    if len(pts) == 0:
        raise ValueError("carleson_norm requires a nonempty sequence")
    masses = 1.0 - np.abs(pts) ** 2
    gaps = 1.0 - np.abs(pts)
    # each angle and its 2 pi shifts; no window meets two copies of a point
    thetas = np.angle(pts)[:, None] + np.array([-2 * math.pi, 0.0, 2 * math.pi])

    best = 0.0
    for m in range(53):
        delta = 2.0 ** (-m)
        admissible = gaps <= delta
        if not np.any(admissible):
            break
        step = delta / 2.0
        th = thetas[admissible]
        lo = np.maximum(math.ceil(-math.pi / step),
                        np.ceil((th - delta) / step - 1e-12).astype(np.int64))
        hi = np.minimum(math.floor(math.pi / step),
                        np.floor((th + delta) / step + 1e-12).astype(np.int64))
        # the windows k = lo..hi of each copy, listed point by point, so that
        # bincount sums every window's masses in point order
        inside = np.arange((hi - lo).max() + 1) <= (hi - lo)[..., None]
        windows = (lo[..., None] + np.arange(inside.shape[-1]))[inside]
        slot = np.unique(windows, return_inverse=True)[1]
        mass = np.repeat(masses[admissible], inside.sum(axis=(1, 2)))
        best = max(best, np.bincount(slot, mass).max() / delta)
    return float(best)
