"""Decay certificates for differences of (weighted) composition operators.

Lower certificates bound the n-th approximation number from below through
interpolation on reproducing kernels, one code path for C_phi - C_psi and
M_omega C_phi (ratio terms |omega|^2 (1-|z|^2)/(1-|phi|^2), omega = 1
unweighted): with ``W = phi(Z) u psi(Z)`` of cardinality ``2n``,

    a_n >= M(W)^-1 ||nu_Z||_C^{-1/2}
           inf_j [ (1-|z_j|^2)/(1-|phi(z_j)|^2) + (1-|z_j|^2)/(1-|psi(z_j)|^2) ]^{1/2}

and, in constant-free form (Shapiro-Shields plus the logarithmic Carleson
bound),

    a_n >~ delta(W) inf^{1/2}
           / [ (1 + log 1/delta(W))^{1/2} (1 + log 1/delta(Z))^{1/2} ].

Upper certificates bound it from above by damping with a Blaschke product B
of degree n-1: with ``w(z) = rho(phi(z), psi(z))``,

    a_n <~ ( sup_{|phi|<=r} |B o phi| + sup_{|psi|<=r} |B o psi|
           + sup_{|phi|>r} w + sup_{|psi|>r} w ) (||C_phi|| + ||C_psi||).

All unspecified absolute constants are dropped: every certificate carries a
``constants: unspecified`` flag and downstream comparisons are rate (slope)
comparisons, never absolute dominations.  Boundary suprema are dense-grid
samples with one refinement doubling.  The coarse grid is a subset of the fine
one, bit for bit, so every supremum is evaluated once, on the fine grid, and
one helper reads each sup as (coarse, fine, empty) off the kept fine-grid
points; both upper certificates derive the 2% stability and empty-set flags
from those triples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CollidingImages,
    DisconnectedLevelSet,
    EmptyRange,
    ImageOnBoundary,
    WeightTooLarge,
)
from .hardy import (
    BlaschkeProduct,
    PointSequence,
    _min_pairwise_distance,
    as_points,
    blaschke_eval,
    carleson_norm,
    cumulative_hyperbolic_length,
    pseudo_distance_array,
    uniform_separation,
)
from .operators import SingularSpectrum, operator_norm_bound
from .series import Symbol, eval_array, eval_boundary, sup_grid

_IMAGE_COLLISION_TOL = 1e-14
_trapezoid = getattr(np, "trapezoid", None) or np.trapz
_SUP_SAMPLES = 1 << 13          # per side; doubled once for the stability check
_SUP_STABILITY = 0.02
_HS_REL_TOL = 1e-6
_HS_MAX_ROUNDS = 14


def _c2ri(z: complex) -> list:
    return [float(z.real), float(z.imag)]


@functools.lru_cache(maxsize=128)
def _sup_values(symbol: Symbol, side: int) -> np.ndarray:
    """Cached boundary values on the densified supremum grid."""
    values = eval_boundary(symbol, sup_grid(side))
    values.setflags(write=False)
    return values


_W_DEN_FLOOR = 1e-12
_W_MP_POINTS = 64


@functools.lru_cache(maxsize=64)
def _w_values(phi: Symbol, psi: Symbol, side: int) -> np.ndarray:
    """Boundary samples of w = rho(phi, psi), safe against contact cancellation.

    The certificates take it in one pass, on the fine grid
    ``sup_grid(2 * _SUP_SAMPLES)``, and read the coarse-grid samples off it.
    Where the double-precision denominator |1 - conj(phi) psi| drops below
    1e-12 (deep in the contact region) the quotient degenerates to junk/junk;
    those samples are re-evaluated with mpmath on a logarithmically decimated
    subset and the rest of the unreliable range inherits zero.  Zeroing can
    only deflate a supremum, the unsafe direction for an upper certificate,
    so this assumes w stays far below the reliable sup there.  Unchecked at
    run time; measured on the smooth pair at alpha = 2.5, 3,060 of the fine
    grid's 32,768 samples are unreliable and their 64 mpmath values peak at
    2.8e-5 against a reliable sup of 2.8e-2.
    """
    from .series import boundary_rho_mp

    t = sup_grid(side)
    phi_v = _sup_values(phi, side)
    psi_v = _sup_values(psi, side)
    w = pseudo_distance_array(phi_v, psi_v)

    # a sample with den < 1e-12 has rho > 0 exactly when phi != psi there
    den = np.abs(1 - np.conj(phi_v) * psi_v)
    bad = (den < _W_DEN_FLOOR) & (w > 0)
    if np.any(bad):
        w[bad] = 0.0
        bad_idx = np.nonzero(bad)[0]
        take = np.unique(np.round(
            np.linspace(0, len(bad_idx) - 1,
                        min(_W_MP_POINTS, len(bad_idx)))).astype(int))
        for i in bad_idx[take]:
            ti = float(t[i])
            dps = max(50, 30 + int(6 * abs(math.log10(max(abs(ti), 1e-300)))))
            w[i] = boundary_rho_mp(phi, psi, ti, dps)
    w.setflags(write=False)
    return w


# ---------------------------------------------------------------------------
# test sequences
# ---------------------------------------------------------------------------

def sequence_boundary_pinch(n: int) -> PointSequence:
    """z_j = (1 + exp(i/(n-j)))/2 for 1 <= j <= floor(n/2).

    Points marching toward the contact point 1 along a pinched arc; suited to
    symbols with an angular derivative at 1.
    """
    if n < 4:
        raise ValueError("boundary pinch sequence needs n >= 4")
    j = np.arange(1, n // 2 + 1)
    return PointSequence((1.0 + np.exp(1j / (n - j))) / 2.0)


def sequence_radial(n: int) -> PointSequence:
    """z_j = 1 - exp(-j*eps) for ceil(j0) <= j <= n, eps = log(n)/n.

    The start index j0 = |log eps| / (2 eps) trims the initial points that
    are too far from the boundary to separate the perturbed images.
    """
    eps = math.log(n) / n
    j0 = abs(math.log(eps)) / (2 * eps)
    start = math.ceil(j0)
    if start >= n:
        raise EmptyRange(f"radial start index {start} >= n = {n}")
    j = np.arange(start, n + 1, dtype=float)
    return PointSequence((1.0 - np.exp(-j * eps)).astype(complex))


# ---------------------------------------------------------------------------
# lower certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerCertificate:
    kind: str  # "lower" for C_phi - C_psi, "weighted_lower" for M_omega C_phi
    n: int
    z_points: np.ndarray
    w_points: np.ndarray
    delta_z: float
    delta_w: float
    carleson_z: float
    carleson_w: float
    m_w: float
    inf_ratio: float
    value_theorem: float
    value_constant_free: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "r": None,
            "Z": [_c2ri(z) for z in self.z_points],
            "W": [_c2ri(w) for w in self.w_points],
            "delta_Z": self.delta_z,
            "delta_W": self.delta_w,
            "carleson_Z": self.carleson_z,
            "carleson_W": self.carleson_w,
            "M_W": self.m_w,
            "inf_ratio": self.inf_ratio,
            "value_theorem": self.value_theorem,
            "value_constant_free": self.value_constant_free,
            "flags": {"constants": "unspecified"},
        }


def _images_inside(symbol: Symbol, pts: np.ndarray) -> np.ndarray:
    images = eval_array(symbol, pts)
    if np.any(np.abs(images) >= 1):
        raise ImageOnBoundary(f"{symbol.name} maps a test point onto the circle")
    return images


def _kernel_lower(kind: str, points, terms) -> LowerCertificate:
    """Kernel lower bound for ``terms``, a list of (omega_t or None, phi_t).

    W concatenates the images phi_t(Z) in term order; the ratio is
    sum_t |omega_t(z)|^2 (1-|z|^2)/(1-|phi_t(z)|^2), None meaning omega_t = 1.
    """
    seq = as_points(points, distinct=True)
    z = seq.points
    images = [_images_inside(phi, z) for _, phi in terms]
    w = np.concatenate(images)
    gap = _min_pairwise_distance(w)
    if gap < _IMAGE_COLLISION_TOL:
        raise CollidingImages(
            ("phi(Z) u psi(Z) has fewer than 2 card(Z) points (min gap"
             if kind == "lower" else "phi is not injective on Z (min image gap")
            + f" {gap:.3g})")

    delta_z = uniform_separation(seq)
    delta_w = uniform_separation(PointSequence(w))
    carl_z = carleson_norm(seq)
    carl_w = carleson_norm(PointSequence(w))
    m_w = math.sqrt(carl_w) / delta_w

    base = 1.0 - np.abs(z) ** 2
    ratio = sum((base if omega is None
                 else np.abs(eval_array(omega, z)) ** 2 * base)
                / (1.0 - np.abs(image) ** 2)
                for (omega, _), image in zip(terms, images))
    inf_ratio = float(ratio.min())

    value_theorem = math.sqrt(inf_ratio) / (m_w * math.sqrt(carl_z))
    log_w = 1.0 + math.log(1.0 / delta_w)
    log_z = 1.0 + math.log(1.0 / delta_z)
    value_cf = delta_w * math.sqrt(inf_ratio) / math.sqrt(log_w * log_z)

    return LowerCertificate(
        kind=kind, n=len(z), z_points=z, w_points=w,
        delta_z=delta_z, delta_w=delta_w,
        carleson_z=carl_z, carleson_w=carl_w,
        m_w=m_w, inf_ratio=inf_ratio,
        value_theorem=value_theorem, value_constant_free=value_cf,
    )


def lower_certificate(phi: Symbol, psi: Symbol, points) -> LowerCertificate:
    """Kernel-interpolation lower bound for a_n(C_phi - C_psi), n = card(Z)."""
    return _kernel_lower("lower", points, [(None, phi), (None, psi)])


# ---------------------------------------------------------------------------
# Blaschke zero placement on boundary level curves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _level_curve(phi: Symbol, r: float,
                 samples_per_side: int = 4096) -> np.ndarray:
    """Ordered samples of phi({z on T : |phi(z)| <= r}).

    The sublevel set is decomposed into circular runs of consecutive kept
    grid samples (a run break means grid points with |phi| > r sit in
    between, e.g. the excluded contact neighbourhood).  A single run gives
    the curve directly; several runs are chained only if their image
    endpoints nearly meet, otherwise the level set is reported disconnected.
    """
    values = _sup_values(phi, samples_per_side)
    keep = np.isfinite(values) & (np.abs(values) <= r)
    if not np.any(keep):
        raise ValueError(f"sublevel set |{phi.name}| <= {r} is empty on the circle")

    idx = np.nonzero(keep)[0]
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    comps = np.split(idx, breaks + 1)
    # the grid holds -pi and +pi separately; the boundary point is the same,
    # so runs touching both ends wrap into one component
    if len(comps) > 1 and keep[0] and keep[-1]:
        comps = [np.concatenate([comps[-1], comps[0]])] + comps[1:-1]

    if len(comps) > 1:
        # keep the circular order and require consecutive components to
        # (numerically) meet in the image
        chain = comps[0]
        for comp in comps[1:]:
            gap = float(pseudo_distance_array(values[chain[-1]],
                                              values[comp[0]]))
            if gap > 0.2:
                raise DisconnectedLevelSet(
                    f"sampled level set of {phi.name} at r={r} splits "
                    f"(pseudohyperbolic gap {gap:.3g})")
            chain = np.concatenate([chain, comp])
        idx = chain
    else:
        idx = comps[0]

    curve = values[idx]
    curve.setflags(write=False)
    return curve


def blaschke_zeros_for_symbol(phi: Symbol, r: float, n: int) -> BlaschkeProduct:
    """Place n-1 zeros on the sampled level curve at equal hyperbolic spacing.

    Cumulative hyperbolic arc length is inverted by linear interpolation.
    A single zero lands at the hyperbolic midpoint; from two zeros on, the
    spacing includes both curve endpoints, which suppresses the otherwise
    dominant one-sided peaks of |B| at the ends of the level set.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return BlaschkeProduct(np.empty(0, dtype=complex))
    curve = _level_curve(phi, r)
    if len(curve) == 1:
        return BlaschkeProduct(np.repeat(curve, n - 1))
    s = cumulative_hyperbolic_length(curve)
    total = s[-1]
    if n == 2:
        targets = np.array([total / 2])
    else:
        targets = total * np.arange(n - 1) / (n - 2)
    re = np.interp(targets, s, curve.real)
    im = np.interp(targets, s, curve.imag)
    return BlaschkeProduct(re + 1j * im)


# ---------------------------------------------------------------------------
# upper certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpperCertificate:
    n: int
    r: float
    sup_b_phi: float
    sup_b_psi: float
    sup_w_phi: float
    sup_w_psi: float
    norm_phi: float
    norm_psi: float
    value: float
    zeros: np.ndarray
    flags: dict

    def to_dict(self) -> dict:
        return {
            "kind": "upper",
            "n": self.n,
            "r": self.r,
            "sup_B_phi": self.sup_b_phi,
            "sup_B_psi": self.sup_b_psi,
            "sup_w_phi": self.sup_w_phi,
            "sup_w_psi": self.sup_w_psi,
            "norm_phi": self.norm_phi,
            "norm_psi": self.norm_psi,
            "value_theorem": None,
            "value_constant_free": self.value,
            "zeros": [_c2ri(z) for z in self.zeros],
            "flags": dict(self.flags),
        }


def _blaschke_peak_candidates(zeros: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Curve points midway (in arc length) between consecutive zeros.

    |B| peaks between neighbouring zeros along the curve; boundary-grid
    images alone can miss those peaks when the grid is hyperbolically coarse
    near the curve ends.
    """
    if len(curve) < 2 or len(zeros) == 0:
        return curve
    s = cumulative_hyperbolic_length(curve)
    # locate zeros along the curve by nearest sample
    idx = np.abs(curve[None, :] - zeros[:, None]).argmin(axis=1)
    pos = np.sort(s[idx])
    mids = (pos[:-1] + pos[1:]) / 2.0
    anchors = np.concatenate([[0.0], mids, [s[-1]]])
    re = np.interp(anchors, s, curve.real)
    im = np.interp(anchors, s, curve.imag)
    return re + 1j * im


@functools.lru_cache(maxsize=8)
def _coarse_positions(side: int) -> np.ndarray:
    """Mask of the ``sup_grid(side)`` points inside ``sup_grid(2 * side)``.

    Coarse exponent m / (side/128) equals fine exponent 2m / (2 side/128)
    exactly, so coarse point i sits at fine position 2i on the negative half
    and at 2 side + 2i + 1 on the positive half, bit for bit.
    """
    mask = np.zeros(4 * side, dtype=bool)
    mask[0:2 * side:2] = True
    mask[2 * side + 1::2] = True
    mask.setflags(write=False)
    return mask


def _refined_sup(values: np.ndarray, kept: np.ndarray,
                 peak: float = 0.0) -> tuple:
    """``(coarse, fine, empty)`` sup of ``values``, the samples at the ``kept``
    points of the fine grid ``sup_grid(2 * _SUP_SAMPLES)``.

    The coarse sup reads the kept points that also lie on
    ``sup_grid(_SUP_SAMPLES)``.  ``peak`` (off-grid Blaschke peak candidates)
    counts for each grid that keeps a point; a grid that keeps none has sup 0,
    and ``empty`` says the fine grid keeps none.
    """
    coarse_values = values[_coarse_positions(_SUP_SAMPLES)[kept]]
    fine = max(float(values.max()), peak) if values.size else 0.0
    coarse = max(float(coarse_values.max()), peak) if coarse_values.size else 0.0
    return coarse, fine, not values.size


def _blaschke_sups(zeros: BlaschkeProduct, symbol: Symbol, r: float) -> tuple:
    """sup of |B o symbol| over {|symbol| <= r} on the coarse and fine grids.

    B is evaluated once, on the kept points of the fine grid.  Peak
    candidates between consecutive zeros along the ordered level curve keep
    both sups honest where the grid is coarse.
    """
    values = _sup_values(symbol, 2 * _SUP_SAMPLES)
    inside = np.abs(values) <= r
    moduli = np.abs(blaschke_eval(zeros, values[inside]))
    peak = 0.0
    if moduli.size:
        try:
            curve = _level_curve(symbol, r)
        except ValueError:
            # the default curve grid is empty; take the grid that kept points
            curve = _level_curve(symbol, r, 2 * _SUP_SAMPLES)
        cand = _blaschke_peak_candidates(zeros.zeros, curve)
        peak = float(np.abs(blaschke_eval(zeros, cand)).max())
    return _refined_sup(moduli, inside, peak)


def _sup_flags(sups: dict, **extra) -> dict:
    """Flags of a sampled-supremum certificate from name -> (coarse, fine, empty)."""
    return {
        "constants": "unspecified",
        "sampled_supremum": True,
        **extra,
        "stable_within_2pct": all(abs(fine - coarse) <= _SUP_STABILITY
                                  * max(fine, 1e-300)
                                  for coarse, fine, _ in sups.values()),
        "empty_sets": [name for name, (_, _, empty) in sups.items() if empty],
    }


def upper_certificate(phi: Symbol, psi: Symbol, n: int, r: float,
                      zeros: BlaschkeProduct) -> UpperCertificate:
    """Blaschke-damped upper bound for a_n(C_phi - C_psi) at level r.

    The four suprema are sampled on the exponential boundary grid, refined
    once by doubling; a residual change above 2% is flagged, not raised.
    """
    if zeros.degree != n - 1:
        raise ValueError(f"need a degree {n - 1} product, got degree {zeros.degree}")
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")

    w = _w_values(phi, psi, 2 * _SUP_SAMPLES)
    out_phi, out_psi = (~(np.abs(_sup_values(s, 2 * _SUP_SAMPLES)) <= r)
                        for s in (phi, psi))
    sups = {
        "B_phi": _blaschke_sups(zeros, phi, r),
        "B_psi": _blaschke_sups(zeros, psi, r),
        "w_phi": _refined_sup(w[out_phi], out_phi),
        "w_psi": _refined_sup(w[out_psi], out_psi),
    }
    fine = np.array([sup for _, sup, _ in sups.values()])
    norm_phi = operator_norm_bound(phi)
    norm_psi = operator_norm_bound(psi)
    value = float(fine.sum() * (norm_phi + norm_psi))
    flags = _sup_flags(sups)
    return UpperCertificate(
        n=n, r=r,
        sup_b_phi=float(fine[0]), sup_b_psi=float(fine[1]),
        sup_w_phi=float(fine[2]), sup_w_psi=float(fine[3]),
        norm_phi=norm_phi, norm_psi=norm_psi,
        value=value, zeros=zeros.zeros, flags=flags,
    )


def split_zeros(phi: Symbol, psi: Symbol, n: int, r: float) -> BlaschkeProduct:
    """Degree n-1 product with zeros split between the two level curves."""
    m1 = (n - 1 + 1) // 2
    m2 = (n - 1) - m1
    parts = []
    if m1 >= 1:
        parts.append(blaschke_zeros_for_symbol(phi, r, m1 + 1).zeros)
    if m2 >= 1:
        parts.append(blaschke_zeros_for_symbol(psi, r, m2 + 1).zeros)
    zeros = np.concatenate(parts) if parts else np.empty(0, dtype=complex)
    return BlaschkeProduct(zeros)


def _candidate_zero_layouts(phi: Symbol, psi: Symbol, n: int, r: float):
    """Zero layouts tried by the optimiser, all of degree n-1.

    Splitting covers far-apart symbol pairs; the single-curve layouts double
    the damping exponent when the two level curves almost coincide (small
    perturbations), and the certificate is valid for any layout.
    """
    layouts = [split_zeros(phi, psi, n, r)]
    if phi.expr != psi.expr:
        layouts.append(blaschke_zeros_for_symbol(phi, r, n))
    return layouts


@dataclass(frozen=True)
class OptimizedUpper:
    best: UpperCertificate
    trace: list  # (r, value) pairs

    def to_dict(self) -> dict:
        d = self.best.to_dict()
        d["trace"] = [[r, v] for r, v in self.trace]
        return d


def _search_r(r_grid: Sequence[float], certify) -> tuple:
    """Smallest certificate over ``r_grid``, tried in the given order.

    ``certify(r)`` returns the candidate certificates at r; the first minimum
    wins, at each r and over the grid.  Returns ``(best, trace)`` with the
    trace holding the (r, value) minimum per r.
    """
    best, trace = None, []
    for r in r_grid:
        local = min(certify(r), key=lambda cert: cert.value)
        trace.append((r, local.value))
        if best is None or local.value < best.value:
            best = local
    if best is None:
        raise ValueError("empty r grid")
    return best, trace


def optimize_upper(phi: Symbol, psi: Symbol, n: int,
                   r_grid: Sequence[float]) -> OptimizedUpper:
    """Grid search over r (and zero layouts); ties resolved toward the smallest r."""
    best, trace = _search_r(
        sorted(float(r) for r in r_grid),
        lambda r: [upper_certificate(phi, psi, n, r, zeros)
                   for zeros in _candidate_zero_layouts(phi, psi, n, r)])
    return OptimizedUpper(best=best, trace=trace)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt boundary integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HsIntegral:
    """Value of (1/2pi) * integral of the squared-difference boundary density."""

    value: float
    diverged: bool
    converged: bool
    rounds: int
    samples: int


def _hs_integrand(phi: Symbol, psi: Symbol, t: np.ndarray) -> np.ndarray:
    phi_v = eval_boundary(phi, t)
    psi_v = eval_boundary(psi, t)
    a = 1.0 - np.abs(phi_v) ** 2
    b = 1.0 - np.abs(psi_v) ** 2
    p = 1.0 - (np.abs(phi_v) * np.abs(psi_v)) ** 2
    rho = pseudo_distance_array(phi_v, psi_v)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = p / (a * b) * rho ** 2
    # cancellation floor: below ~1e-15 the defect 1 - |value|^2 is noise
    bad = ~np.isfinite(f) | (a <= 1e-15) | (b <= 1e-15)
    return np.where(bad, 0.0, f)


def hs_norm(phi: Symbol, psi: Symbol) -> HsIntegral:
    """Adaptive trapezoid for the squared Hilbert-Schmidt norm of C_phi - C_psi.

    (1/2pi) * int (1 - |phi psi|^2) / ((1 - |phi|^2)(1 - |psi|^2)) * rho(phi, psi)^2 dtheta,
    which equals sum_k || phi^k - psi^k ||^2.  The grid deepens toward the
    contact point and densifies, for at most 14 rounds, until the value moves
    by less than 1e-6 relative; persistent growth across refinements flags
    divergence and the value is reported as +inf.
    """
    octaves, per_octave = 8, 8
    prev_value = None
    prev_delta = None
    samples = 0
    for round_idx in range(_HS_MAX_ROUNDS):
        m = np.arange(octaves * per_octave + 1, dtype=float)
        t = np.pi * 2.0 ** (-m / per_octave)
        t = t[::-1]  # ascending
        f = _hs_integrand(phi, psi, t) + _hs_integrand(phi, psi, -t)
        value = float(_trapezoid(f, t) / (2 * math.pi))
        samples = 2 * len(t)
        if prev_value is not None:
            delta = value - prev_value
            if abs(delta) <= _HS_REL_TOL * max(abs(value), 1e-300):
                return HsIntegral(value=value, diverged=False, converged=True,
                                  rounds=round_idx + 1, samples=samples)
            if value > 1e12:
                return HsIntegral(value=math.inf, diverged=True, converged=False,
                                  rounds=round_idx + 1, samples=samples)
            if (prev_delta is not None and delta > 0 and prev_delta > 0
                    and delta >= 0.8 * prev_delta and delta >= 1e-3 * abs(value)):
                return HsIntegral(value=math.inf, diverged=True, converged=False,
                                  rounds=round_idx + 1, samples=samples)
            prev_delta = delta
        prev_value = value
        if octaves < 192:
            octaves *= 2
        else:
            per_octave *= 2
    return HsIntegral(value=prev_value, diverged=False, converged=False,
                      rounds=_HS_MAX_ROUNDS, samples=samples)


# ---------------------------------------------------------------------------
# weighted certificates
# ---------------------------------------------------------------------------

def boundary_sup(symbol: Symbol) -> float:
    """Sampled sup-norm on the circle (equals the disc sup-norm for H^inf)."""
    values = np.abs(_sup_values(symbol, _SUP_SAMPLES))
    return float(values[np.isfinite(values)].max())


@dataclass(frozen=True)
class WeightedUpperCertificate:
    n: int
    r: float
    sup_b: float
    delta0: float
    omega_sup: float
    norm_phi: float
    norm_t: float
    value: float
    flags: dict

    def to_dict(self) -> dict:
        return {
            "kind": "weighted_upper",
            "n": self.n,
            "r": self.r,
            "sup_B_phi": self.sup_b,
            "delta0": self.delta0,
            "omega_sup": self.omega_sup,
            "norm_phi": self.norm_phi,
            "norm_T": self.norm_t,
            "value_theorem": None,
            "value_constant_free": self.value,
            "flags": dict(self.flags),
        }


def weighted_upper_certificate(omega: Symbol, phi: Symbol, n: int, r: float,
                               zeros: BlaschkeProduct
                               ) -> WeightedUpperCertificate:
    """Upper bound for a_n(M_omega C_phi):

    ( sup_{|phi|<=r} |B o phi|^2 ||T||^2 + delta0(r)^2 ||C_phi||^2 )^{1/2},
    delta0(r) = sup over {|phi| > r} of |omega(phi(e^{it}))|,
    with the plumbing bound ||T|| <= ||omega||_inf ||C_phi|| (flagged).
    """
    if zeros.degree != n - 1:
        raise ValueError(f"need a degree {n - 1} product, got degree {zeros.degree}")

    phi_v = _sup_values(phi, 2 * _SUP_SAMPLES)
    outside = ~(np.abs(phi_v) <= r)
    omega_phi = np.abs(eval_array(omega, phi_v))
    omega_phi = np.where(np.isfinite(omega_phi), omega_phi, 0.0)
    sups = {
        "B_phi": _blaschke_sups(zeros, phi, r),
        "delta0": _refined_sup(omega_phi[outside], outside),
    }
    sup_b, delta0 = sups["B_phi"][1], sups["delta0"][1]

    omega_sup = boundary_sup(omega)
    norm_phi = operator_norm_bound(phi)
    norm_t = omega_sup * norm_phi
    value = math.sqrt(sup_b ** 2 * norm_t ** 2 + delta0 ** 2 * norm_phi ** 2)
    flags = _sup_flags(sups, norm_T_is_plumbing_bound=True)
    return WeightedUpperCertificate(
        n=n, r=r, sup_b=sup_b, delta0=delta0, omega_sup=omega_sup,
        norm_phi=norm_phi, norm_t=norm_t, value=float(value), flags=flags,
    )


def _best_weighted_upper(omega: Symbol, phi: Symbol, n: int,
                         r_grid: Sequence[float]) -> WeightedUpperCertificate:
    """Smallest weighted upper certificate over ``r_grid``, zeros on the
    level curve of phi; r is tried in the given order and the first minimum
    wins."""
    return _search_r(r_grid, lambda r: [weighted_upper_certificate(
        omega, phi, n, r, blaschke_zeros_for_symbol(phi, r, n))])[0]


def weighted_lower_certificate(omega: Symbol, phi: Symbol,
                               points) -> LowerCertificate:
    """Kernel lower bound for a_n(M_omega C_phi) on W = phi(Z), n = card(Z)."""
    return _kernel_lower("weighted_lower", points, [(omega, phi)])


# ---------------------------------------------------------------------------
# weighted differences and triangularly separated bidisc symbols
# ---------------------------------------------------------------------------

def _cross_bound(sup0: float, sup1: float, d01: float,
                 a_diff: float, a0: float, a1: float) -> float:
    """min over i of sup_i a_diff + d01 a_{1-i}, the two cross combinations."""
    return min(sup0 * a_diff + d01 * a1, sup1 * a_diff + d01 * a0)


def weighted_difference_bound(u0: Symbol, u1: Symbol,
                              phi0: Symbol, phi1: Symbol, n: int,
                              diff_spectrum: SingularSpectrum,
                              phi0_spectrum: SingularSpectrum,
                              phi1_spectrum: SingularSpectrum) -> float:
    """min of the two cross combinations bounding a_n(M_u0 C_phi0 - M_u1 C_phi1):

    ||u_i||_inf a_n(C_phi0 - C_phi1) + ||u0 - u1||_inf a_n(C_phi_{1-i}).
    """
    a_diff = diff_spectrum.sigma_checked(n)
    a0 = phi0_spectrum.sigma_checked(n)
    a1 = phi1_spectrum.sigma_checked(n)
    sup0 = boundary_sup(u0)
    sup1 = boundary_sup(u1)
    d01 = float(np.abs(_sup_values(u0, _SUP_SAMPLES)
                       - _sup_values(u1, _SUP_SAMPLES)).max())
    return _cross_bound(sup0, sup1, d01, a_diff, a0, a1)


@dataclass(frozen=True)
class TriangularBound:
    value: float
    index: int
    block_terms: list
    tail: float
    block_sizes: list
    horizons_enforced: bool = True

    def to_dict(self) -> dict:
        return {
            "kind": "triangular",
            "N": self.index,
            "value": self.value,
            "block_terms": list(self.block_terms),
            "tail": self.tail,
            "block_sizes": list(self.block_sizes),
            "flags": {"constants": "unspecified", "sampled_supremum": True,
                      "block_inputs": "within_horizons" if self.horizons_enforced
                      else "raw_truncation"},
        }


def triangular_bound(u0: Symbol, u1: Symbol, phi0: Symbol, phi1: Symbol,
                     block_sizes: Sequence[int],
                     diff_spectrum: SingularSpectrum,
                     phi0_spectrum: SingularSpectrum,
                     phi1_spectrum: SingularSpectrum,
                     enforce_horizons: bool = True) -> TriangularBound:
    """Block bound for differences of triangularly separated bidisc symbols.

    Symbols (phi_i(z1), u_i(z1) z2) diagonalise over the z2-degree k into
    the weighted differences M_{u0^k} C_phi0 - M_{u1^k} C_phi1; blocks
    0..K are bounded with a_{n_k} inputs and the tail by
    ||u0||^{K+1} ||C_phi0|| + ||u1||^{K+1} ||C_phi1||.  The resulting
    approximation-number index is N = n_0 + ... + n_K - K.

    With ``enforce_horizons`` off, block inputs use raw truncation values
    even beyond their stability horizons; callers should only do this when
    the geometric tail dominates the max, as the flag then records.
    """
    sizes = [int(n) for n in block_sizes]
    if not sizes:
        raise ValueError("need at least one block size")
    sup0 = boundary_sup(u0)
    sup1 = boundary_sup(u1)
    if sup0 > 1 + 1e-12 or sup1 > 1 + 1e-12:
        raise WeightTooLarge(f"weight sup-norms {sup0:.6g}, {sup1:.6g} exceed 1")

    u0_v = _sup_values(u0, _SUP_SAMPLES)
    u1_v = _sup_values(u1, _SUP_SAMPLES)

    def sigma(spectrum, n):
        return spectrum.sigma_checked(n) if enforce_horizons else spectrum.sigma(n)

    k_count = len(sizes) - 1
    blocks = []
    for k, n_k in enumerate(sizes):
        d_k = float(np.abs(u0_v ** k - u1_v ** k).max())
        blocks.append(_cross_bound(sup0 ** k, sup1 ** k, d_k,
                                   sigma(diff_spectrum, n_k),
                                   sigma(phi0_spectrum, n_k),
                                   sigma(phi1_spectrum, n_k)))

    tail = (sup0 ** (k_count + 1) * operator_norm_bound(phi0)
            + sup1 ** (k_count + 1) * operator_norm_bound(phi1))
    index = sum(sizes) - k_count
    return TriangularBound(value=max(max(blocks), tail), index=index,
                           block_terms=blocks, tail=tail, block_sizes=sizes,
                           horizons_enforced=enforce_horizons)
