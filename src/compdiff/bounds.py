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
one, bit for bit, so every supremum is sampled once, on the fine grid, and
one helper reads each sup as (coarse, fine, empty) off the kept fine-grid
points, and the upper flags (2% stability, empty sets) come from those triples.
The r-independent boundary arrays (w, |omega o phi| and each |phi|) are
computed once per symbol, or symbol pair, and process; a certificate builds
only its r-dependent sublevel mask.

Every bound is one ``Certificate`` type, whose ``kind`` is ``lower``,
``weighted_lower``, ``upper`` or ``weighted_upper``: the constant-free value,
the kind's serialised quantities in ``fields`` and one ``to_dict``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

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
    _separation,
    as_points,
    blaschke_eval,
    carleson_norm,
    cumulative_hyperbolic_length,
    pseudo_distance_array,
    uniform_separation,
)
from .operators import SingularSpectrum, ensure_self_map, operator_norm_bound
from .series import Symbol, eval_array, eval_boundary, sup_grid

_IMAGE_COLLISION_TOL = 1e-14
_trapezoid = getattr(np, "trapezoid", None) or np.trapz
_SUP_SAMPLES = 1 << 13          # per side; doubled once for the stability check
_SUP_STABILITY = 0.02
_HS_REL_TOL = 1e-6
_HS_MAX_ROUNDS = 14


@functools.lru_cache(maxsize=128)
def _sup_values(symbol: Symbol, side: int) -> np.ndarray:
    """Cached boundary values on the densified supremum grid."""
    values = eval_boundary(symbol, sup_grid(side))
    values.setflags(write=False)
    return values


@functools.lru_cache(maxsize=128)
def _sup_moduli(symbol: Symbol, side: int) -> np.ndarray:
    """Cached |symbol| on the densified supremum grid."""
    moduli = np.abs(_sup_values(symbol, side))
    moduli.setflags(write=False)
    return moduli


@functools.lru_cache(maxsize=16)
def _composed_moduli(omega: Symbol, phi: Symbol) -> np.ndarray:
    """Cached |omega o phi| on the fine supremum grid, non-finite values as 0."""
    moduli = np.abs(eval_array(omega, _sup_values(phi, 2 * _SUP_SAMPLES)))
    moduli[~np.isfinite(moduli)] = 0.0
    moduli.setflags(write=False)
    return moduli


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
    if n < 2:
        raise ValueError(f"radial sequence needs n >= 2, got n = {n}")
    eps = math.log(n) / n
    j0 = abs(math.log(eps)) / (2 * eps)
    start = math.ceil(j0)
    if start >= n:
        raise EmptyRange(f"radial start index {start} >= n = {n}")
    j = np.arange(start, n + 1, dtype=float)
    return PointSequence((1.0 - np.exp(-j * eps)).astype(complex))


# ---------------------------------------------------------------------------
# the certificate type; lower certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """A bound on a_n: ``kind`` is ``lower`` or ``upper`` for C_phi - C_psi,
    ``weighted_lower`` or ``weighted_upper`` for M_omega C_phi.

    ``value`` is the constant-free value.  ``value_theorem`` (lower kinds
    only) keeps the interpolation constants, and ``r`` (upper kinds only) is
    the level of the Blaschke damping.
    """
    kind: str
    n: int
    r: Optional[float]
    value: float
    value_theorem: Optional[float]
    fields: dict  # the kind's serialised quantities; point sets as complex arrays
    flags: dict

    def to_dict(self) -> dict:
        fields = {key: [[float(z.real), float(z.imag)] for z in v]
                  if isinstance(v, np.ndarray) else v
                  for key, v in self.fields.items()}
        return {
            "kind": self.kind,
            "n": self.n,
            "r": self.r,
            **fields,
            "value_theorem": self.value_theorem,
            "value_constant_free": self.value,
            "flags": dict(self.flags),
        }


def _images_inside(symbol: Symbol, pts: np.ndarray) -> np.ndarray:
    images = eval_array(symbol, pts)
    if np.any(np.abs(images) >= 1):
        raise ImageOnBoundary(f"{symbol.name} maps a test point onto the circle")
    return images


def _kernel_lower(kind: str, points, terms) -> Certificate:
    """Kernel lower bound for ``terms``, a list of (omega_t or None, phi_t).

    W concatenates the images phi_t(Z) in term order; the ratio is
    sum_t |omega_t(z)|^2 (1-|z|^2)/(1-|phi_t(z)|^2), None meaning omega_t = 1.
    """
    seq = as_points(points)
    z = seq.points
    delta_z = uniform_separation(seq)
    images = [_images_inside(phi, z) for _, phi in terms]
    w = np.concatenate(images)
    gap, delta_w = _separation(w)
    if gap < _IMAGE_COLLISION_TOL:
        raise CollidingImages(
            ("phi(Z) u psi(Z) has fewer than 2 card(Z) points (min gap"
             if kind == "lower" else "phi is not injective on Z (min image gap")
            + f" {gap:.3g})")

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

    fields = {"Z": z, "W": w, "delta_Z": delta_z, "delta_W": delta_w,
              "carleson_Z": carl_z, "carleson_W": carl_w, "M_W": m_w,
              "inf_ratio": inf_ratio}
    return Certificate(kind=kind, n=len(z), r=None, value=value_cf,
                       value_theorem=value_theorem, fields=fields,
                       flags={"constants": "unspecified"})


def lower_certificate(phi: Symbol, psi: Symbol, points) -> Certificate:
    """Kernel-interpolation lower bound for a_n(C_phi - C_psi), n = card(Z)."""
    return _kernel_lower("lower", points, [(None, phi), (None, psi)])


# ---------------------------------------------------------------------------
# Blaschke zero placement on boundary level curves
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _level_curve(phi: Symbol, r: float, samples_per_side: int = 4096) -> tuple:
    """Ordered samples of phi({z on T : |phi(z)| <= r}) and their cumulative
    hyperbolic arc length, both read-only.

    The sublevel set is decomposed into circular runs of consecutive kept
    grid samples (a run break means grid points with |phi| > r sit in
    between, e.g. the excluded contact neighbourhood).  The runs are joined
    in circular order; a pseudohyperbolic gap above 0.2 between the image
    endpoints of consecutive runs reports the level set disconnected.
    """
    values = _sup_values(phi, samples_per_side)
    keep = _sup_moduli(phi, samples_per_side) <= r  # false where not finite
    if not np.any(keep):
        raise ValueError(f"sublevel set |{phi.name}| <= {r} is empty on the circle")

    idx = np.nonzero(keep)[0]
    # positions in idx where a new run starts
    starts = np.nonzero(np.diff(idx) > 1)[0] + 1
    # the grid holds -pi and +pi separately; the boundary point is the same,
    # so runs touching both ends wrap into one run, which comes first
    if len(starts) and keep[0] and keep[-1]:
        wrap = len(idx) - starts[-1]
        idx = np.roll(idx, wrap)
        starts = starts[:-1] + wrap
    gaps = pseudo_distance_array(values[idx[starts - 1]], values[idx[starts]])
    far = gaps[gaps > 0.2]
    if far.size:
        raise DisconnectedLevelSet(
            f"sampled level set of {phi.name} at r={r} splits "
            f"(pseudohyperbolic gap {far[0]:.3g})")

    curve = values[idx]
    length = cumulative_hyperbolic_length(curve)
    curve.setflags(write=False)
    length.setflags(write=False)
    return curve, length


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
    curve, s = _level_curve(phi, r)
    if len(curve) == 1:
        return BlaschkeProduct(np.repeat(curve, n - 1))
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

def _blaschke_peak_candidates(zeros: np.ndarray, curve: np.ndarray,
                              s: np.ndarray) -> np.ndarray:
    """Curve points midway (in arc length ``s``) between consecutive zeros.

    |B| peaks between neighbouring zeros along the curve; boundary-grid
    images alone can miss those peaks when the grid is hyperbolically coarse
    near the curve ends.
    """
    if len(curve) < 2 or len(zeros) == 0:
        return curve
    # locate zeros along the curve by nearest sample
    idx = np.abs(curve[None, :] - zeros[:, None]).argmin(axis=1)
    pos = np.sort(s[idx])
    mids = (pos[:-1] + pos[1:]) / 2.0
    anchors = np.concatenate([[0.0], mids, [s[-1]]])
    re = np.interp(anchors, s, curve.real)
    im = np.interp(anchors, s, curve.imag)
    return re + 1j * im


# mask of the sup_grid(side) points inside sup_grid(2 * side), side =
# _SUP_SAMPLES: coarse exponent m / (side/128) equals fine exponent
# 2m / (2 side/128) exactly, so coarse point i sits at fine position 2i on the
# negative half and at 2 side + 2i + 1 on the positive half, bit for bit
_COARSE_POSITIONS = np.zeros(4 * _SUP_SAMPLES, dtype=bool)
_COARSE_POSITIONS[0:2 * _SUP_SAMPLES:2] = True
_COARSE_POSITIONS[2 * _SUP_SAMPLES + 1::2] = True
_COARSE_POSITIONS.setflags(write=False)


def _refined_sup(values: np.ndarray, kept: np.ndarray,
                 peak: float = 0.0) -> tuple:
    """``(coarse, fine, empty)`` sup of ``values``, the samples at the ``kept``
    points of the fine grid ``sup_grid(2 * _SUP_SAMPLES)``.

    The coarse sup reads the kept points that also lie on
    ``sup_grid(_SUP_SAMPLES)``.  ``peak`` (off-grid Blaschke peak candidates)
    counts for each grid that keeps a point; a grid that keeps none has sup 0,
    and ``empty`` says the fine grid keeps none.
    """
    coarse_values = values[_COARSE_POSITIONS[kept]]
    fine = max(float(values.max()), peak) if values.size else 0.0
    coarse = max(float(coarse_values.max()), peak) if coarse_values.size else 0.0
    return coarse, fine, not values.size


def _blaschke_sups(zeros: BlaschkeProduct, symbol: Symbol, r: float,
                   inside: np.ndarray) -> tuple:
    """sup of |B o symbol| over {|symbol| <= r} on the coarse and fine grids.

    ``inside`` is the caller's fine-grid mask of that set; B is evaluated
    once, on its points.  Peak candidates between consecutive zeros along the
    ordered level curve keep both sups honest where the grid is coarse.
    """
    values = _sup_values(symbol, 2 * _SUP_SAMPLES)
    moduli = np.abs(blaschke_eval(zeros, values[inside]))
    peak = 0.0
    if moduli.size:
        try:
            curve, s = _level_curve(symbol, r)
        except ValueError:
            # the default curve grid is empty; take the grid that kept points
            curve, s = _level_curve(symbol, r, 2 * _SUP_SAMPLES)
        cand = _blaschke_peak_candidates(zeros.zeros, curve, s)
        peak = float(np.abs(blaschke_eval(zeros, cand)).max())
    return _refined_sup(moduli, inside, peak)


def _check_upper_args(n: int, r: float, zeros: BlaschkeProduct) -> None:
    if zeros.degree != n - 1:
        raise ValueError(f"need a degree {n - 1} product, got degree {zeros.degree}")
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")


def _sampled_upper(kind: str, n: int, r: float, value: float, sups: dict,
                   fields: dict, **extra_flags) -> Certificate:
    """Upper certificate whose flags come from name -> (coarse, fine, empty)."""
    flags = {
        "constants": "unspecified",
        "sampled_supremum": True,
        **extra_flags,
        "stable_within_2pct": all(abs(fine - coarse) <= _SUP_STABILITY
                                  * max(fine, 1e-300)
                                  for coarse, fine, _ in sups.values()),
        "empty_sets": [name for name, (_, _, empty) in sups.items() if empty],
    }
    return Certificate(kind=kind, n=n, r=r, value=float(value),
                       value_theorem=None, fields=fields, flags=flags)


def upper_certificate(phi: Symbol, psi: Symbol, n: int, r: float,
                      zeros: BlaschkeProduct) -> Certificate:
    """Blaschke-damped upper bound for a_n(C_phi - C_psi) at level r.

    The four suprema are sampled on the exponential boundary grid, refined
    once by doubling; a residual change above 2% is flagged, not raised.
    """
    _check_upper_args(n, r, zeros)
    w = _w_values(phi, psi, 2 * _SUP_SAMPLES)
    in_phi, in_psi = (_sup_moduli(s, 2 * _SUP_SAMPLES) <= r
                      for s in (phi, psi))
    out_phi, out_psi = ~in_phi, ~in_psi
    sups = {
        "B_phi": _blaschke_sups(zeros, phi, r, in_phi),
        "B_psi": _blaschke_sups(zeros, psi, r, in_psi),
        "w_phi": _refined_sup(w[out_phi], out_phi),
        "w_psi": _refined_sup(w[out_psi], out_psi),
    }
    fine = np.array([sup for _, sup, _ in sups.values()])
    norm_phi = operator_norm_bound(phi)
    norm_psi = operator_norm_bound(psi)
    fields = {f"sup_{name}": float(sup) for name, sup in zip(sups, fine)}
    fields.update(norm_phi=norm_phi, norm_psi=norm_psi, zeros=zeros.zeros)
    return _sampled_upper("upper", n, r, fine.sum() * (norm_phi + norm_psi),
                          sups, fields)


def split_zeros(phi: Symbol, psi: Symbol, n: int, r: float) -> BlaschkeProduct:
    """Degree n-1 product: n // 2 zeros on the level curve of phi, the other
    n - 1 - n // 2 on that of psi."""
    return BlaschkeProduct(np.concatenate([
        blaschke_zeros_for_symbol(symbol, r, share + 1).zeros
        for symbol, share in ((phi, n // 2), (psi, n - 1 - n // 2))]))


def _candidate_zero_layouts(phi: Symbol, psi: Symbol, n: int, r: float):
    """Zero layouts tried by the optimiser, all of degree n-1.

    Splitting covers far-apart symbol pairs; the single-curve layouts double
    the damping exponent when the two level curves almost coincide (small
    perturbations), and the certificate is valid for any layout.  A layout
    that needs a level curve which is empty at r (an automorphism has no
    boundary point with |psi| <= r < 1) is left out; the error of the first
    layout is raised only when no layout can be built.
    """
    builders = [lambda: split_zeros(phi, psi, n, r)]
    if phi.expr != psi.expr:
        builders.append(lambda: blaschke_zeros_for_symbol(phi, r, n))
    layouts, errors = [], []
    for build in builders:
        try:
            layouts.append(build())
        except ValueError as exc:  # an empty sublevel set (see _level_curve)
            errors.append(exc)
    if not layouts:
        raise errors[0]
    return layouts


def _search_r(r_grid: Sequence[float], certify) -> tuple:
    """Smallest certificate over ``r_grid``, tried in ascending order.

    ``certify(r)`` returns the candidate certificates at r; the first minimum
    wins, at each r and over the grid, so ties go to the smallest r whatever
    the order of ``r_grid``.  Returns ``(best, trace)`` with the trace holding
    the [r, value] minimum per r, r ascending.
    """
    best, trace = None, []
    for r in sorted(float(r) for r in r_grid):
        local = min(certify(r), key=lambda cert: cert.value)
        trace.append([r, local.value])
        if best is None or local.value < best.value:
            best = local
    if best is None:
        raise ValueError("empty r grid")
    return best, trace


def optimize_upper(phi: Symbol, psi: Symbol, n: int,
                   r_grid: Sequence[float]) -> Certificate:
    """Grid search over r (and zero layouts); ties resolved toward the smallest r.
    The best certificate carries the [r, value] minimum per r as ``trace``."""
    best, trace = _search_r(
        r_grid, lambda r: [upper_certificate(phi, psi, n, r, zeros)
                           for zeros in _candidate_zero_layouts(phi, psi, n, r)])
    return replace(best, fields={**best.fields, "trace": trace})


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
    divergence and the value is reported as +inf.  Both symbols must be
    self-maps of the disc (:class:`NotSelfMap` otherwise).
    """
    ensure_self_map(phi)
    ensure_self_map(psi)
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
    moduli = _sup_moduli(symbol, _SUP_SAMPLES)
    return float(moduli[np.isfinite(moduli)].max())


def weighted_upper_certificate(omega: Symbol, phi: Symbol, n: int, r: float,
                               zeros: BlaschkeProduct) -> Certificate:
    """Upper bound for a_n(M_omega C_phi):

    ( sup_{|phi|<=r} |B o phi|^2 ||T||^2 + delta0(r)^2 ||C_phi||^2 )^{1/2},
    delta0(r) = sup over {|phi| > r} of |omega(phi(e^{it}))|,
    with the plumbing bound ||T|| <= ||omega||_inf ||C_phi|| (flagged).

    |omega o phi| (non-finite samples as 0) and |phi| are computed once per
    symbol pair and process; each r builds only the mask {|phi| <= r}.
    """
    _check_upper_args(n, r, zeros)
    inside = _sup_moduli(phi, 2 * _SUP_SAMPLES) <= r
    outside = ~inside
    omega_phi = _composed_moduli(omega, phi)
    sups = {
        "B_phi": _blaschke_sups(zeros, phi, r, inside),
        "delta0": _refined_sup(omega_phi[outside], outside),
    }
    sup_b, delta0 = sups["B_phi"][1], sups["delta0"][1]

    omega_sup = boundary_sup(omega)
    norm_phi = operator_norm_bound(phi)
    norm_t = omega_sup * norm_phi
    value = math.sqrt(sup_b ** 2 * norm_t ** 2 + delta0 ** 2 * norm_phi ** 2)
    fields = {"sup_B_phi": sup_b, "delta0": delta0, "omega_sup": omega_sup,
              "norm_phi": norm_phi, "norm_T": norm_t}
    return _sampled_upper("weighted_upper", n, r, value, sups, fields,
                          norm_T_is_plumbing_bound=True)


def optimize_weighted_upper(omega: Symbol, phi: Symbol, n: int,
                            r_grid: Sequence[float]) -> Certificate:
    """Smallest weighted upper certificate over ``r_grid``, zeros on the
    level curve of phi; ties resolved toward the smallest r."""
    return _search_r(r_grid, lambda r: [weighted_upper_certificate(
        omega, phi, n, r, blaschke_zeros_for_symbol(phi, r, n))])[0]


def weighted_lower_certificate(omega: Symbol, phi: Symbol,
                               points) -> Certificate:
    """Kernel lower bound for a_n(M_omega C_phi) on W = phi(Z), n = card(Z)."""
    return _kernel_lower("weighted_lower", points, [(omega, phi)])


# ---------------------------------------------------------------------------
# triangularly separated bidisc symbols
# ---------------------------------------------------------------------------

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
        a_diff, a0, a1 = (sigma(s, n_k) for s in
                          (diff_spectrum, phi0_spectrum, phi1_spectrum))
        d_k = float(np.abs(u0_v ** k - u1_v ** k).max())
        # min over i of ||u_i^k|| a_diff + ||u0^k - u1^k|| a_{1-i}
        blocks.append(min(sup0 ** k * a_diff + d_k * a1,
                          sup1 ** k * a_diff + d_k * a0))

    tail = (sup0 ** (k_count + 1) * operator_norm_bound(phi0)
            + sup1 ** (k_count + 1) * operator_norm_bound(phi1))
    index = sum(sizes) - k_count
    return TriangularBound(value=max(max(blocks), tail), index=index,
                           block_terms=blocks, tail=tail, block_sizes=sizes,
                           horizons_enforced=enforce_horizons)
