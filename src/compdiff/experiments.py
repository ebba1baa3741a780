"""End-to-end experiment drivers and decay-model fitting.

Each driver produces an :class:`ExperimentResult` whose verdicts are
derivable from the serialised payload alone: spectra go to CSV, certificate
and bound series are embedded in ``result.json``, and :func:`recheck`
re-fits and re-derives every verdict offline.

Fitted decay models (all linearised least squares):

* ``power``      sigma_n ~ C * n**-p
* ``power_log``  sigma_n ~ C * (log n)**q * n**-p   (q fixed by the caller)
* ``stretched``  log sigma_n ~ -c * n / log n
* ``root_exp``   log sigma_n ~ -c * sqrt(n)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import WindowExceedsHorizon, ZeroInWindow
from . import series as sym
from .bounds import (
    _best_weighted_upper,
    lower_certificate,
    optimize_upper,
    sequence_boundary_pinch,
    triangular_bound,
    weighted_lower_certificate,
)
from .operators import (
    SingularSpectrum,
    _difference_table,
    composition_matrix,
    convergence_horizon,
    difference_matrix,
    singular_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
    tensor_spectrum,
    weighted_composition_matrix,
)

# "root_n_over_log" (x = sqrt(n / log n)) serves the bidisc block bounds;
# spectra are fitted with the first four.
MODELS = ("power", "power_log", "stretched", "root_exp", "root_n_over_log")

DEFAULT_R_GRID = tuple(1.0 - np.geomspace(1e-5, 0.4, 17))


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    model: str
    params: dict
    r2: float
    window: tuple

    @property
    def rate(self) -> float:
        """The decay exponent: p for power models, c for exponential ones."""
        return self.params["p"] if "p" in self.params else self.params["c"]

    def to_dict(self) -> dict:
        return {"model": self.model, "params": dict(self.params),
                "r2": self.r2, "window": list(self.window)}


def _abscissa(model: str, n: np.ndarray) -> np.ndarray:
    if model in ("power", "power_log"):
        return np.log(n)
    if model == "stretched":
        return n / np.log(n)
    if model == "root_exp":
        return np.sqrt(n)
    if model == "root_n_over_log":
        return np.sqrt(n / np.log(n))
    raise ValueError(f"unknown model {model!r}; choose from {MODELS}")


def fit_series(ns: Sequence[int], values: Sequence[float], model: str,
               q: float = 0.0) -> DecayFit:
    """Least squares in the model's natural coordinates for (n, value) pairs."""
    n = np.asarray(ns, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(n) < 3:
        raise ValueError("need at least 3 points to fit")
    if n.min() < 2:
        raise ValueError("fit indices start at n = 2")
    if np.any(v <= 0):
        raise ZeroInWindow("fit values must be positive")
    y = np.log(v)
    if model == "power_log":
        y = y - q * np.log(np.log(n))
    x = _abscissa(model, n)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    if model in ("power", "power_log"):
        params = {"p": -float(slope), "log_C": float(intercept)}
        if model == "power_log":
            params["q"] = q
    else:
        params = {"c": -float(slope), "log_C": float(intercept)}
    return DecayFit(model=model, params=params, r2=r2,
                    window=(int(n.min()), int(n.max())))


def _fit_raw(spectrum: SingularSpectrum, model: str, window: tuple,
             q: float = 0.0) -> DecayFit:
    """Fit without the horizon guard (used only with flagged fallback windows)."""
    lo, hi = int(window[0]), int(window[1])
    ns = np.arange(lo, hi + 1)
    return fit_series(ns, spectrum.values[lo - 1: hi], model, q=q)


def fit_decay(spectrum: SingularSpectrum, model: str, window: tuple,
              q: float = 0.0) -> DecayFit:
    """Fit a decay model to sigma_n over ``window = (n_lo, n_hi)`` inclusive.

    The window must sit inside [2, horizon]; positive values only.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo < 2 or hi < lo:
        raise ValueError(f"bad window {window}")
    if spectrum.horizon is not None and hi > spectrum.horizon:
        raise WindowExceedsHorizon(
            f"window top {hi} exceeds horizon {spectrum.horizon}")
    if hi > len(spectrum):
        raise WindowExceedsHorizon(f"window top {hi} exceeds truncation {len(spectrum)}")
    ns = np.arange(lo, hi + 1)
    vals = spectrum.values[lo - 1: hi]
    if np.any(vals <= 0):
        raise ZeroInWindow(f"sigma_n <= 0 inside window [{lo}, {hi}]")
    return fit_series(ns, vals, model, q=q)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    name: str
    parameters: dict
    spectra: dict = field(default_factory=dict)       # label -> SingularSpectrum
    fits: dict = field(default_factory=dict)          # label -> DecayFit
    certificates: dict = field(default_factory=dict)  # label -> list of dicts
    verdicts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def derive_verdicts(self) -> "ExperimentResult":
        """Set ``verdicts`` from the fits, spectra and details; returns self."""
        self.verdicts = _derive_verdicts(self.name, self.parameters, self.fits,
                                         self.spectra, self.details)
        return self

    def write(self, outdir) -> Path:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        spectra_files = {}
        for i, (label, spectrum) in enumerate(self.spectra.items()):
            fname = "spectrum.csv" if i == 0 else f"spectrum_{label}.csv"
            (out / fname).write_text(spectrum_to_csv(spectrum))
            spectra_files[label] = fname
        if self.certificates:
            (out / "certificates.json").write_text(
                json.dumps(self.certificates, indent=2, sort_keys=True) + "\n")
        payload = {
            "name": self.name,
            "parameters": self.parameters,
            "fits": {k: f.to_dict() for k, f in self.fits.items()},
            "verdicts": self.verdicts,
            "details": self.details,
            "spectra_files": spectra_files,
            "certificates_file": "certificates.json" if self.certificates else None,
        }
        (out / "result.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return out / "result.json"


def _refit_from_payload(payload: dict, spectra: dict) -> dict:
    """Recreate every fit recorded in a result payload from stored data."""
    fits = {}
    for label, spec in payload["fits"].items():
        model = spec["model"]
        q = spec["params"].get("q", 0.0)
        source = payload["details"]["fit_sources"][label]
        if source["type"] in ("spectrum", "spectrum_raw"):
            fit = fit_decay if source["type"] == "spectrum" else _fit_raw
            fits[label] = fit(spectra[source["label"]], model,
                              tuple(source["window"]), q=q)
        else:
            ns, values = zip(*source["series"])
            fits[label] = fit_series(ns, values, model, q=q)
    return fits


def recheck(outdir) -> dict:
    """Recompute verdicts from the serialised result; no operator numerics."""
    out = Path(outdir)
    payload = json.loads((out / "result.json").read_text())
    spectra = {label: spectrum_from_csv((out / fname).read_text())
               for label, fname in payload["spectra_files"].items()}
    fits = _refit_from_payload(payload, spectra)
    return _derive_verdicts(payload["name"], payload["parameters"], fits,
                            spectra, payload["details"])


def _derive_verdicts(name: str, parameters: dict, fits: dict, spectra: dict,
                     details: dict) -> dict:
    if name == "smooth_perturbation":
        alpha = parameters["alpha"]
        p = fits["sigma_power"].params["p"]
        verdicts = {"power_band": abs(p - (alpha - 2)) <= 0.5}
        slopes = [fits[k].params["p"] for k in
                  ("sigma_power", "lower_power", "upper_power") if k in fits]
        if len(slopes) == 3:
            gap = max(abs(a - b) for a in slopes for b in slopes)
            verdicts["slopes_pairwise_within_half"] = gap <= 0.5
        return verdicts
    if name == "corner_perturbation":
        single_re = fits["single_root_exp"].r2
        single_st = fits["single_stretched"].r2
        diff_st = fits["diff_stretched"].r2
        diff_re = fits["diff_root_exp"].r2
        s = spectra["single"]
        d = spectra["difference"]
        return {
            "diff_stretched_r2": diff_st >= 0.95,
            "diff_stretched_beats_root_exp": diff_st - diff_re >= 0.02,
            "single_root_exp_r2": single_re >= 0.95,
            "single_root_exp_beats_stretched": single_re - single_st >= 0.02,
            "sigma64_separation": d.sigma(64) < 1e-2 * s.sigma(64),
        }
    if name == "weighted_power":
        if details.get("zero_slope"):
            return {"zero_slope": True}
        alpha = parameters["alpha"]
        p = fits["sigma_power"].params["p"]
        return {"power_band": (alpha - 0.3) <= p <= (alpha + 0.4),
                "zero_slope": False}
    if name == "bidisc_split":
        verdicts = {"tensor_products_exact":
                    details["kronecker_max_mismatch"] <= 1e-10}
        if "square_index_stretched" in fits:
            f = fits["square_index_stretched"]
            verdicts["square_index_rate"] = f.r2 >= 0.9 and f.params["c"] > 0
        return verdicts
    if name == "bidisc_glued":
        return {"restriction_identity": details["restriction_max_error"] <= 1e-12}
    if name == "bidisc_triangular":
        f = fits["bound_vs_sqrt_n_log"]
        return {"bound_rate": f.r2 >= 0.9 and f.params["c"] > 0}
    raise ValueError(f"unknown experiment {name!r}")


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _geometric_indices(lo: int, hi: int, count: int = 7) -> list:
    grid = np.unique(np.round(np.geomspace(lo, hi, count)).astype(int))
    return [int(g) for g in grid if lo <= g <= hi]


def _series_source(pairs) -> dict:
    """Fit source of a fit made on ``(n, value)`` pairs."""
    return {"type": "series", "series": [[int(n), float(v)] for n, v in pairs]}


def _track_certificates(result: ExperimentResult, n_grid, lower,
                        upper) -> dict:
    """Certificates per n into ``result``, with a power fit to each series.

    ``lower`` takes the 2n-point boundary-pinch sequence, ``upper`` takes n.
    Returns the fits' sources.
    """
    series = {"lower": [], "upper": []}
    docs = {"lower": [], "upper": []}
    for n in n_grid:
        for key, cert in (("lower", lower(sequence_boundary_pinch(2 * n))),
                          ("upper", upper(n))):
            doc = cert.to_dict()
            series[key].append((n, doc["value_constant_free"]))
            docs[key].append(doc)
    result.certificates = docs
    sources = {}
    for key, pairs in series.items():
        result.fits[f"{key}_power"] = fit_series(*zip(*pairs), "power")
        sources[f"{key}_power"] = _series_source(pairs)
    return sources


def run_smooth_perturbation(alpha: float, c: float, n_trunc: int = 1024,
                            window: tuple = (8, 64),
                            r_grid: Sequence[float] = DEFAULT_R_GRID,
                            certificates: bool = True) -> ExperimentResult:
    """Half map against its power perturbation: power-law decay of the difference.

    Fits sigma_n ~ C n**-p on the window and, when ``certificates`` is on,
    tracks the constant-free lower values on boundary-pinch sequences and the
    optimised Blaschke upper values on the same index grid.
    """
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    phi = sym.half_map()
    psi = sym.power_perturbation(alpha, c)
    spectrum = convergence_horizon(lambda m: difference_matrix(phi, psi, m),
                                   n_trunc)
    lo = window[0]
    hi = min(window[1], spectrum.horizon or 0)
    if hi < lo:
        raise WindowExceedsHorizon(
            f"horizon {spectrum.horizon} below the fit window start {lo}")
    sigma_window = (lo, hi)

    result = ExperimentResult(
        name="smooth_perturbation",
        parameters={"alpha": alpha, "c": c, "N": n_trunc},
        spectra={"difference": spectrum},
    )
    result.fits["sigma_power"] = fit_decay(spectrum, "power", sigma_window)
    fit_sources = {"sigma_power": {"type": "spectrum", "label": "difference",
                                   "window": list(sigma_window)}}

    if certificates:
        # certificates carry no truncation horizon; they span the window as
        # requested even where the sigma fit had to stop at the horizon
        fit_sources.update(_track_certificates(
            result, _geometric_indices(window[0], window[1]),
            lambda z: lower_certificate(phi, psi, z),
            lambda n: optimize_upper(phi, psi, n, r_grid)))

    result.details = {"window": list(sigma_window),
                      "certificate_window": list(window),
                      "fit_sources": fit_sources,
                      "r_grid": [float(r) for r in r_grid]}
    return result.derive_verdicts()


# SVD noise floor relative to sigma_1; below it corner-type spectra are
# rounding noise
_NOISE_FLOOR_RTOL = 1e-13


def _floor_index(spectrum: SingularSpectrum) -> int:
    """Last n with sigma_n above the SVD noise floor (0 if there is none)."""
    values = spectrum.values
    return int(np.count_nonzero(values > _NOISE_FLOOR_RTOL * float(values[0])))


def _measurable_window(spectrum: SingularSpectrum, lo: int, hi: int,
                       min_points: int = 5):
    """Largest fit window inside [lo, hi], horizon-clamped when possible.

    Corner-type truncations have horizons growing only logarithmically in N,
    far short of the asymptotic fit ranges; when the horizon cannot host a
    fit, fall back to the indices above the SVD noise floor and say so.
    """
    horizon_top = min(hi, spectrum.horizon or 0)
    if horizon_top - lo + 1 >= min_points:
        return (lo, horizon_top), False
    top = min(hi, _floor_index(spectrum))
    if top - lo + 1 < min_points:
        raise WindowExceedsHorizon(
            f"no usable fit window above n={lo} (horizon {spectrum.horizon})")
    return (lo, top), True


def trusted_separation(spec_single: SingularSpectrum,
                       spec_diff: SingularSpectrum) -> dict:
    """Ratio rho(n) = sigma_n(diff) / sigma_n(single) at the ends of the trusted range.

    ``n_a`` is the smaller of the two horizons; ``n_b`` is the difference's
    trusted top, the smaller of its horizon and its noise-floor index.  The
    truncation is a compression of the operator, so sigma_n(single) is at
    most a_n(C_phi) and rho(n_b) bounds the true ratio from above (within the
    horizon's 1% tolerance).  A ratio at an index below 1 is ``None``.
    """
    n_a = min(spec_single.horizon or 0, spec_diff.horizon or 0)
    n_b = min(spec_diff.horizon or 0, _floor_index(spec_diff))

    def rho(n: int) -> Optional[float]:
        if n < 1:
            return None
        return spec_diff.sigma(n) / spec_single.sigma(n)
    return {"n_a": n_a, "n_b": n_b, "rho_n_a": rho(n_a), "rho_n_b": rho(n_b)}


def run_corner_perturbation(c: float = 0.01, n_trunc: int = 1024,
                            window: tuple = (16, 100),
                            spec_single: Optional[SingularSpectrum] = None,
                            spec_diff: Optional[SingularSpectrum] = None
                            ) -> ExperimentResult:
    """Corner map against its flat perturbation.

    The single operator decays like exp(-c sqrt(n)); the difference decays in
    the strictly faster exp(-c n / log n) class.  Model competition is decided
    by R^2 with a 0.02 superiority margin.

    The competition and sigma_64 verdicts cannot be earned at feasible N.
    The noise floor caps the fit windows near n = 41-48, where sqrt(n) and
    n / log n are so correlated (corr^2 >= 0.998 on [16, 41]) that no data
    on [16, n <= 42] reaches the 0.02 margin with the winner's R^2 >= 0.95,
    and data that follow either model exactly reach at most 0.0022 up to
    n = 48.  ``sigma64_separation`` compares sigma_64 values that lie beyond
    both horizons and below the noise floor.  The claim that the difference
    is far smaller and decays faster is measured on trusted indices only,
    by :func:`trusted_separation`: ``details["trusted_separation"]`` holds
    its n_a, n_b and rho values, and ``details["floor_index_single"]`` and
    ``details["floor_index_diff"]`` the noise-floor index of each spectrum.
    """
    phi = sym.corner_map()
    psi = sym.corner_perturbation(c)
    if spec_single is None:
        spec_single = convergence_horizon(lambda m: composition_matrix(phi, m),
                                          n_trunc)
    if spec_diff is None:
        spec_diff = convergence_horizon(lambda m: difference_matrix(phi, psi, m),
                                        n_trunc)
    w_single, single_raw = _measurable_window(spec_single, *window)
    w_diff, diff_raw = _measurable_window(spec_diff, *window)

    result = ExperimentResult(
        name="corner_perturbation",
        parameters={"c": c, "N": n_trunc},
        spectra={"single": spec_single, "difference": spec_diff},
    )
    fit_sources = {}
    for prefix, label, w in (("single", "single", w_single),
                             ("diff", "difference", w_diff)):
        for model in ("root_exp", "stretched"):
            result.fits[f"{prefix}_{model}"] = _fit_raw(
                result.spectra[label], model, w)
            fit_sources[f"{prefix}_{model}"] = {
                "type": "spectrum_raw", "label": label, "window": list(w)}

    def competition(stretched: DecayFit, root_exp: DecayFit) -> str:
        # R^2 with a 0.02 superiority margin; anything closer is a tie
        if stretched.r2 - root_exp.r2 >= 0.02:
            return "stretched"
        if root_exp.r2 - stretched.r2 >= 0.02:
            return "root_exp"
        return "inconclusive"
    result.details = {
        "window_single": list(w_single),
        "window_diff": list(w_diff),
        "window_exceeds_horizon_single": single_raw,
        "window_exceeds_horizon_diff": diff_raw,
        "model_competition_single": competition(
            result.fits["single_stretched"], result.fits["single_root_exp"]),
        "model_competition_diff": competition(
            result.fits["diff_stretched"], result.fits["diff_root_exp"]),
        "sigma64_single": spec_single.sigma(64),
        "sigma64_difference": spec_diff.sigma(64),
        "floor_index_single": _floor_index(spec_single),
        "floor_index_diff": _floor_index(spec_diff),
        "trusted_separation": trusted_separation(spec_single, spec_diff),
        "fit_sources": fit_sources,
    }
    return result.derive_verdicts()


def run_weighted_power(alpha: float, n_trunc: int = 1024,
                       window: tuple = (8, 100),
                       r_grid: Sequence[float] = DEFAULT_R_GRID,
                       certificates: bool = True) -> ExperimentResult:
    """Power weight (1-z)**alpha against the half map: a_n ~ n**-alpha.

    alpha = 0 degenerates to the plain (non-compact) composition operator and
    takes the zero-slope verdict path instead of a power-band verdict.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    omega = sym.weight_power(alpha)
    phi = sym.half_map()
    spectrum = convergence_horizon(
        lambda m: weighted_composition_matrix(omega, phi, m), n_trunc)

    result = ExperimentResult(
        name="weighted_power",
        parameters={"alpha": alpha, "N": n_trunc},
        spectra={"weighted": spectrum},
    )
    lo = window[0]
    hi = min(window[1], spectrum.horizon or 0)
    if hi - lo + 1 < 5:
        # non-compact degenerate case (e.g. the unit weight): the stability
        # horizon collapses and no power fit is possible
        result.details = {"window": None, "zero_slope": True,
                          "fit_sources": {}}
        return result.derive_verdicts()
    window = (lo, hi)
    fit = fit_decay(spectrum, "power", window)
    result.fits["sigma_power"] = fit
    fit_sources = {"sigma_power": {"type": "spectrum", "label": "weighted",
                                   "window": list(window)}}
    zero_slope = abs(fit.params["p"]) < 0.1
    result.details = {"window": list(window), "zero_slope": zero_slope,
                      "fit_sources": fit_sources}

    if certificates and not zero_slope:
        fit_sources.update(_track_certificates(
            result, _geometric_indices(window[0], min(window[1], 64)),
            lambda z: weighted_lower_certificate(omega, phi, z),
            lambda n: _best_weighted_upper(omega, phi, n, r_grid)))

    return result.derive_verdicts()


# ---------------------------------------------------------------------------
# bidisc drivers
# ---------------------------------------------------------------------------

def glued_difference_matrix(phi: sym.Symbol, psi: sym.Symbol,
                            m: int) -> np.ndarray:
    """Truncation of C_Phi - C_Psi for glued symbols (f(z1, z2) -> f(phi, phi)).

    Basis z1^j z2^k with j, k < m; the image of every monomial depends on z1
    alone, so all rows with z2-degree > 0 vanish.
    """
    # column k holds the first m coefficients of phi**k - psi**k
    diff = _difference_table(phi, psi, m, 2 * m - 1)
    out = np.zeros((m * m, m * m), dtype=diff.dtype)
    for j in range(m):
        for k in range(m):
            out[0: m * m: m, j * m + k] = diff[:, j + k]  # rows (p, q=0) at index p*m
    return out


def run_bidisc(kind: str, **params) -> ExperimentResult:
    """Bidisc constructions: ``split``, ``glued`` or ``triangular``."""
    if kind == "split":
        return _run_split(**params)
    if kind == "glued":
        return _run_glued(**params)
    if kind == "triangular":
        return _run_triangular(**params)
    raise ValueError(f"unknown bidisc kind {kind!r}")


def _kronecker_mismatch(a: np.ndarray, b: np.ndarray, sa: SingularSpectrum,
                       sb: SingularSpectrum) -> float:
    """Largest gap between the singular values of ``kron(a, b)`` and
    ``tensor_spectrum(sa, sb)``, relative to the largest singular value."""
    direct = np.linalg.svd(np.kron(a, b), compute_uv=False)
    via = tensor_spectrum(sa, sb, len(direct)).values
    return float(np.abs(via - direct).max() / max(direct[0], 1e-300))


def _run_split(c: float = 0.01, n_trunc: int = 512, count: int = 4096,
               factor_dilation: float = 0.5,
               diff_spectrum: Optional[SingularSpectrum] = None,
               factor_spectrum: Optional[SingularSpectrum] = None
               ) -> ExperimentResult:
    """Split symbols (phi_i(z1), psi(z2)): the difference tensorises.

    The corner pair supplies the first factor; the compact second factor is
    a dilation, whose truncations are exact at every order (a corner-type
    factor would cap the trusted tensor range at its tiny stability horizon).
    """
    phi0 = sym.corner_map()
    phi1 = sym.corner_perturbation(c)
    if diff_spectrum is None:
        diff_spectrum = convergence_horizon(
            lambda m: difference_matrix(phi0, phi1, m), n_trunc)
    if factor_spectrum is None:
        factor_spectrum = convergence_horizon(
            lambda m: composition_matrix(sym.dilation(factor_dilation), m),
            n_trunc)
    tensor = tensor_spectrum(diff_spectrum, factor_spectrum, count)

    # cross-check the tensor rule against an explicit Kronecker SVD at a
    # small order, where the product matrix is cheap to factor
    d_small = difference_matrix(phi0, phi1, 8)
    f_small = composition_matrix(sym.dilation(factor_dilation), 8)
    mismatch = _kronecker_mismatch(d_small.matrix, f_small.matrix,
                                   singular_spectrum(d_small),
                                   singular_spectrum(f_small))

    result = ExperimentResult(
        name="bidisc_split",
        parameters={"c": c, "N": n_trunc, "count": count},
        spectra={"tensor": tensor, "difference": diff_spectrum,
                 "factor": factor_spectrum},
        details={"kronecker_max_mismatch": mismatch},
    )
    m_hor = min(diff_spectrum.horizon or 0, factor_spectrum.horizon or 0)
    m_max = min(int(math.isqrt(len(tensor))), m_hor)
    if m_max >= 6:
        ms = np.arange(3, m_max + 1)
        vals = np.array([tensor.values[m * m - 1] for m in ms])
        if np.all(vals > 0):
            result.fits["square_index_stretched"] = fit_series(ms, vals,
                                                               "stretched")
            result.details["fit_sources"] = {
                "square_index_stretched": _series_source(zip(ms, vals))}
    result.details.setdefault("fit_sources", {})
    return result.derive_verdicts()


def _run_glued(c: float = 0.01, n_trunc: int = 256,
               check_order: int = 8) -> ExperimentResult:
    """Glued symbols (phi(z1), phi(z1)): the z2-independent subspace carries C_phi."""
    phi = sym.corner_map()
    psi = sym.corner_perturbation(c)
    spectrum = convergence_horizon(lambda m: difference_matrix(phi, psi, m),
                                   max(n_trunc, 16))

    m = check_order
    glued = glued_difference_matrix(phi, psi, m)
    # basis packing is index = (z1 degree) * m + (z2 degree); the invariant
    # subspace z2-degree 0 picks rows and columns at multiples of m.  Its
    # column j must hold the coefficients of phi**j - psi**j, here taken from
    # the series module's powers (repeated squaring), independent of the
    # column recursion that builds the glued matrix
    idx = np.arange(m) * m
    restricted = glued[np.ix_(idx, idx)]
    oracle = np.stack([
        sym.taylor_array(sym.Symbol("phi^j", sym.IntPower(phi.expr, j)), m)
        - sym.taylor_array(sym.Symbol("psi^j", sym.IntPower(psi.expr, j)), m)
        for j in range(m)], axis=1)
    err = float(np.abs(restricted - oracle).max())

    result = ExperimentResult(
        name="bidisc_glued",
        parameters={"c": c, "N": max(n_trunc, 16), "check_order": check_order},
        spectra={"difference": spectrum},
        details={"restriction_max_error": err, "fit_sources": {}},
    )
    return result.derive_verdicts()


def _run_triangular(c: float = 0.01, weight_modulus: float = 0.5,
                    n_trunc: int = 2048, k_range: Sequence[int] = range(3, 8),
                    diff_spectrum: Optional[SingularSpectrum] = None,
                    phi0_spectrum: Optional[SingularSpectrum] = None,
                    phi1_spectrum: Optional[SingularSpectrum] = None
                    ) -> ExperimentResult:
    """Triangularly separated symbols with the doubling block schedule n_k = 2^K."""
    phi0 = sym.corner_map()
    phi1 = sym.corner_perturbation(c)
    u0 = sym.constant(weight_modulus)
    u1 = sym.dilation(weight_modulus)
    if diff_spectrum is None:
        diff_spectrum = convergence_horizon(
            lambda m: difference_matrix(phi0, phi1, m), n_trunc)
    if phi0_spectrum is None:
        phi0_spectrum = convergence_horizon(
            lambda m: composition_matrix(phi0, m), n_trunc)
    if phi1_spectrum is None:
        phi1_spectrum = convergence_horizon(
            lambda m: composition_matrix(phi1, m), n_trunc)

    # corner-pair truncations cannot certify sigma_n at the 2^K block sizes
    # (their stability horizons grow only logarithmically in N); the raw
    # values sit far below the geometric tail that decides the max, so the
    # bound itself is unaffected and the flag records the shortcut
    bounds_series = []
    docs = []
    for big_k in k_range:
        sizes = [2 ** big_k] * (big_k + 1)
        tb = triangular_bound(u0, u1, phi0, phi1, sizes,
                              diff_spectrum, phi0_spectrum, phi1_spectrum,
                              enforce_horizons=False)
        bounds_series.append((tb.index, tb.value))
        docs.append(tb.to_dict())

    ns = [n for n, _ in bounds_series]
    vals = [v for _, v in bounds_series]
    result = ExperimentResult(
        name="bidisc_triangular",
        parameters={"c": c, "weight_modulus": weight_modulus, "N": n_trunc,
                    "K_range": [int(k) for k in k_range]},
        spectra={"difference": diff_spectrum, "phi0": phi0_spectrum,
                 "phi1": phi1_spectrum},
        certificates={"triangular": docs},
    )
    result.fits["bound_vs_sqrt_n_log"] = fit_series(ns, vals, "root_n_over_log")
    source = _series_source(bounds_series)
    result.details = {"bound_series": source["series"],
                      "fit_sources": {"bound_vs_sqrt_n_log": source}}
    return result.derive_verdicts()
