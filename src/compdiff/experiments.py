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
    lower_certificate,
    optimize_upper,
    optimize_weighted_upper,
    sequence_boundary_pinch,
    triangular_bound,
    weighted_lower_certificate,
)
from .operators import (
    SingularSpectrum,
    TruncatedOperator,
    composition_matrix,
    convergence_horizon,
    difference_matrix,
    spectrum_from_csv,
    spectrum_to_csv,
    tensor_spectrum,
    weighted_composition_matrix,
)

# "root_n_over_log" (x = sqrt(n / log n)) serves the bidisc block bounds;
# spectra are fitted with the first four.
MODELS = ("power", "power_log", "stretched", "root_exp", "root_n_over_log")

DEFAULT_R_GRID = tuple(1.0 - np.geomspace(1e-5, 0.4, 17))
_FIT_POINTS = 3  # the fewest points a decay fit takes


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
    if len(n) < _FIT_POINTS:
        raise ValueError(f"need at least {_FIT_POINTS} points to fit")
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
    """Fit sigma_n over ``window`` without the horizon guard; flagged
    fallback windows fit here, and :func:`fit_decay` after its guards."""
    lo, hi = int(window[0]), int(window[1])
    values = spectrum.values[lo - 1: hi]
    if np.any(values <= 0):
        raise ZeroInWindow(f"sigma_n <= 0 inside window [{lo}, {hi}]")
    return fit_series(np.arange(lo, hi + 1), values, model, q=q)


def _fit_window(window: tuple, top: Optional[int]) -> tuple:
    """``window`` cut at ``top``, a horizon or noise-floor index (None counts as 0)."""
    lo, hi = window[0], min(window[1], top or 0)
    if hi - lo + 1 < _FIT_POINTS:
        raise WindowExceedsHorizon(
            f"under {_FIT_POINTS} points of window {tuple(window)} up to n={top}")
    return lo, hi


def fit_decay(spectrum: SingularSpectrum, model: str, window: tuple,
              q: float = 0.0) -> DecayFit:
    """Fit a decay model to sigma_n over ``window = (n_lo, n_hi)`` inclusive.

    The window must sit inside [2, horizon]; positive values only.  A
    spectrum without a horizon trusts no index (None counts as 0).
    """
    lo, hi = int(window[0]), int(window[1])
    if lo < 2 or hi < lo:
        raise ValueError(f"bad window {window}")
    if hi > (spectrum.horizon or 0):
        raise WindowExceedsHorizon(
            f"window top {hi} exceeds horizon {spectrum.horizon}")
    if hi > len(spectrum):
        raise WindowExceedsHorizon(f"window top {hi} exceeds truncation {len(spectrum)}")
    return _fit_raw(spectrum, model, window, q)


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

    def add_fit(self, label: str, source: dict, model: str) -> DecayFit:
        """Fit ``model`` to the data ``source`` names; keep the fit as
        ``label`` and its source in ``details["fit_sources"]``."""
        fit = _fit_from_source(source, self.spectra, model)
        self.fits[label] = fit
        self.details.setdefault("fit_sources", {})[label] = source
        return fit

    def derive_verdicts(self) -> "ExperimentResult":
        """Set ``verdicts`` from the fits, spectra and details; returns self."""
        self.verdicts = _derive_verdicts(self.name, self.parameters, self.fits,
                                         self.spectra, self.details)
        return self

    def write(self, outdir) -> Path:
        files, spectra_files = {}, {}
        for i, (label, spectrum) in enumerate(self.spectra.items()):
            fname = "spectrum.csv" if i == 0 else f"spectrum_{label}.csv"
            files[fname] = spectrum_to_csv(spectrum)
            spectra_files[label] = fname
        if self.certificates:
            files["certificates.json"] = _json_text(self.certificates)
        files["result.json"] = _json_text({
            "name": self.name,
            "parameters": self.parameters,
            "fits": {k: f.to_dict() for k, f in self.fits.items()},
            "verdicts": self.verdicts,
            "details": self.details,
            "spectra_files": spectra_files,
            "certificates_file": "certificates.json" if self.certificates else None,
        })
        return _write_outputs(outdir, files) / "result.json"


def _json_text(payload) -> str:
    """Standard JSON, keys sorted, one trailing newline: a non-finite number
    raises instead of being serialised."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_outputs(outdir, files: dict) -> Path:
    """Make ``outdir``, write ``files`` (name -> text) in order and return the
    directory: the package's one writer, called once every file is serialised."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return out


def _fit_from_source(source: dict, spectra: dict, model: str,
                     q: float = 0.0) -> DecayFit:
    """The fit of ``model`` to the data that a fit source names.

    A ``spectrum`` source fits ``spectra[label]`` on a window inside its
    horizon, a ``spectrum_raw`` source on a flagged fallback window that may
    pass it, and a ``series`` source its own ``[n, value]`` pairs.  The
    drivers and :func:`recheck` both fit through here, so a rechecked fit is
    made by the code that made the original.
    """
    if source["type"] == "series":
        ns, values = zip(*source["series"])
        return fit_series(ns, values, model, q=q)
    fit = fit_decay if source["type"] == "spectrum" else _fit_raw
    return fit(spectra[source["label"]], model, tuple(source["window"]), q=q)


def recheck(outdir) -> dict:
    """Recompute verdicts from the serialised result; no operator numerics."""
    out = Path(outdir)
    payload = json.loads((out / "result.json").read_text())
    spectra = {label: spectrum_from_csv((out / fname).read_text())
               for label, fname in payload["spectra_files"].items()}
    sources = payload["details"].get("fit_sources", {})
    fits = {label: _fit_from_source(sources[label], spectra, spec["model"],
                                    spec["params"].get("q", 0.0))
            for label, spec in payload["fits"].items()}
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
        trusted = min(_trusted_top(s), _trusted_top(d))
        return {
            "diff_stretched_r2": diff_st >= 0.95,
            "diff_stretched_beats_root_exp": diff_st - diff_re >= 0.02,
            "single_root_exp_r2": single_re >= 0.95,
            "single_root_exp_beats_stretched": single_re - single_st >= 0.02,
            "sigma64_separation": trusted >= 64 and d.sigma(64) < 1e-2 * s.sigma(64),
        }
    if name == "weighted_power":
        if details.get("zero_slope"):
            return {"zero_slope": True}
        alpha = parameters["alpha"]
        p = fits["sigma_power"].params["p"]
        return {"power_band": (alpha - 0.3) <= p <= (alpha + 0.4),
                "zero_slope": False}
    if name == "bidisc_split":
        if "square_index_stretched" not in fits:
            return {}
        f = fits["square_index_stretched"]
        return {"square_index_rate": f.r2 >= 0.9 and f.params["c"] > 0}
    if name == "bidisc_glued":
        return {}
    if name == "bidisc_triangular":
        f = fits["bound_vs_sqrt_n_log"]
        return {"bound_rate": f.r2 >= 0.9 and f.params["c"] > 0}
    raise ValueError(f"unknown experiment {name!r}")


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _geometric_indices(lo: int, hi: int) -> list:
    """Seven geometrically spaced indices in [lo, hi], duplicates merged."""
    grid = np.unique(np.round(np.geomspace(lo, hi, 7)).astype(int))
    return [int(g) for g in grid if lo <= g <= hi]


def _series_source(pairs) -> dict:
    """Fit source of a fit made on ``(n, value)`` pairs."""
    return {"type": "series", "series": [[int(n), float(v)] for n, v in pairs]}


def _track_certificates(result: ExperimentResult, n_grid, lower,
                        upper) -> None:
    """Certificates per n into ``result``, with a power fit to each series.

    ``lower`` takes the 2n-point boundary-pinch sequence, ``upper`` takes n.
    """
    certs = {"lower": [], "upper": []}
    for n in n_grid:
        certs["lower"].append(lower(sequence_boundary_pinch(2 * n)))
        certs["upper"].append(upper(n))
    result.certificates = {key: [cert.to_dict() for cert in series]
                           for key, series in certs.items()}
    for key, series in certs.items():
        result.add_fit(f"{key}_power", _series_source(
            (cert.n, cert.value) for cert in series), "power")


def run_smooth_perturbation(alpha: float = 3.0, c: float = 0.005,
                            n_trunc: int = 1024,
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
    sigma_window = _fit_window(window, spectrum.horizon)

    result = ExperimentResult(
        name="smooth_perturbation",
        parameters={"alpha": alpha, "c": c, "N": n_trunc},
        spectra={"difference": spectrum},
        details={"window": list(sigma_window),
                 "certificate_window": list(window),
                 "r_grid": [float(r) for r in r_grid]},
    )
    result.add_fit("sigma_power", {"type": "spectrum", "label": "difference",
                                   "window": list(sigma_window)}, "power")

    if certificates:
        # certificates carry no truncation horizon; they span the window as
        # requested even where the sigma fit had to stop at the horizon
        _track_certificates(
            result, _geometric_indices(window[0], window[1]),
            lambda z: lower_certificate(phi, psi, z),
            lambda n: optimize_upper(phi, psi, n, r_grid))
    return result.derive_verdicts()


# SVD noise floor relative to sigma_1; below it corner-type spectra are
# rounding noise
_NOISE_FLOOR_RTOL = 1e-13


def _floor_index(spectrum: SingularSpectrum) -> int:
    """Last n with sigma_n above the SVD noise floor (0 if there is none);
    ``len(spectrum)`` when the floor lies past the values held, as for the
    128 sketched values of smooth and weighted spectra above N = 128."""
    values = spectrum.values
    return int(np.count_nonzero(values > _NOISE_FLOOR_RTOL * float(values[0])))


def _trusted_top(spectrum: SingularSpectrum) -> int:
    """Last trusted n: the smaller of the horizon and the noise-floor index."""
    return min(spectrum.horizon or 0, _floor_index(spectrum))


def _measurable_window(spectrum: SingularSpectrum, window: tuple):
    """``window`` cut at the horizon, with False; if too few points are left,
    cut at the noise-floor index, with True (a flagged fallback window), as
    corner-type horizons grow only logarithmically in N."""
    try:
        return _fit_window(window, spectrum.horizon), False
    except WindowExceedsHorizon:
        return _fit_window(window, _floor_index(spectrum)), True


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
    n_b = _trusted_top(spec_diff)

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
    n = 48.  ``sigma64_separation`` is False unless index 64 is trusted in
    both spectra.  The claim that the difference is far smaller and decays
    faster is measured on trusted indices only, by
    :func:`trusted_separation`: ``details["trusted_separation"]`` holds its
    n_a, n_b and rho values, and ``details["floor_index_single"]`` and
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
    w_single, single_raw = _measurable_window(spec_single, window)
    w_diff, diff_raw = _measurable_window(spec_diff, window)

    result = ExperimentResult(
        name="corner_perturbation",
        parameters={"c": c, "N": n_trunc},
        spectra={"single": spec_single, "difference": spec_diff},
    )
    for prefix, label, w in (("single", "single", w_single),
                             ("diff", "difference", w_diff)):
        for model in ("root_exp", "stretched"):
            result.add_fit(f"{prefix}_{model}", {
                "type": "spectrum_raw", "label": label, "window": list(w)},
                model)

    def competition(stretched: DecayFit, root_exp: DecayFit) -> str:
        # R^2 with a 0.02 superiority margin; anything closer is a tie
        if stretched.r2 - root_exp.r2 >= 0.02:
            return "stretched"
        if root_exp.r2 - stretched.r2 >= 0.02:
            return "root_exp"
        return "inconclusive"
    result.details.update({
        "window_single": list(w_single),
        "window_diff": list(w_diff),
        "window_exceeds_horizon_single": single_raw,
        "window_exceeds_horizon_diff": diff_raw,
        "model_competition_single": competition(
            result.fits["single_stretched"], result.fits["single_root_exp"]),
        "model_competition_diff": competition(
            result.fits["diff_stretched"], result.fits["diff_root_exp"]),
        "floor_index_single": _floor_index(spec_single),
        "floor_index_diff": _floor_index(spec_diff),
        "trusted_separation": trusted_separation(spec_single, spec_diff),
    })
    return result.derive_verdicts()


def run_weighted_power(alpha: float = 1.0, n_trunc: int = 1024,
                       window: tuple = (8, 100),
                       r_grid: Sequence[float] = DEFAULT_R_GRID,
                       certificates: bool = True) -> ExperimentResult:
    """Power weight (1-z)**alpha against the half map: a_n ~ n**-alpha.

    alpha = 0 (the non-compact C_phi) has a collapsed horizon and raises
    WindowExceedsHorizon; a fitted |p| < 0.1 gives the zero-slope verdict.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    omega = sym.weight_power(alpha)
    phi = sym.half_map()
    spectrum = convergence_horizon(
        lambda m: weighted_composition_matrix(omega, phi, m), n_trunc)
    lo, hi = _fit_window(window, spectrum.horizon)

    result = ExperimentResult(
        name="weighted_power",
        parameters={"alpha": alpha, "N": n_trunc},
        spectra={"weighted": spectrum},
        details={"window": [lo, hi]},
    )
    fit = result.add_fit("sigma_power", {
        "type": "spectrum", "label": "weighted", "window": [lo, hi]}, "power")
    result.details["zero_slope"] = zero_slope = abs(fit.params["p"]) < 0.1

    if certificates and not zero_slope:
        _track_certificates(
            result, _geometric_indices(lo, min(hi, 64)),
            lambda z: weighted_lower_certificate(omega, phi, z),
            lambda n: optimize_weighted_upper(omega, phi, n, r_grid))

    return result.derive_verdicts()


# ---------------------------------------------------------------------------
# bidisc drivers
# ---------------------------------------------------------------------------

def bidisc_driver(kind: str):
    """The driver of a bidisc construction: ``split``, ``glued`` or ``triangular``."""
    drivers = {"split": _run_split, "glued": _run_glued, "triangular": _run_triangular}
    if kind not in drivers:
        raise ValueError(f"unknown bidisc kind {kind!r}")
    return drivers[kind]


def run_bidisc(kind: str, **params) -> ExperimentResult:
    """Run the bidisc construction ``kind`` (see :func:`bidisc_driver`)."""
    return bidisc_driver(kind)(**params)


# number of leading tensor values the split driver keeps
_SPLIT_COUNT = 4096


def _run_split(c: float = 0.01, n_trunc: int = 512) -> ExperimentResult:
    """Split symbols (phi_i(z1), psi(z2)): the difference tensorises.

    The corner pair supplies the first factor; the compact second factor is
    the dilation z -> z/2 (a corner-type factor would cap the trusted tensor
    range at its tiny stability horizon).  C_{z/2} is diagonal with entries
    2^-k, so its spectrum and horizon N are written in closed form, with no
    matrix, SVD or doubling.  The tensor spectrum holds the leading products
    of the two factor spectra (:func:`tensor_spectrum`).  The square-index
    fit reads sigma_{m^2}, m >= 3, at every m^2 inside the tensor's own
    horizon; with fewer than three such m there is no fit and no verdict.
    """
    phi0 = sym.corner_map()
    phi1 = sym.corner_perturbation(c)
    diff_spectrum = convergence_horizon(
        lambda m: difference_matrix(phi0, phi1, m), n_trunc)
    factor_spectrum = SingularSpectrum(0.5 ** np.arange(n_trunc), order=n_trunc,
                                       horizon=n_trunc)
    tensor = tensor_spectrum(diff_spectrum, factor_spectrum, _SPLIT_COUNT)

    result = ExperimentResult(
        name="bidisc_split",
        parameters={"c": c, "N": n_trunc, "count": _SPLIT_COUNT},
        spectra={"tensor": tensor, "difference": diff_spectrum,
                 "factor": factor_spectrum},
    )
    try:
        lo, hi = _fit_window((3, len(tensor)), math.isqrt(tensor.horizon or 0))
    except WindowExceedsHorizon:  # under three trusted squares: no fit
        return result.derive_verdicts()
    ms = np.arange(lo, hi + 1)
    vals = tensor.values[ms * ms - 1]
    if np.all(vals > 0):
        result.add_fit("square_index_stretched",
                       _series_source(zip(ms, vals)), "stretched")
    return result.derive_verdicts()


def _run_glued(c: float = 0.01, n_trunc: int = 256) -> ExperimentResult:
    """Glued symbols Phi = (phi(z1), phi(z1)): C_Phi - C_Psi on H^2(D^2).

    C_Phi f = (D f) o phi with D f(z) = f(z, z).  D maps z1^j z2^k to
    z^(j+k), and z^k has k + 1 such preimages, so D D* = diag(k + 1) and the
    singular values of C_Phi - C_Psi are those of
    (C_phi - C_psi) diag(sqrt(k + 1)): the one-variable difference table
    with column k scaled by sqrt(k + 1).
    Its N x N truncation is a compression of that operator, so the doubling
    at ``n_trunc`` (N < 16 is a ValueError) certifies its horizon.  The
    spectrum is recorded as ``glued``, with no fit and no verdict.
    """
    phi = sym.corner_map()
    psi = sym.corner_perturbation(c)
    spectrum = convergence_horizon(lambda m: TruncatedOperator(
        difference_matrix(phi, psi, m).matrix * np.sqrt(np.arange(1, m + 1))),
        n_trunc)
    result = ExperimentResult(
        name="bidisc_glued",
        parameters={"c": c, "N": n_trunc},
        spectra={"glued": spectrum},
    )
    return result.derive_verdicts()


def _run_triangular(c: float = 0.01, n_trunc: int = 2048,
                    k_range: Sequence[int] = range(3, 8),
                    diff_spectrum: Optional[SingularSpectrum] = None,
                    phi0_spectrum: Optional[SingularSpectrum] = None,
                    phi1_spectrum: Optional[SingularSpectrum] = None
                    ) -> ExperimentResult:
    """Triangularly separated symbols with the doubling block schedule n_k = 2^K.

    The weights are the constant 1/2 and the dilation z -> z/2, both of
    sup-norm 1/2.  Every spectrum, given or built, must hold sigma at the
    largest block size 2^max(K), which ``len(spectrum)`` decides: a doubling
    spectrum above N = 128 holds 128 values when the sketches decide and all
    N values when full SVDs do (see :func:`convergence_horizon`).
    """
    largest = 2 ** max(k_range)  # every block reads sigma at its own size
    if largest > n_trunc:
        raise ValueError(f"triangular block size {largest} needs N >= {largest}, "
                         f"got N={n_trunc}")
    weight_modulus = 0.5
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
    spectra = {"difference": diff_spectrum, "phi0": phi0_spectrum,
               "phi1": phi1_spectrum}
    for label, spectrum in spectra.items():
        if largest > len(spectrum):
            raise ValueError(f"triangular block size {largest} needs sigma_{largest}, "
                             f"but the {label} spectrum holds {len(spectrum)} values")

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

    source = _series_source(bounds_series)
    result = ExperimentResult(
        name="bidisc_triangular",
        parameters={"c": c, "weight_modulus": weight_modulus, "N": n_trunc,
                    "K_range": [int(k) for k in k_range]},
        spectra=spectra,
        certificates={"triangular": docs},
        details={"bound_series": source["series"]},
    )
    result.add_fit("bound_vs_sqrt_n_log", source, "root_n_over_log")
    return result.derive_verdicts()
