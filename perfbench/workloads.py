"""The three benchmark workloads: parameters drawn from a seed, and the
library calls that make up one run of each.

Seed 0 gives the acceptance parameters of the roadmap; any other seed draws
uniformly from the stated ranges (one ``random.Random`` stream per workload
and seed, so a seed always gives the same parameters).

``corner-fixture``
    The three corner doubling spectra at N0 (C_phi, C_psi, C_phi - C_psi),
    then the corner driver and the triangular bidisc driver on those spectra.
    Nearly all work is in ``operators`` on real coefficients; ``bounds`` does
    almost nothing and the Blaschke path is bypassed.
``smooth-pipeline``
    ``run_smooth_perturbation`` with certificates.  The symbol is complex;
    about 40% of the time is the Blaschke sup path and the mpmath fallback.
``weighted-pipeline``
    ``run_weighted_power``: a real symbol built through
    ``weighted_composition_matrix`` and the weighted certificate variants.

Every driver result is written and rechecked; one operation is one driver
call with its write and recheck.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("corner-fixture", "smooth-pipeline", "weighted-pipeline")

_SEED0 = {
    "corner-fixture": {"c": 0.01},
    "smooth-pipeline": {"alpha": 3.0, "c": 0.005},
    "weighted-pipeline": {"alpha": 1.0},
}
_RANGES = {
    "corner-fixture": {"c": (0.008, 0.012)},
    "smooth-pipeline": {"alpha": (2.5, 4.0), "c": (0.004, 0.006)},
    "weighted-pipeline": {"alpha": (1.0, 2.0)},
}
# operations (driver calls) per run of a workload
OPERATIONS = {"corner-fixture": 2, "smooth-pipeline": 1, "weighted-pipeline": 1}

# "full" is the benchmark; "smoke" runs the same code paths at N0 = 64 with
# short index grids, for the self-tests.  (At N0 = 32 the weighted horizon
# is 5, too short for its 5-point fit, so its certificates would not run.)
SIZES = {
    "full": {"n0": 1024, "corner": {}, "triangular": {}, "driver": {}},
    "smoke": {
        "n0": 64,
        "corner": {"window": (2, 16)},
        "triangular": {"k_range": range(3, 6)},
        "driver": {"window": (2, 8), "r_grid": (0.9, 0.99)},
    },
}


def params_for(workload: str, seed: int) -> dict:
    """Workload parameters for ``seed``; the same seed gives the same values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed == 0:
        return dict(_SEED0[workload])
    rng = random.Random(f"{workload}/{seed}")
    return {key: round(rng.uniform(lo, hi), 6)
            for key, (lo, hi) in _RANGES[workload].items()}


def make_symbols(cd, workload: str, params: dict) -> dict:
    """Symbols the benchmark itself hands to the library (part of set-up).

    The smooth and weighted drivers build their own symbols from scalars.
    """
    if workload == "corner-fixture":
        return {"phi": cd.series.corner_map(),
                "psi": cd.series.corner_perturbation(params["c"])}
    return {}


def run(cd, workload: str, params: dict, symbols: dict, size: str,
        outdir: Path) -> list:
    """Make the workload's library calls.

    Returns ``(label, result, rechecked_verdicts)`` per operation.  Library
    functions are looked up on their modules at call time, so a tracer that
    rebinds them sees every call.
    """
    spec = SIZES[size]
    n0 = spec["n0"]
    ex = cd.experiments
    if workload == "corner-fixture":
        ops = cd.operators
        phi, psi = symbols["phi"], symbols["psi"]
        single = ops.convergence_horizon(
            lambda m: ops.composition_matrix(phi, m), n0)
        perturbed = ops.convergence_horizon(
            lambda m: ops.composition_matrix(psi, m), n0)
        diff = ops.convergence_horizon(
            lambda m: ops.difference_matrix(phi, psi, m), n0)
        corner = ex.run_corner_perturbation(
            params["c"], n_trunc=n0, spec_single=single, spec_diff=diff,
            **spec["corner"])
        out = [_write_and_recheck(ex, "corner", corner, outdir)]
        triangular = ex.run_bidisc(
            "triangular", c=params["c"], n_trunc=n0, diff_spectrum=diff,
            phi0_spectrum=single, phi1_spectrum=perturbed,
            **spec["triangular"])
        out.append(_write_and_recheck(ex, "triangular", triangular, outdir))
        return out
    if workload == "smooth-pipeline":
        result = ex.run_smooth_perturbation(
            params["alpha"], params["c"], n_trunc=n0, certificates=True,
            **spec["driver"])
        return [_write_and_recheck(ex, "smooth", result, outdir)]
    if workload == "weighted-pipeline":
        result = ex.run_weighted_power(params["alpha"], n_trunc=n0,
                                       **spec["driver"])
        return [_write_and_recheck(ex, "weighted", result, outdir)]
    raise ValueError(f"unknown workload {workload!r}")


def _write_and_recheck(ex, label: str, result, outdir: Path):
    path = Path(outdir) / label
    result.write(path)
    return label, result, ex.recheck(path)
