"""Correctness gate for one benchmark operation.

Every seed: the offline ``recheck`` must re-derive the in-memory verdicts,
spectra must be finite, non-negative and non-increasing, and certificate
values finite and positive.  Seed 0 is also compared with
``reference_seed0.json``, made at the seed commit by ``make_reference.py``:
verdicts and horizons exactly; sigma_n for n <= horizon, certificate values
and fitted rates within ``RTOL`` relative.

Only numbers that rest on stable data are compared: sigma up to each
spectrum's horizon, fits whose window lies inside the horizon (or that fit
certificate series), and triangular bounds decided by their geometric tail
rather than by raw block values beyond a horizon.

A FAIL verdict that matches the reference is not a failure: acceptance
criteria 4 and 5 fail honestly at desk scale.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
REFERENCE = Path(__file__).with_name("reference_seed0.json")
_CERT_VALUE_KEYS = ("value", "value_theorem", "value_constant_free")


def _certificate_values(doc: dict) -> list:
    if doc.get("kind") == "triangular" and doc["value"] != doc["tail"]:
        return []  # decided by raw block values beyond a horizon
    return [doc[k] for k in _CERT_VALUE_KEYS if doc.get(k) is not None]


def _stable_fit(source: dict, spectra: dict) -> bool:
    # "spectrum" fits went through fit_decay, which refuses windows beyond
    # the horizon; "series" fits use no spectrum
    if source["type"] != "spectrum_raw":
        return True
    return source["window"][1] <= (spectra[source["label"]].horizon or 0)


def extract(result) -> dict:
    """The reference-comparable numbers of one driver result."""
    sources = result.details.get("fit_sources", {})
    trusted_series = all(
        _certificate_values(doc) for doc in result.certificates.get("triangular", []))
    rates = {}
    for label, fit in result.fits.items():
        source = sources[label]
        if source["type"] == "series" and not trusted_series:
            continue
        if _stable_fit(source, result.spectra):
            rates[label] = fit.rate
    return {
        "verdicts": dict(result.verdicts),
        "horizons": {k: s.horizon for k, s in result.spectra.items()},
        "sigma": {k: [float(v) for v in s.values[: s.horizon or 0]]
                  for k, s in result.spectra.items()},
        "certificates": {kind: [_certificate_values(d) for d in docs]
                         for kind, docs in result.certificates.items()},
        "rates": rates,
    }


def invariants(label: str, result, rechecked: dict) -> list:
    """Checks that hold for every seed; returns failure reasons."""
    errors = []
    if rechecked != result.verdicts:
        errors.append(f"{label}: recheck {rechecked} != verdicts {result.verdicts}")
    for name, spectrum in result.spectra.items():
        v = np.asarray(spectrum.values)
        if not np.all(np.isfinite(v)):
            errors.append(f"{label}: spectrum {name} has non-finite values")
        elif np.any(v < 0):
            errors.append(f"{label}: spectrum {name} has negative values")
        elif np.any(np.diff(v) > 0):
            errors.append(f"{label}: spectrum {name} is not non-increasing")
    for kind, docs in result.certificates.items():
        for doc in docs:
            for key in _CERT_VALUE_KEYS:
                value = doc.get(key)
                if value is not None and not (math.isfinite(value) and value > 0):
                    errors.append(f"{label}: {kind} certificate n={doc.get('n', doc.get('N'))}"
                                  f" has {key}={value}")
    return errors


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _compare_lists(where: str, got: list, ref: list) -> list:
    if len(got) != len(ref):
        return [f"{where}: {len(got)} values, reference has {len(ref)}"]
    bad = [i for i, (a, b) in enumerate(zip(got, ref)) if not _close(a, b)]
    if bad:
        i = bad[0]
        return [f"{where}: {len(bad)} values differ by more than {RTOL:g} "
                f"relative (first at index {i}: {got[i]!r} vs {ref[i]!r})"]
    return []


def compare(label: str, got: dict, ref: dict) -> list:
    """Compare an extract with its reference; returns failure reasons."""
    errors = []
    for key in ("verdicts", "horizons"):
        if got[key] != ref[key]:
            errors.append(f"{label}: {key} {got[key]} != reference {ref[key]}")
    if errors:
        return errors  # the tolerance checks below assume equal horizons
    for name, values in ref["sigma"].items():
        errors += _compare_lists(f"{label}: sigma[{name}]", got["sigma"][name], values)
    if set(got["certificates"]) != set(ref["certificates"]):
        errors.append(f"{label}: certificate kinds {sorted(got['certificates'])}"
                      f" != reference {sorted(ref['certificates'])}")
    else:
        for kind, docs in ref["certificates"].items():
            flat_got = [v for d in got["certificates"][kind] for v in d]
            flat_ref = [v for d in docs for v in d]
            errors += _compare_lists(f"{label}: {kind} certificates", flat_got, flat_ref)
    if set(got["rates"]) != set(ref["rates"]):
        errors.append(f"{label}: fitted rates {sorted(got['rates'])}"
                      f" != reference {sorted(ref['rates'])}")
    else:
        for name, rate in ref["rates"].items():
            if not _close(got["rates"][name], rate):
                errors.append(f"{label}: rate {name} = {got['rates'][name]!r},"
                              f" reference {rate!r}")
    return errors


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
