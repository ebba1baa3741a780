"""Span tracer that wraps the public functions of each compdiff layer.

The program has no spans of its own yet, so the benchmark records them from
outside: every traced function is replaced by a timing wrapper in each
``compdiff`` module namespace that binds it (``bounds`` binds
``blaschke_eval`` through ``from .hardy import ...``, so patching ``hardy``
alone would miss those calls).  ``boundary_rho_mp`` is imported at call time
inside ``bounds._w_values``, so rebinding it in ``series`` is enough.

Spans are kept in memory and turned into per-layer metrics at the end; the
originals are restored when the tracer exits.  No file under ``src/`` is
changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) -> metric group.  The group is the per-layer metric
# prefix; several functions may share one (the two matrix builders, the
# three fit entry points).
TRACED = {
    ("series", "taylor_array"): "series.taylor_array",
    ("series", "eval_boundary"): "series.eval_boundary",
    ("series", "boundary_rho_mp"): "series.boundary_rho_mp",
    ("operators", "composition_matrix"): "operators.build",
    ("operators", "weighted_composition_matrix"): "operators.build",
    ("operators", "difference_matrix"): "operators.difference_matrix",
    ("operators", "singular_spectrum"): "operators.singular_spectrum",
    ("operators", "convergence_horizon"): "operators.convergence_horizon",
    ("hardy", "blaschke_eval"): "hardy.blaschke_eval",
    ("hardy", "carleson_norm"): "hardy.carleson_norm",
    ("hardy", "uniform_separation"): "hardy.uniform_separation",
    ("bounds", "upper_certificate"): "bounds.upper_certificate",
    ("bounds", "weighted_upper_certificate"): "bounds.weighted_upper_certificate",
    ("bounds", "optimize_upper"): "bounds.optimize_upper",
    ("bounds", "blaschke_zeros_for_symbol"): "bounds.blaschke_zeros_for_symbol",
    ("bounds", "lower_certificate"): "bounds.lower_certificate",
    ("bounds", "weighted_lower_certificate"): "bounds.weighted_lower_certificate",
    ("experiments", "run_smooth_perturbation"): "experiments.driver",
    ("experiments", "run_corner_perturbation"): "experiments.driver",
    ("experiments", "run_weighted_power"): "experiments.driver",
    ("experiments", "run_bidisc"): "experiments.driver",
    ("experiments", "fit_series"): "experiments.fit",
    ("experiments", "fit_decay"): "experiments.fit",
    ("experiments", "_fit_raw"): "experiments.fit",
    ("experiments", "recheck"): "experiments.recheck",
}
# methods are patched on the class, which every namespace shares
TRACED_METHODS = {
    ("experiments", "ExperimentResult", "write"): "experiments.write",
}

# groups whose span self time is reported as a per-layer metric
SELF_TIME_GROUPS = (
    "series.taylor_array", "series.eval_boundary", "series.boundary_rho_mp",
    "operators.build", "operators.difference_matrix",
    "operators.singular_spectrum", "operators.convergence_horizon",
    "hardy.blaschke_eval", "hardy.carleson_norm", "hardy.uniform_separation",
    "bounds.upper_certificate", "bounds.weighted_upper_certificate",
    "bounds.optimize_upper", "bounds.blaschke_zeros_for_symbol",
    "bounds.lower_certificate", "bounds.weighted_lower_certificate",
    "experiments.fit", "experiments.write", "experiments.recheck",
)
CALL_COUNT_GROUPS = (
    "series.boundary_rho_mp", "operators.singular_spectrum",
    "hardy.blaschke_eval", "bounds.upper_certificate",
    "bounds.weighted_upper_certificate",
)
# lru_caches read through cache_info() only; a fresh process starts them cold
CACHES = {
    "cache.sup_values": ("bounds", "_sup_values"),
    "cache.w_values": ("bounds", "_w_values"),
    "cache.level_curve": ("bounds", "_level_curve"),
    "cache.self_map_report": ("operators", "_self_map_report"),
}
# counters computed from the wrapped calls' arguments and results -> unit
COUNTERS = {
    "operators.singular_spectrum.complex_calls": "count",
    "operators.svd_gflop_computed": "GFLOP",
    "operators.matrix_mb_computed": "MB",
    "hardy.blaschke_eval.factor_evals_computed": "count",
    "bounds.unstable_sups": "count",
    "bounds.empty_sets": "count",
    "experiments.fallback_windows": "count",
}


def svd_gflop(order: int, is_complex: bool) -> float:
    """Flops of a values-only dense SVD: (8/3) n^3 real, four times that complex."""
    return (8.0 / 3.0) * order ** 3 * (4 if is_complex else 1) / 1e9


def _count_singular_spectrum(counts, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    is_complex = op.matrix.dtype.kind == "c"
    counts["operators.singular_spectrum.complex_calls"] += int(is_complex)
    counts["operators.svd_gflop_computed"] += svd_gflop(op.order, is_complex)


def _count_matrix(counts, args, kwargs, result):
    counts["operators.matrix_mb_computed"] += (
        result.order ** 2 * result.matrix.dtype.itemsize / 1e6)


def _count_blaschke(counts, args, kwargs, result):
    product = args[0] if args else kwargs["product"]
    z = args[1] if len(args) > 1 else kwargs["z"]
    counts["hardy.blaschke_eval.factor_evals_computed"] += (
        product.degree * int(np.size(z)))


def _count_upper_flags(counts, args, kwargs, result):
    counts["bounds.unstable_sups"] += int(not result.flags["stable_within_2pct"])
    counts["bounds.empty_sets"] += len(result.flags["empty_sets"])


def _count_fallback_windows(counts, args, kwargs, result):
    counts["experiments.fallback_windows"] += sum(
        1 for key, value in result.details.items()
        if key.startswith("window_exceeds_horizon") and value)


COUNT_HOOKS = {
    ("operators", "singular_spectrum"): _count_singular_spectrum,
    ("operators", "composition_matrix"): _count_matrix,
    ("operators", "weighted_composition_matrix"): _count_matrix,
    ("operators", "difference_matrix"): _count_matrix,
    ("hardy", "blaschke_eval"): _count_blaschke,
    ("bounds", "upper_certificate"): _count_upper_flags,
    ("bounds", "weighted_upper_certificate"): _count_upper_flags,
    ("experiments", "run_corner_perturbation"): _count_fallback_windows,
}


def _compdiff_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "compdiff"
                                    or name.startswith("compdiff."))]


class Tracer:
    """Context manager: install wrappers on enter, restore originals on exit.

    ``spans`` holds ``[group, start, end, parent_index]`` rows in call order
    (``parent_index`` is -1 for a top-level span).
    """

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (namespace object, attribute, original)

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _compdiff_modules()
        for (mod_name, attr), group in TRACED.items():
            original = getattr(sys.modules[f"compdiff.{mod_name}"], attr)
            wrapper = self._wrap(original, group,
                                 COUNT_HOOKS.get((mod_name, attr)))
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for (mod_name, cls_name, attr), group in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"compdiff.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap(original, group, None))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, wrapper) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    def _wrap(self, original, group, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, counts = self.calls, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([group, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            calls[group] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> Counter:
        """Per-group span duration minus the duration of its direct children."""
        child_time = [0.0] * len(self.spans)
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i, (group, start, end, _) in enumerate(self.spans):
            out[group] += (end - start) - child_time[i]
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced operation whose wall time was ``wall_s``."""
        selfs = self.self_times()
        out = {f"{g}.self_s": selfs.get(g, 0.0) for g in SELF_TIME_GROUPS}
        out.update({f"{g}.calls": self.calls.get(g, 0)
                    for g in CALL_COUNT_GROUPS})
        out.update({name: self.counts.get(name, 0) for name in COUNTERS})
        for label, (mod_name, attr) in CACHES.items():
            info = getattr(sys.modules[f"compdiff.{mod_name}"], attr).cache_info()
            out[f"{label}.hits"] = info.hits
            out[f"{label}.misses"] = info.misses
        covered = self.top_level_time()
        out["trace.unattributed_s"] = wall_s - covered
        out["trace.top_level_share"] = covered / wall_s if wall_s > 0 else 0.0
        return out
