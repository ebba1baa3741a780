"""Self-tests of the benchmark harness (smoke size: N0 = 64, short grids)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUTPUT_FILES = ("result.json", "certificates.json")


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One untraced and two traced smoke runs of every workload, each in a child."""
    base = tmp_path_factory.mktemp("smoke")
    out = {}
    for workload in workloads.WORKLOADS:
        params = workloads.params_for(workload, 0)
        out[workload] = {
            kind: run.spawn_op(workload, params, base / f"{workload}-{kind}",
                               trace=kind != "plain", size="smoke")
            for kind in ("plain", "traced", "traced2")}
    out["base"] = base
    return out


def test_seed_gives_same_parameters():
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 17, 123456):
            assert workloads.params_for(workload, seed) == \
                workloads.params_for(workload, seed)
            for key, (lo, hi) in workloads._RANGES[workload].items():
                assert lo <= workloads.params_for(workload, seed)[key] <= hi
        assert workloads.params_for(workload, 1) != workloads.params_for(workload, 2)
    assert workloads.params_for("smooth-pipeline", 0) == {"alpha": 3.0, "c": 0.005}
    # independent of hash randomisation in another process
    code = ("import sys, json; sys.path.insert(0, sys.argv[1]); import workloads;"
            "print(json.dumps(workloads.params_for('smooth-pipeline', 7)))")
    seen = {subprocess.run([sys.executable, "-c", code, str(BENCH)],
                           env=dict(os.environ, PYTHONHASHSEED=h),
                           capture_output=True, text=True, check=True).stdout
            for h in ("1", "2")}
    assert seen == {json.dumps(workloads.params_for("smooth-pipeline", 7)) + "\n"}


def _bindings():
    import compdiff  # noqa: F401
    mods = tracer._compdiff_modules()
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}
    snap[("ExperimentResult", "write")] = \
        compdiff.experiments.ExperimentResult.__dict__["write"]
    return snap


def test_wrappers_restore_every_original():
    import compdiff

    before = _bindings()
    with tracer.Tracer():
        during = _bindings()
        assert compdiff.bounds.blaschke_eval is compdiff.hardy.blaschke_eval
        assert compdiff.bounds.blaschke_eval is not before[
            ("compdiff.hardy", "blaschke_eval")]
    changed = {k for k in before if during[k] is not before[k]}
    assert ("compdiff.bounds", "blaschke_eval") in changed
    assert ("compdiff", "run_smooth_perturbation") in changed
    assert ("ExperimentResult", "write") in changed
    after = _bindings()
    assert all(after[k] is before[k] for k in before)

    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_smoke_runs_pass_the_gate(smoke_runs):
    for workload in workloads.WORKLOADS:
        for record in smoke_runs[workload].values():
            assert record["exit_code"] == 0, record
            assert record["failures"] == [], record["failures"]
            assert record["failed"] == 0
            assert record["operations"] == workloads.OPERATIONS[workload]
            assert record["env"]["blas_threads"] == 1


def test_tracing_leaves_outputs_byte_identical(smoke_runs):
    base = smoke_runs["base"]
    for workload in workloads.WORKLOADS:
        plain = base / f"{workload}-plain"
        traced = base / f"{workload}-traced"
        files = sorted(p.relative_to(plain) for p in plain.rglob("*")
                       if p.is_file() and (p.name.endswith(".csv")
                                           or p.name in OUTPUT_FILES))
        assert any(f.name == "result.json" for f in files)
        assert any(f.suffix == ".csv" for f in files)
        for rel in files:
            assert (plain / rel).read_bytes() == (traced / rel).read_bytes(), rel


def test_smoke_covers_each_workload_path(smoke_runs):
    layers = {w: smoke_runs[w]["traced"]["layers"] for w in workloads.WORKLOADS}
    corner = layers["corner-fixture"]
    assert corner["operators.singular_spectrum.calls"] == 6
    assert corner["hardy.blaschke_eval.calls"] == 0
    assert corner["experiments.fallback_windows"] > 0
    smooth = layers["smooth-pipeline"]
    assert smooth["hardy.blaschke_eval.calls"] > 0
    assert smooth["bounds.upper_certificate.calls"] > 0
    assert smooth["series.boundary_rho_mp.calls"] > 0
    weighted = layers["weighted-pipeline"]
    assert weighted["bounds.weighted_upper_certificate.calls"] > 0
    assert weighted["bounds.upper_certificate.calls"] == 0
    for metrics in layers.values():
        assert metrics["trace.top_level_share"] >= run.MIN_TOP_LEVEL_SHARE
        assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_counts_repeat_exactly(smoke_runs):
    for workload in workloads.WORKLOADS:
        first = smoke_runs[workload]["traced"]["layers"]
        second = smoke_runs[workload]["traced2"]["layers"]
        assert {k: first[k] for k in run.EXACT} == {k: second[k] for k in run.EXACT}


def test_differing_counts_fail_the_run():
    def rec(traced, calls):
        layers = {name: 0 for name in run.PER_LAYER if name != "trace.overhead_s"}
        layers["trace.top_level_share"] = 1.0
        layers["hardy.blaschke_eval.calls"] = calls
        return {"traced": traced, "wall_s": 1.0, "failures": [], "layers": layers}

    _, errors = run.summarise([], [rec(False, 0), rec(True, 5), rec(True, 5)], True)
    assert errors == []
    _, errors = run.summarise([], [rec(False, 0), rec(True, 5), rec(True, 6)], True)
    assert any("hardy.blaschke_eval.calls" in e for e in errors)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "smooth-pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
