"""compdiff benchmark: time to a verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Workloads (see ``workloads.py``): ``corner-fixture``,
``smooth-pipeline``, ``weighted-pipeline``.

Load shape: a closed loop of one caller.  Every run of the workload is one
child process (``op.py``) that must finish before the next starts, with the
BLAS thread count pinned to 1 in its environment before numpy loads; a
fresh process means the library's ``lru_cache``s start cold, as for a CLI
user.  Runs repeat while another one is expected to end within
``--seconds`` (at least one; with ``--trace 1`` at least one untraced and
one traced, alternating).  Before the first run and after every run,
``PROBES_PER_WINDOW`` children only set up, so ``setup_s`` has several
samples spread over the run.

``--trace 0`` prints the end-to-end metrics (medians over the runs):
``wall_s`` (first library call to the end of ``recheck``), ``cpu_s`` (user
plus system time of the child, from ``wait4``), ``setup_s`` (child start
through ``import compdiff`` and symbol construction) and ``peak_rss_mb``.
``--trace 1`` prints the per-layer metrics of the traced runs (see
``tracer.py``) plus ``trace.overhead_s``, the traced minus the untraced
median ``wall_s``.

Every run is checked (``gate.py``); a raised exception or a failed check
counts its operation as failed and prints the reason.  The last line of
standard output is the result object; the line before it records the
environment.  Without the program (no ``src/compdiff``) the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# set-up-only children before the first run and after every run: set-up
# time drifts with the host over seconds, so samples spread over the whole
# run give a steadier median than one burst at the start
PROBES_PER_WINDOW = 4
HARD_LIMIT_S = 165.0  # the whole run, probes included, ends well within 180 s
PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    units = {f"{g}.self_s": "s" for g in tracer.SELF_TIME_GROUPS}
    units.update({f"{g}.calls": "count" for g in tracer.CALL_COUNT_GROUPS})
    units.update(tracer.COUNTERS)
    for label in tracer.CACHES:
        units[f"{label}.hits"] = "count"
        units[f"{label}.misses"] = "count"
    units.update({"trace.unattributed_s": "s", "trace.top_level_share": "ratio",
                  "trace.overhead_s": "s"})
    return units


PER_LAYER = _per_layer_units()
# per-layer values that must repeat exactly between runs of one commit
EXACT = [name for name, unit in PER_LAYER.items()
         if unit in ("count", "GFLOP", "MB")]
MIN_TOP_LEVEL_SHARE = 0.95


def source_record() -> dict:
    """Git commit when the tree is a checkout, and a digest of ``src/`` always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _reap(pid: int, deadline: float) -> tuple:
    """``wait4`` for the child, killing it past ``deadline`` or if interrupted.

    Returns (wait status, resource usage of the child).
    """
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, usage
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return status, usage


def spawn_op(workload: str, params: dict, outdir: Path, trace: bool = False,
             setup_only: bool = False, size: str = "full",
             check_reference: bool = False, timeout: float = HARD_LIMIT_S) -> dict:
    """Run ``op.py`` in a fresh process and return its record.

    Adds ``cpu_s``, ``peak_rss_mb`` (from ``wait4``) and ``exit_code``.  A
    child still running after ``timeout`` seconds is killed and reported.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **PIN_ENV)
    cmd = [sys.executable, str(HERE / "op.py"), "--workload", workload,
           "--params", json.dumps(params), "--outdir", str(outdir),
           "--trace", str(int(trace)), "--size", size]
    if check_reference:
        cmd.append("--check-reference")
    if setup_only:
        cmd.append("--setup-only")
    with open(outdir / "child.log", "w") as log:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                                stdout=log, stderr=subprocess.STDOUT, env=env)
    status, usage = _reap(proc.pid, spawned_at + timeout)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads((outdir / "op.json").read_text())
    except (OSError, ValueError):
        log_tail = (outdir / "child.log").read_text()[-2000:]
        record = {"failures": [f"child exited with {proc.returncode} and no "
                               f"record; log tail:\n{log_tail}"],
                  "operations": 0 if setup_only else workloads.OPERATIONS[workload],
                  "failed": 0 if setup_only else workloads.OPERATIONS[workload]}
    record["exit_code"] = proc.returncode
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return record


def _median(values: list) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple:
    """Runs while another one fits in ``seconds``, with set-up probes between.

    Returns (params, probe records, run records).
    """
    params = workloads.params_for(workload, seed)
    start = time.monotonic()
    probes, runs = [], []

    def probe_window():
        probes.extend(spawn_op(workload, params, workdir / f"probe{len(probes)}",
                               setup_only=True)
                      for _ in range(PROBES_PER_WINDOW))

    probe_window()
    longest = 0.0
    while True:
        traced = trace and len(runs) % 2 == 1
        t0 = time.monotonic()
        record = spawn_op(workload, params, workdir / f"run{len(runs)}",
                          trace=traced, check_reference=(seed == 0),
                          timeout=HARD_LIMIT_S - (t0 - start))
        record["traced"] = traced
        runs.append(record)
        probe_window()
        longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if elapsed + longest > HARD_LIMIT_S:
            break
        # stop unless another run of the longest length so far still ends
        # within ``seconds``; a traced measurement needs a run of each kind
        if elapsed + longest > seconds and not (trace and len(runs) < 2):
            break
    return params, probes, runs


def summarise(probes: list, runs: list, trace: bool) -> tuple:
    """(metrics, failure reasons) from the child records."""
    errors = [f for rec in probes + runs for f in rec["failures"]]
    ok = [rec for rec in runs if "wall_s" in rec]
    if trace:
        traced = [rec for rec in ok if rec["traced"]]
        plain = [rec for rec in ok if not rec["traced"]]
        if not traced or not plain:
            return {}, errors + ["no complete traced and untraced pair of runs"]
        values = {name: _median([rec["layers"][name] for rec in traced])
                  for name in traced[0]["layers"]}
        for name in EXACT:
            seen = {rec["layers"][name] for rec in traced}
            if len(seen) > 1:
                errors.append(f"count {name} differs between runs: {sorted(seen)}")
            values[name] = traced[0]["layers"][name]
        values["trace.overhead_s"] = (_median([rec["wall_s"] for rec in traced])
                                      - _median([rec["wall_s"] for rec in plain]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        share = metrics["trace.top_level_share"]["value"]
        if share < MIN_TOP_LEVEL_SHARE:
            errors.append(f"top-level spans cover {share:.3f} of wall_s "
                          f"(< {MIN_TOP_LEVEL_SHARE})")
        return metrics, errors
    if not ok:
        return {}, errors + ["no run completed"]
    values = {
        "wall_s": _median([rec["wall_s"] for rec in ok]),
        "cpu_s": _median([rec["cpu_s"] for rec in ok]),
        "setup_s": _median([rec["setup_s"] for rec in probes + runs
                            if "setup_s" in rec]),
        "peak_rss_mb": _median([rec["peak_rss_mb"] for rec in ok]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "compdiff" / "__init__.py").is_file():
        print(f"compdiff sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        params, probes, runs = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    metrics, errors = summarise(probes, runs, bool(args.trace))
    for reason in errors:
        print(f"FAILED: {reason}")
    attempted = sum(rec["operations"] for rec in runs)
    failed = sum(rec["failed"] for rec in runs)
    env = next((rec["env"] for rec in probes + runs if "env" in rec), {})
    print(json.dumps({
        "environment": dict(env, nproc=os.cpu_count(),
                            affinity=len(os.sched_getaffinity(0)),
                            **source_record()),
        "workload": args.workload, "seed": args.seed, "params": params,
        "runs": len(runs), "traced_runs": sum(rec["traced"] for rec in runs),
        "wall_s_samples": [rec.get("wall_s") for rec in runs],
        "setup_s_samples": [rec.get("setup_s") for rec in probes + runs],
    }, sort_keys=True))
    print(json.dumps({"correct": not errors and failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
