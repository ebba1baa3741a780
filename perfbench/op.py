"""One benchmark run of a workload, in a fresh process started by ``run.py``.

The parent pins the BLAS thread count in this process's environment before
anything imports numpy, and passes the monotonic time at which it spawned
the process, so ``setup_s`` covers interpreter start, ``import compdiff`` and
symbol construction.  ``wall_s`` runs from the first library call to the end
of the last ``recheck``; the correctness gate runs after it.

The result goes to ``<outdir>/op.json``; the parent adds CPU time and peak
RSS from ``wait4``.  ``--setup-only`` stops after set-up (the set-up probes).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def blas_threads() -> int:
    """Thread count read back from the OpenBLAS library numpy loaded."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.rsplit("/", 1)[-1]})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    raise RuntimeError("no OpenBLAS thread-count getter among the loaded libraries")


def environment() -> dict:
    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--params", required=True, help="JSON object")
    ap.add_argument("--outdir", required=True, type=Path)
    ap.add_argument("--spawned-at", required=True, type=float,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--check-reference", action="store_true",
                    help="compare with the seed-0 reference")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import compdiff  # loads every layer module
    import workloads

    params = json.loads(args.params)
    symbols = workloads.make_symbols(compdiff, args.workload, params)
    setup_s = time.monotonic() - args.spawned_at

    import gate
    from tracer import Tracer

    record = {"setup_s": setup_s, "env": environment(), "failures": [],
              "operations": 0, "failed": 0}
    threads = blas_threads()
    record["env"]["blas_threads"] = threads
    if threads != 1:
        record["failures"].append(f"BLAS thread count is {threads}, not 1")

    if not args.setup_only:
        n_ops = workloads.OPERATIONS[args.workload]
        record["operations"] = n_ops
        tracer = Tracer() if args.trace else contextlib.nullcontext()
        try:
            with tracer:
                t0 = time.perf_counter()
                done = workloads.run(compdiff, args.workload, params, symbols,
                                     args.size, args.outdir)
                wall_s = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            record["failures"].append(
                f"{args.workload}: raised {sys.exc_info()[1]!r}")
            record["failed"] = n_ops
        else:
            record["wall_s"] = wall_s
            if args.trace:
                record["layers"] = tracer.metrics(wall_s)
            reference = gate.load_reference() if args.check_reference else None
            extracts = {}
            for label, result, rechecked in done:
                errors = gate.invariants(label, result, rechecked)
                extracts[label] = gate.extract(result)
                if reference is not None:
                    errors += gate.compare(label, extracts[label],
                                           reference[args.workload][label])
                record["failures"] += errors
                record["failed"] += int(bool(errors))
            record["extract"] = extracts
            if threads != 1:
                record["failed"] = n_ops

    args.outdir.mkdir(parents=True, exist_ok=True)
    (args.outdir / "op.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
