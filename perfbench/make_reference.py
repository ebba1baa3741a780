"""Write ``reference_seed0.json``: the seed-0 outputs the gate compares with.

    python3 perfbench/make_reference.py

Runs each workload once at seed 0 in a pinned child process (as the
benchmark does) and stores the comparable numbers of every operation (see
``gate.extract``).  Regenerate only at a commit whose outputs are known to
be right; a change that moves these numbers is a change of results.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def main() -> int:
    reference = {}
    workdir = run.ROOT / ".perfbench_work" / "reference"
    try:
        for workload in workloads.WORKLOADS:
            record = run.spawn_op(workload, workloads.params_for(workload, 0),
                                  workdir / workload)
            if record["failures"]:
                print("\n".join(record["failures"]), file=sys.stderr)
                return 1
            reference[workload] = record["extract"]
            print(f"{workload}: wall_s={record['wall_s']:.2f}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
