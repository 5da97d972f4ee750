"""Record the reports that fixed-input jobs are compared with (reference.json).

Run from the repository root, only at a commit whose reports are trusted:

    python3 perfbench/record_reference.py

Jobs on seeded random inputs are checked against independent references
instead (oracle.py) and are not recorded.
"""

from __future__ import annotations

import collections
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import entkit.cli  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workdir = BENCH / "work" / "record"
    report = workdir / "report.txt"
    recorded = {}
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build(workload, 0, 0, str(workdir), write=True,
                                   reference=collections.defaultdict(dict))
            for job in jobs:
                if not job.recorded:
                    continue
                rc = entkit.cli.main(job.argv + ["--out", str(report)])
                if rc != 0:
                    raise SystemExit(f"{job.name} exited with {rc}")
                rep = oracle.parse_report(report.read_text(encoding="utf-8"))
                rep.pop("mps_file", None)
                recorded[job.name] = rep
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(oracle.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} reports in {oracle.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
