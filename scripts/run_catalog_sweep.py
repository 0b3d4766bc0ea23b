#!/usr/bin/env python3
"""Run every check over a shipped (or custom) catalog and summarise.

Example:
    python scripts/run_catalog_sweep.py --catalog full --jobs 4 --out sweep.json
"""

import argparse
import json
import sys
import time
from collections import Counter, defaultdict

from pickylab.cli import _jobs, exit_code_for, run_batch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--catalog", default="full", help="bundled name (small, full) or a path")
    ap.add_argument("--jobs", type=_jobs, default=1)
    ap.add_argument("--out", help="write the full JSON report here")
    args = ap.parse_args()

    t0 = time.monotonic()
    report = run_batch(args.catalog, jobs=args.jobs)
    elapsed = time.monotonic() - t0

    reports = report["reports"]
    by_status = Counter(r["status"] for r in reports)
    by_check = defaultdict(Counter)
    for r in reports:
        by_check[r["check"]][r["status"]] += 1

    print(f"catalog {report['catalog']}: {len(reports)} reports in {elapsed:.1f}s")
    for check in sorted(by_check):
        counts = by_check[check]
        line = ", ".join(f"{status}: {n}" for status, n in sorted(counts.items()))
        print(f"  {check:28s} {line}")
    print("overall:", dict(sorted(by_status.items())))

    problems = [r for r in reports if r["status"] == "fails"]
    for r in problems:
        print(f"FAILS {r['group']} p={r['prime']} {r['check']}:")
        print(json.dumps(r["witnesses"], sort_keys=True, indent=2))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, sort_keys=True, separators=(",", ":"))
        print(f"wrote {args.out}")
    return exit_code_for(reports)


if __name__ == "__main__":
    sys.exit(main())
