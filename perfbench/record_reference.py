#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record_reference.py     (from the root of a checkout)

Writes perfbench/reference/full_batch.json, the JSON `pickylab batch full`
prints without its trailing newline (that is, ``run_batch("full")``), and
tables.json and local_structure.json, every operation's output on seed 0.
Re-record only when a change to the program is meant to change its output.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import inputs  # noqa: E402
import workloads  # noqa: E402
from pickylab.cli import run_batch  # noqa: E402


def main() -> int:
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    (out / "full_batch.json").write_text(workloads.canonical(run_batch("full")))
    tmp = Path(".bench_work") / "reference-inputs"
    try:
        gen = inputs.write_inputs(Path.cwd(), tmp, 0)
        for name in ("tables", "local_structure"):
            outputs, errors = workloads.run(name, workloads.setup(name, gen))
            if errors:
                raise SystemExit(f"{name}: {errors}")
            (out / f"{name}.json").write_text(json.dumps(outputs, sort_keys=True, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
