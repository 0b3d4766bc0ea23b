#!/usr/bin/env python3
"""The pickylab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each timed pass of the workload runs in a
fresh interpreter with fresh group objects, so every per-group cache and
``lru_cache`` starts cold, as on each ``pickylab`` invocation.  Passes run
one after another (a closed loop with one caller, ``jobs=1``) until the
next one would end after ``--seconds``; there is always at least one.

Every pass's outputs are checked against the reference recorded in
``perfbench/reference`` (exactly on seed 0, on labelling-invariant fields
on other seeds).  An operation fails if it raises or disagrees.

``catalog_full`` writes its report cache into a fresh empty directory on
every pass.  After the timed passes one untimed pass reads the last cache
back: its outputs are checked, every read must hit, and the cache must be
left byte-for-byte unchanged.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones: ``setup_s`` (interpreter start to ready,
median of several fresh interpreters), ``wall_s`` (median over passes)
and ``peak_rss_mb`` (median over passes).  Both times are scaled to a
fixed host speed by the kernel samples of ``speed.py``; the raw figures
are in the context line.  With ``--trace 1`` untraced and
traced passes alternate and the metrics are the per-layer ones.  The line
before the result records the machine, the Python version, a hash of the
program's sources (the checkout is not a git repository), the pass count,
every pass's figures and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import per_layer_metrics  # noqa: E402

SETUP_SAMPLES = 15
SETUP_KERNEL_SAMPLES = 3
PASS_TIMEOUT_S = 170
WORK = Path(".bench_work")


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def dir_state(d: Path) -> dict:
    """Name -> (SHA-256, mtime): a rewrite with the same bytes shows too."""
    return {
        f.name: (hashlib.sha256(f.read_bytes()).hexdigest(), f.stat().st_mtime_ns)
        for f in sorted(d.iterdir())
    }


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.work = root / WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PICKYLAB_CACHE", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = self._load_reference()

    # -- reference -------------------------------------------------------

    def _load_reference(self) -> dict:
        ref = HERE / "reference"
        if self.workload == "catalog_full":
            text = (ref / "full_batch.json").read_text()
            ops: dict[str, list] = {}
            for r in json.loads(text)["reports"]:
                ops.setdefault(f"{r['group']}/{r['prime']}", []).append(r)
            reference = {"batch": text, "ops": ops}
        else:
            reference = {"ops": json.loads((ref / f"{self.workload}.json").read_text())}
        if self.seed == 0:
            reference["expect"] = {k: workloads.canonical(v) for k, v in reference["ops"].items()}
        else:
            reference["expect"] = {
                k: workloads.project(self.workload, k, v) for k, v in reference["ops"].items()
            }
        return reference

    def check(self, result: dict, label: str):
        """Count the pass's operations and the ones that failed."""
        outputs, errors = result["outputs"], result["errors"]
        batch_ok = True
        if "batch" in self.reference and self.seed == 0:
            batch_ok = outputs.get("batch") == self.reference["batch"]
            if not batch_ok:
                self.problems.append(f"{label}: batch JSON differs from run_batch('full')")
        for key, expected in self.reference["expect"].items():
            self.attempted += 1
            error = errors.get(key) or errors.get("batch")
            if error:
                self.failed += 1
                self.problems.append(f"{label}: {key} raised {error}")
                continue
            got = outputs.get(key)
            if self.seed == 0:
                ok = batch_ok and workloads.canonical(got) == expected
            else:
                ok = workloads.project(self.workload, key, got) == expected
            if not ok:
                self.failed += 1
                self.problems.append(f"{label}: {key} disagrees with the reference")

    # -- processes -------------------------------------------------------

    def spawn(self, *extra, cache: Path | None = None) -> dict:
        env = dict(self.env)
        if cache is not None:
            env["PICKYLAB_CACHE"] = str(cache)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--inputs", str(self.inputs_file), *extra]
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        result = json.loads(proc.stdout)
        result["setup_s"] = result["ready"] - start
        return result

    def setup_sample(self) -> tuple[float, float]:
        """(raw, scaled) set-up seconds of one fresh interpreter.  Set-up is
        short, so the host speed is taken from kernel runs just before the
        interpreter starts (here) and just after it is ready (in it)."""
        before = speed.kernel_times(SETUP_KERNEL_SAMPLES)
        result = self.spawn("--setup-only")
        local = statistics.median(before + result["kernel_s_after"])
        return result["setup_s"], result["setup_s"] * speed.REFERENCE_KERNEL_S / local

    def one_pass(self, label: str, traced: bool, cache: Path | None, spans: str = "") -> dict:
        extra = ["--trace", str(int(traced))]
        if traced:
            name = f"spans-{self.workload}{spans}-s{self.seed}.json"
            extra += ["--spans", str(self.root / WORK / name)]
        result = self.spawn(*extra, cache=cache)
        self.check(result, label)
        return result

    # -- the run ---------------------------------------------------------

    def run(self):
        gen = inputs.write_inputs(self.root, self.work / "inputs", self.seed)
        self.inputs_file = self.work / "inputs.json"
        self.inputs_file.write_text(json.dumps(gen))
        self.spawn("--setup-only")  # compiles bytecode; not a sample
        setups = [self.setup_sample() for _ in range(SETUP_SAMPLES)]

        plain, traced = [], []
        cache = None
        deadline = perf_counter() + self.args.seconds
        longest = 0.0
        while True:
            t = perf_counter()
            for trace in (False, True) if self.args.trace else (False,):
                n = len(plain) + len(traced)
                if self.workload == "catalog_full":
                    if cache is not None:
                        shutil.rmtree(cache, ignore_errors=True)
                    cache = self.work / f"cache{n}"  # fresh and empty: the write path
                label = f"pass {n}" + (" (traced)" if trace else "")
                (traced if trace else plain).append(self.one_pass(label, trace, cache))
            longest = max(longest, perf_counter() - t)
            if perf_counter() + longest > deadline:
                break
        reread = self.reread(cache) if cache is not None else None
        return setups, plain, traced, reread

    def reread(self, cache: Path) -> dict | None:
        """Read the last pass's cache back, untimed, and check it stays put."""
        if not cache.is_dir():
            self.problems.append("the batch wrote no cache")
            return None
        before = dir_state(cache)
        result = self.one_pass("cache re-read", bool(self.args.trace), cache, "-reread")
        if dir_state(cache) != before:
            self.problems.append("the cache re-read changed the cache directory")
        return result

    def report(self, setups, plain, traced, reread) -> tuple[dict, dict]:
        walls = [r["wall_s"] for r in plain]
        scaled = [r["scaled_wall_s"] for r in plain]
        context = {
            "benchmark": "pickylab",
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "sources_sha256": source_hash(self.root),
            "python": platform.python_version(),
            "machine": f"{platform.machine()} {platform.platform()} cpus={os.cpu_count()}",
            "passes": len(plain),
            "setup_samples": len(setups),
            "raw_wall_s_passes": walls,
            "wall_s_passes": scaled,
            "reference_kernel_s": speed.REFERENCE_KERNEL_S,
            "kernel_s_median_passes": [r["kernel_s"] for r in plain],
            "cpu_s_passes": [r["cpu_s"] for r in plain],
            "raw_setup_s_samples": [raw for raw, _ in setups],
            "setup_s_samples": [scaled for _, scaled in setups],
            "peak_rss_mb_passes": [r["peak_rss_mb"] for r in plain],
            "cache_reread_wall_s": reread["wall_s"] if reread else None,
            "error_rate": self.failed / max(self.attempted, 1),
        }
        if not self.args.trace:
            metrics = {
                "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
                "wall_s": (statistics.median(scaled), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            }
        else:
            metrics, notes = per_layer_metrics(
                self.workload, plain, traced, reread, len(self.reference["ops"])
            )
            metrics["error_rate"] = (context["error_rate"], "ratio")
            context["trace"] = notes
            self.problems += notes["problems"]
        context["problems"] = self.problems[:20]
        return context, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="pickylab benchmark (run from a checkout's root)")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "pickylab" / "__init__.py").is_file():
        print("error: run from the root of a pickylab checkout (no src/pickylab here)", file=sys.stderr)
        return 2

    bench = Bench(args, root)
    try:
        context, metrics = bench.report(*bench.run())
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(context, sort_keys=True))
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
