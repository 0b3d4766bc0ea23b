"""One timed pass of one workload, in a fresh interpreter.

Run by ``run.py``; it is not meant to be started by hand.  It prints one
JSON object: when set-up finished (a ``perf_counter`` reading, which on
Linux is the system-wide monotonic clock, so the parent can subtract its
own reading taken just before it started this process), the wall and
processor time of the workload's calls, the process's peak resident
memory, every operation's output and error, and with ``--trace 1`` the
tracer's counts, self times and kernel probes.

Untraced passes interleave host-speed samples with the work (``speed.py``)
and also report their wall time scaled to the reference speed; the time
in the samples is left out of the wall and processor times.  Traced
passes take no samples.

With ``--setup-only`` it stops after set-up and times a few runs of the
host-speed kernel (``speed.py``): the parent starts several of these to
take the median set-up time, scaled to the reference speed.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
# Kernel samples taken just after set-up, to scale it to the reference speed.
SETUP_KERNEL_SAMPLES = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="JSON file written by inputs.write_inputs")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="with --trace 1, write the recorded spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    import workloads

    state = workloads.setup(args.workload, json.loads(Path(args.inputs).read_text()))
    ready = perf_counter()
    if args.setup_only:
        from speed import kernel_times

        kernel_times(1)  # warm-up
        print(json.dumps({"ready": ready, "kernel_s_after": kernel_times(SETUP_KERNEL_SAMPLES)}))
        return 0

    tracer = sampler = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        from speed import Sampler

        sampler = Sampler()
        sampler.start()
    cpu0, t0 = process_time(), perf_counter()
    try:
        outputs, errors = workloads.run(args.workload, state)
    finally:
        t1, cpu1 = perf_counter(), process_time()
        if tracer is not None:
            tracer.uninstall()
        if sampler is not None:
            sampler.stop()
    wall, scaled, in_samples = t1 - t0, None, 0.0
    if sampler is not None:
        wall, scaled, in_samples = sampler.scaled(t0, t1)
    result = {
        "ready": ready,
        "wall_s": wall,
        "scaled_wall_s": scaled,
        "kernel_s": sampler.median_kernel_s() if sampler else None,
        "cpu_s": cpu1 - cpu0 - in_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
        "errors": errors,
    }
    if tracer is not None:
        import probes

        result["trace"] = {
            "calls": dict(tracer.calls),
            "total": dict(tracer.total),
            "self": dict(tracer.self_time),
            "layers": tracer.layer_self_times(),
            "attributed_s": tracer.top_level_time(),
            "keys": {name: len(keys) for name, keys in tracer.keys.items()},
            "results": dict(tracer.results),
            "spans": len(tracer.spans),
            "probes": probes.run(state),
        }
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent"], "t0": t0, "t1": t1, "spans": tracer.spans}
            ))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
