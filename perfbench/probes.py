"""Kernel probes: the ROADMAP's "compose" and "cyclotomic add/multiply"
rows, timed on operands drawn from the workload's own groups and tables.

They run after the traced pass, with the tracer removed, so they time the
bare methods.  Each figure is the median over several repeats of the mean
time per operation over a fixed list of operand pairs.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

PAIRS = 2000
REPEATS = 7
# Tables are computed for operands only up to this order, so that probing
# catalog_full and local_structure stays cheap.
PROBE_TABLE_ORDER = 720


def _groups(state):
    if "groups" in state:
        return list(state["groups"].values())
    from pickylab.cli import load_catalog

    return [entry.build() for entry in load_catalog(state["catalog"])]


def _per_op(fn, pairs) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for a, b in pairs:
            fn(a, b)
        times.append((perf_counter() - start) / len(pairs))
    return statistics.median(times)


def run(state: dict) -> dict:
    from pickylab.chartab import character_table
    from pickylab.exactnum import Cyclotomic
    from pickylab.permgroup import Perm

    rng = random.Random(0)
    groups = _groups(state)

    perm_pairs = []
    for G in groups:
        gens = list(G.generators)
        pool = []
        for _ in range(8):
            g = rng.choice(gens)
            for _ in range(rng.randrange(1, 6)):
                g = g * rng.choice(gens)
            pool.append(g)
        perm_pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS // len(groups) + 1)]

    values = []
    for G in groups:
        if G.order <= PROBE_TABLE_ORDER:
            values += [v for row in character_table(G).values for v in row]
    cyclo_pairs = [(rng.choice(values), rng.choice(values)) for _ in range(PAIRS)]

    return {
        "permgroup.mul_ns": _per_op(Perm.__mul__, perm_pairs) * 1e9,
        "exactnum.cyclo_mul_us": _per_op(Cyclotomic.__mul__, cyclo_pairs) * 1e6,
        "exactnum.cyclo_add_us": _per_op(Cyclotomic.__add__, cyclo_pairs) * 1e6,
    }
