"""Per-layer metrics, computed from the traced passes of one run.

Counts come from one traced pass and must repeat exactly in every other
traced pass of the run.  Times all come from the traced pass with the
median wall time (the lower median), so that its layers' self times and
the unattributed rest add up to its wall time exactly.  The tracing
overhead is that wall time minus the median untraced wall time of the same
run, whose passes alternate.

The cache reads (``cli.cache_hits``, ``cli.cache_misses``,
``cli.cache_hit_ratio``, ``cli.cache_read_s``, ``cli.reread_wall_s``) come
from the traced re-read of the cache that ``catalog_full``'s last pass
wrote; every other ``cli`` figure comes from the cold passes.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

CHECKS = (
    "ito_michler", "normality_via_qblocks", "mckay", "degree_conjectures",
    "chain_conjecture", "height_conjectures", "vanishing_proposition", "alperin_c",
    "kb_principal", "picky_conjecture", "subnormalizer_conjecture", "fusion_lemma",
)

# Boundaries a workload must cross: a traced pass that records no call of
# one of them means the tracer or the workload is broken, and the run stops.
_CATALOG = [
    "cli.run_batch", "cli.load_catalog", "cli._entry_reports", "cli._cache_load",
]
MUST_TRACE = {
    "reread": _CATALOG,
    "catalog_full": _CATALOG + [
        "cli._cache_store", "chartab.character_table", "chartab._build_table",
        "chartab._verify_table", "blocks.block_partition", "subnorm.subnormalizer_set",
        "subnorm.chain_length", "permgroup.sylow_data", "permgroup.conjugacy_classes",
        "permgroup.normalizer", "permgroup._Chain.insert", "exactnum._reduce_conductor",
    ] + [f"conjectures.check_{c}" for c in CHECKS],
    "tables": [
        "chartab.character_table", "chartab._build_table", "chartab._verify_table",
        "chartab.CharacterTable.to_json_dict", "blocks.block_partition",
        "symfast.table1_report", "permgroup.conjugacy_classes", "exactnum._reduce_conductor",
    ],
    "local_structure": [
        "subnorm.picky_report", "subnorm.subnormalizer_set", "subnorm.subnormalizer_subgroup",
        "subnorm.chain_length", "permgroup.sylow_data", "permgroup.conjugacy_classes",
        "permgroup._Chain.insert",
    ],
}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _counts(t: dict) -> dict:
    c, keys = t["calls"], t["keys"]
    sets = c.get("subnorm.subnormalizer_set", 0)
    built = c.get("chartab._build_table", 0)
    out = {
        "subnorm.subnormality_tests": c.get("subnorm._subnormal_in_generated", 0),
        "subnorm.subnormalizer_sets": sets,
        "subnorm.subnormalizer_reuse_ratio": _ratio(keys.get("subnorm.subnormalizer_set", 0), sets),
        "subnorm.chain_length_calls": c.get("subnorm.chain_length", 0),
        "subnorm.overgroups_built": c.get("permgroup.extended_group", 0),
        "permgroup.chain_inserts": c.get("permgroup._Chain.insert", 0),
        "permgroup.perm_muls": c.get("permgroup.Perm.__mul__", 0),
        "chartab.tables_requested": c.get("chartab.character_table", 0),
        "chartab.tables_built": built,
        "chartab.distinct_groups": keys.get("chartab._build_table", 0),
        "chartab.table_reuse_ratio": _ratio(keys.get("chartab._build_table", 0), built),
        "exactnum.cyclo_muls": c.get("exactnum.Cyclotomic.__mul__", 0),
        "exactnum.cyclo_adds": c.get("exactnum.Cyclotomic.__add__", 0),
        "exactnum.downconverts": c.get("exactnum._downconvert", 0),
        "exactnum.conductor_reductions": c.get("exactnum._reduce_conductor", 0),
        "blocks.partitions": c.get("blocks.block_partition", 0),
        "symfast.mn_value_calls": c.get("symfast.mn_value", 0),
        "conjectures.reverifications": c.get("conjectures._reverify_mismatch", 0),
        "trace.spans": t["spans"],
    }
    return out


def _reread(t: dict | None) -> dict:
    res = t["results"] if t else {}
    hits, misses = res.get("cli.cache_hits", 0), res.get("cli.cache_misses", 0)
    return {
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.cache_hit_ratio": _ratio(hits, hits + misses),
        "cli.cache_read_s": t["total"].get("cli._cache_load", 0.0) if t else 0.0,
        "cli.reread_wall_s": t["wall_s"] if t else 0.0,
    }


def _times(t: dict, untraced_wall: float) -> dict:
    total, own, layers = t["total"], t["self"], t["layers"]
    build = total.get("chartab._build_table", 0.0)
    verify = total.get("chartab._verify_table", 0.0)
    out = {
        "subnorm.subnormalizer_set_s": total.get("subnorm.subnormalizer_set", 0.0),
        "subnorm.chain_length_s": total.get("subnorm.chain_length", 0.0),
        "permgroup.chain_insert_s": total.get("permgroup._Chain.insert", 0.0),
        "permgroup.conjugacy_classes_s": total.get("permgroup.conjugacy_classes", 0.0),
        "permgroup.sylow_s": total.get("permgroup.sylow_data", 0.0),
        "permgroup.normalizer_s": total.get("permgroup.normalizer", 0.0),
        "permgroup.elements_s": total.get("permgroup.PermGroup.elements", 0.0),
        "chartab.build_s": build,
        "chartab.verify_s": verify,
        "chartab.verify_share": _ratio(verify, build + verify),
        "exactnum.reduce_conductor_s": total.get("exactnum._reduce_conductor", 0.0),
        "blocks.partition_s": total.get("blocks.block_partition", 0.0),
        "symfast.table1_s": total.get("symfast.table1_report", 0.0),
        "cli.catalog_load_s": total.get("cli.load_catalog", 0.0),
        "cli.cache_store_s": total.get("cli._cache_store", 0.0),
    }
    for check in CHECKS:
        out[f"conjectures.{check}.self_s"] = own.get(f"conjectures.check_{check}", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]
    out["trace.bookkeeping_s"] = layers["trace"]
    out["trace.unattributed_s"] = t["wall_s"] - t["attributed_s"]
    out["trace.wall_s"] = t["wall_s"]
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = t["wall_s"] - untraced_wall
    out.update(t["probes"])
    return out


UNITS = {"_s": "s", "_ns": "ns", "_us": "us", "_ratio": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _trace_of(result: dict, boundaries: list[str]) -> dict:
    """The pass's trace, after checking that it crossed every boundary it
    must and that its self times add up."""
    t = dict(result["trace"], wall_s=result["wall_s"])
    missing = [n for n in boundaries if not t["calls"].get(n)]
    if missing:
        raise SystemExit(f"error: no calls recorded at {', '.join(missing)}")
    # Self times of all layers make up the time inside outermost frames;
    # the unattributed rest is the wall time outside them.
    self_sum = sum(t["layers"].values())
    if abs(self_sum - t["attributed_s"]) > 1e-6 * max(1.0, t["wall_s"]) or t["attributed_s"] > t["wall_s"]:
        raise SystemExit(
            f"error: self times add up to {self_sum} s, outermost frames to "
            f"{t['attributed_s']} s, wall {t['wall_s']} s"
        )
    return t


def per_layer_metrics(workload: str, plain: list, traced: list, reread: dict | None,
                      n_ops: int) -> tuple[dict, dict]:
    """({metric: (value, unit)}, notes) for one traced run of a workload
    with ``n_ops`` operations per pass; ``reread`` is the traced cache
    re-read of ``catalog_full``, else None."""
    problems = []
    traces = [_trace_of(r, MUST_TRACE[workload]) for r in traced]
    counts = [_counts(t) for t in traces]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between traced passes of one run")
    reads = _reread(_trace_of(reread, MUST_TRACE["reread"]) if reread else None)
    if reread and (reads["cli.cache_hits"], reads["cli.cache_misses"]) != (n_ops, 0):
        problems.append(f"cache re-read: {reads['cli.cache_hits']} hits for {n_ops} pairs")
    untraced = statistics.median(r["wall_s"] for r in plain)
    median_pass = sorted(traces, key=lambda t: t["wall_s"])[(len(traces) - 1) // 2]
    metrics = {name: (value, unit_of(name)) for name, value in counts[0].items()}
    metrics.update((name, (value, unit_of(name))) for name, value in _times(median_pass, untraced).items())
    metrics.update((name, (value, unit_of(name))) for name, value in reads.items())
    notes = {
        "traced_passes": len(traces),
        "untraced_passes": len(plain),
        "wall_s_traced_passes": [t["wall_s"] for t in traces],
        "self_s_plus_unattributed": sum(median_pass["layers"].values()) + median_pass["wall_s"] - median_pass["attributed_s"],
        "problems": problems,
    }
    return metrics, notes
