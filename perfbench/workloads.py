"""The workloads: what each loads, the calls it times, the operations it
counts, and how its outputs are compared with the recorded reference.

Each workload is one closed loop with a single caller: the calls below run
one after another in one process, with no threads and ``jobs=1``.

An operation is one (entry, prime) pair for the catalog, one group (plus
one Table 1 comparison) for ``tables``, and one (group, prime) pair for
``local_structure``.  Operation keys are labels, not permutations, so the
same keys exist under every seed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from inputs import LOCAL_GROUPS, TABLE_EXTRA

NAMES = ("catalog_full", "tables", "local_structure")


def canonical(obj) -> str:
    """The JSON form `pickylab batch` prints (compact, sorted keys)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Set-up: import the program and load the generated inputs.

def setup(workload: str, inputs: dict) -> dict:
    """Import the program and load the workload's inputs into memory."""
    import pickylab.cli  # noqa: F401  (imports every layer)
    from pickylab.permgroup import group_from_source

    base = Path(inputs["catalog"]).parent
    catalog = json.loads(Path(inputs["catalog"]).read_text())
    if workload == "catalog_full":
        return {"catalog": inputs["catalog"]}
    if workload == "tables":
        labels = [e["label"] for e in catalog["entries"]] + [lb for lb, _ in TABLE_EXTRA]
    else:
        labels = [lb for lb, _ in LOCAL_GROUPS]

    def read(path):
        return (base / path).read_text()

    groups = {lb: group_from_source(inputs["groups"][lb], read) for lb in labels}
    return {"groups": groups}


# ----------------------------------------------------------------------
# Timed calls.  Each returns {operation key: output or None on failure}
# plus the repr of every exception, keyed the same way.

def run(workload: str, state: dict) -> tuple[dict, dict]:
    return _RUNNERS[workload](state)


def _catalog(state):
    from pickylab.cli import run_batch

    errors = {}
    try:
        batch = run_batch(state["catalog"], jobs=1)
    except Exception as exc:  # every pair of the batch fails with it
        return {"batch": None}, {"batch": repr(exc)}
    per_pair: dict[str, list] = {}
    for r in batch["reports"]:
        per_pair.setdefault(f"{r['group']}/{r['prime']}", []).append(r)
    per_pair["batch"] = canonical(batch)
    return per_pair, errors


def _tables(state):
    from pickylab.blocks import block_partition, blocks_json
    from pickylab.chartab import character_table
    from pickylab.exactnum import prime_factors
    from pickylab.symfast import table1_report, table1_rows

    outputs, errors = {}, {}
    for label, G in state["groups"].items():
        try:
            T = character_table(G)
            blocks = {str(p): blocks_json(T, block_partition(T, p)) for p in prime_factors(G.order)}
            outputs[label] = {"table": T.to_json_dict(), "blocks": blocks}
        except Exception as exc:
            outputs[label] = None
            errors[label] = repr(exc)
    try:
        report = table1_report()
        outputs["table1"] = {"rows": [list(r) for r in table1_rows(report)], "equal": report["equal"]}
    except Exception as exc:
        outputs["table1"] = None
        errors["table1"] = repr(exc)
    return outputs, errors


def _local_structure(state):
    from pickylab.exactnum import prime_factors
    from pickylab.permgroup import sylow_data
    from pickylab.subnorm import chain_length, p_element_class_representatives, picky_report

    outputs, errors = {}, {}
    for label, G in state["groups"].items():
        for p in prime_factors(G.order):
            key = f"{label}/{p}"
            try:
                reports = [
                    picky_report(G, p, x).to_json_dict()
                    for x in p_element_class_representatives(G, p)
                ]
                t = chain_length(G, sylow_data(G, p).normalizer)
                outputs[key] = {"picky": reports, "chain_length": t}
            except Exception as exc:
                outputs[key] = None
                errors[key] = repr(exc)
    return outputs, errors


_RUNNERS = {
    "catalog_full": _catalog,
    "tables": _tables,
    "local_structure": _local_structure,
}


# ----------------------------------------------------------------------
# Labelling-invariant projections, used to compare outputs under seeds
# other than 0 with the seed-0 reference.

_PERM = re.compile(r"^(\(\d+(,\d+)*\))+$|^\(\)$")


def _invariant(obj):
    """Replace permutations by a placeholder and lists by sorted
    multisets: class order and representatives depend on the labelling,
    statuses, orders, degrees, heights and signature multisets do not."""
    if isinstance(obj, dict):
        return {k: _invariant(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return sorted((_invariant(v) for v in obj), key=canonical)
    if isinstance(obj, str) and _PERM.match(obj):
        return "<perm>"
    return obj


def _table_invariant(out):
    table = out["table"]
    return {
        "order": table["group_order"],
        "classes": sorted([c["size"], c["order"]] for c in table["classes"]),
        "degrees": sorted(table["degrees"]),
        "values": sorted(v for row in table["values"] for v in row),
        "blocks": _invariant(out["blocks"]),
    }


def project(workload: str, key: str, output):
    """The part of one operation's output that every seed must reproduce."""
    if output is None:
        return None
    if key == "batch":
        return None  # byte comparison on seed 0 only; pairs carry the rest
    if workload == "tables" and key != "table1":
        return _table_invariant(output)
    return _invariant(output)
