"""Seeded workload inputs.

Seed 0 is the shipped labelling: catalog entries keep their named
constructors and bundled generator files.  Any other seed relabels the
points of every group by a permutation drawn from ``random.Random`` seeded
with ``"<seed>:<label>"`` and writes each group as a generator file, so the
program under test only ever receives generated inputs.

The catalog itself is the bundled ``full`` catalog of the checkout.  The
named constructors are rebuilt here from their documented definitions
(S:n, A:n, C:n, D:2n, Q:8, wr:...~C:2) instead of through the program, so
the relabelled inputs do not depend on the program's own constructors.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

BUNDLED = Path("src") / "pickylab" / "catalog"

# Groups the non-catalog workloads use besides the `full` catalog.
TABLE_EXTRA = [("S8", "S:8"), ("C24", "C:24")]
LOCAL_GROUPS = [("S7", "S:7"), ("A7", "A:7"), ("S4wrC2", "wr:S:4~C:2"), ("S6", "S:6"), ("A6", "A:6")]


def _cycles_to_images(cycles, n):
    images = list(range(n))
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        step = list(range(n))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            step[a] = b
        images = [step[i] for i in images]
    return tuple(images)


def _named(source: str) -> tuple[int, list[tuple[int, ...]]]:
    """(degree, generator image tuples, 0-based) of a named constructor."""
    m = re.fullmatch(r"wr:(.+)~C:2", source)
    if m:
        n, gens = _named(m.group(1))
        out = []
        for g in gens:
            out.append(tuple(g) + tuple(range(n, 2 * n)))
            out.append(tuple(range(n)) + tuple(i + n for i in g))
        out.append(tuple(range(n, 2 * n)) + tuple(range(n)))
        return 2 * n, out
    kind, arg = re.fullmatch(r"([SACDQ]):(\d+)", source).groups()
    n = int(arg)
    if kind == "S":
        return n, [_cycles_to_images([[1, 2]], n), _cycles_to_images([list(range(1, n + 1))], n)]
    if kind == "A":
        return n, [_cycles_to_images([[1, 2, k]], n) for k in range(3, n + 1)]
    if kind == "C":
        return n, [_cycles_to_images([list(range(1, n + 1))], n)]
    if kind == "D":
        n //= 2
        return n, [_cycles_to_images([list(range(1, n + 1))], n), tuple(n - 1 - i for i in range(n))]
    if kind == "Q" and n == 8:
        # Right-regular action of Q8 on {1, i, -1, -i, j, k, -j, -k}.
        i_gen = (1, 2, 3, 0, 7, 4, 5, 6)
        j_gen = (4, 5, 6, 7, 2, 3, 0, 1)
        return 8, [i_gen, j_gen]
    raise ValueError(f"no generator recipe for {source!r}")


def _parse_gens(text: str) -> tuple[int, list[tuple[int, ...]]]:
    perms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            perms.append([[int(t) for t in c.split(",")] for c in re.findall(r"\(([^)]*)\)", line)])
    n = max(pt for cycles in perms for cyc in cycles for pt in cyc)
    return n, [_cycles_to_images(cycles, n) for cycles in perms]


def _cycle_string(images) -> str:
    seen, out = set(), []
    for i in range(len(images)):
        if i in seen or images[i] == i:
            continue
        cyc, j = [i], images[i]
        seen.add(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = images[j]
        out.append("(" + ",".join(str(p + 1) for p in cyc) + ")")
    return "".join(out) or "()"


def _relabelled_text(label: str, n: int, gens, seed: int) -> str:
    sigma = list(range(n))
    random.Random(f"{seed}:{label}").shuffle(sigma)
    lines = [f"# {label}, points relabelled by seed {seed}"]
    for g in gens:
        h = [0] * n
        for i in range(n):
            h[sigma[i]] = sigma[g[i]]
        lines.append(_cycle_string(h))
    return "\n".join(lines) + "\n"


def catalog_entries(root: Path) -> list[dict]:
    return json.loads((root / BUNDLED / "full.json").read_text())["entries"]


def write_inputs(root: Path, out: Path, seed: int) -> dict:
    """Write the generated `full` catalog and one source per extra group
    into ``out``; returns {"catalog": path, "groups": {label: source}}.

    The catalog file is named ``full`` so that the batch report's
    ``catalog`` field reads as it does for the bundled catalog."""
    out.mkdir(parents=True, exist_ok=True)
    sources = dict((e["label"], e["source"]) for e in catalog_entries(root))
    sources.update(TABLE_EXTRA + LOCAL_GROUPS)
    generated = {}
    for label, source in sources.items():
        bundled = root / BUNDLED / source
        if seed == 0:
            if bundled.is_file():
                (out / source).write_text(bundled.read_text())
            generated[label] = source
            continue
        n, gens = _parse_gens(bundled.read_text()) if bundled.is_file() else _named(source)
        name = f"{label}.gens"
        (out / name).write_text(_relabelled_text(label, n, gens, seed))
        generated[label] = name
    entries = []
    for e in catalog_entries(root):
        entry = dict(e)
        entry["source"] = generated[e["label"]]
        entries.append(entry)
    catalog = out / "full"
    catalog.write_text(json.dumps({"format": 1, "entries": entries}, indent=1) + "\n")
    return {"catalog": str(catalog), "groups": generated}
