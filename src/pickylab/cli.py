"""Command-line interface: tables, blocks, Sylow and picky reports,
subnormalizers, conjecture checks, catalog batches, and the S16 / S8 wr C2
comparison.

All subcommands emit JSON (stdout or --out).  Exit codes: 0 all holds,
1 some check fails, 2 usage or input error, 3 some checks skipped and none
failed, 4 an internal cross-check failed (EngineDefect).  Reports are
byte-identical across runs; timings are only included with --timings.
Check results can be cached in the directory named by the PICKYLAB_CACHE
environment variable; entries are keyed by catalog label, group, prime,
check and engine version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .blocks import block_partition, blocks_json
from .chartab import character_table
from .conjectures import CHECKS, VARIANTS, run_all_checks, run_check
from .errors import EngineDefect, InvalidArgument, ParseError, PickylabError, ScaleExceeded
from .exactnum import is_prime, prime_factors, prime_of_power
from .permgroup import (
    PermGroup,
    conjugacy_classes,
    group_from_source,
    named_group,
    parse_generator_text,
    parse_perm,
    sylow_data,
)
from .subnorm import (
    p_element_class_representatives,
    picky_report,
    subnormalizer_set,
    subnormalizer_subgroup,
)
from .symfast import table1_report, table1_rows

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_ERROR = 2
EXIT_SKIPPED = 3
EXIT_DEFECT = 4


# ----------------------------------------------------------------------
# Catalog handling.

@dataclass
class CatalogEntry:
    label: str
    source: str
    primes: list[int] | None
    generator_text: str | None  # resolved file contents for file sources

    def build(self) -> PermGroup:
        if self.generator_text is not None:
            return parse_generator_text(self.generator_text)
        return named_group(self.source)

    def effective_primes(self, G: PermGroup) -> list[int]:
        if self.primes is not None:
            return self.primes
        return list(prime_factors(G.order))


_BUNDLED = {"small": "small.json", "full": "full.json"}


def _catalog_location(path: str):
    """Returns (text, reader) where reader maps a relative source path to
    its file text.  Accepts bundled catalog names and filesystem paths."""
    if path in _BUNDLED:
        pkg = resources.files("pickylab.catalog")
        text = (pkg / _BUNDLED[path]).read_text()
        return text, lambda rel: (pkg / rel).read_text()
    p = Path(path)
    text = p.read_text()
    return text, lambda rel: (p.parent / rel).read_text()


def load_catalog(path: str) -> list[CatalogEntry]:
    """Parse and validate a catalog file; raises ParseError with a
    field-level diagnostic on schema violations."""
    text, reader = _catalog_location(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != 1:
        raise ParseError(f"{path}: expected an object with \"format\": 1")
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}: \"entries\" must be a nonempty array")
    seen = set()
    out = []
    for i, raw in enumerate(entries):
        where = f"{path}: entries[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: must be an object")
        label = raw.get("label")
        source = raw.get("source")
        if not isinstance(label, str) or not label:
            raise ParseError(f"{where}.label: required nonempty string")
        if not isinstance(source, str) or not source:
            raise ParseError(f"{where}.source: required nonempty string")
        if label in seen:
            raise ParseError(f"{where}.label: duplicate label {label!r}")
        seen.add(label)
        primes = raw.get("primes")
        if primes is not None:
            if not isinstance(primes, list) or not primes:
                raise ParseError(f"{where}.primes: must be a nonempty array of primes")
            for p in primes:
                try:
                    prime = isinstance(p, int) and is_prime(p)
                except InvalidArgument as exc:
                    raise ParseError(f"{where}.primes: {exc}") from exc
                if not prime:
                    raise ParseError(f"{where}.primes: {p!r} is not a prime")
        gen_text = None
        try:
            named_group(source)
        except ParseError:
            try:
                gen_text = reader(source)
            except OSError as exc:
                raise ParseError(f"{where}.source: cannot read {source!r}: {exc}") from exc
        out.append(CatalogEntry(label=label, source=source, primes=primes, generator_text=gen_text))
    return out


def _resolve_group(source: str) -> PermGroup:
    def read_file(path: str) -> str:
        p = Path(path)
        if not p.exists():
            raise ParseError(
                f"unknown group source {source!r} (not a named constructor or file)"
            )
        return p.read_text()

    return group_from_source(source, read_file)


# ----------------------------------------------------------------------
# Check-report cache.

def _cache_dir() -> Path | None:
    d = os.environ.get("PICKYLAB_CACHE")
    return Path(d) if d else None


def _cache_key(entry: CatalogEntry, G: PermGroup, p: int, name: str, variant: str) -> str:
    payload = json.dumps(
        {
            "format": 1,
            "version": __version__,
            "label": entry.label,
            "degree": G.degree,
            "generators": [g.cycle_string() for g in G.generators],
            "prime": p,
            "check": name,
            "variant": variant,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_meta(G: PermGroup, p: int) -> dict:
    """The structural invariants stored with a report and checked on load."""
    return {
        "order": G.order,
        "class_count": len(conjugacy_classes(G)),
        "sylow_order": sylow_data(G, p).subgroup.order,
    }


def _cache_load(key: str, G: PermGroup, p: int, label: str) -> list[dict] | None:
    """The stored reports, if the entry's meta matches G and p and its
    reports are a nonempty list of dicts for ``label`` at p; else None."""
    d = _cache_dir()
    if d is None:
        return None
    f = d / f"{key}.json"
    if not f.exists():
        return None
    try:
        stored = json.loads(f.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(stored, dict) or stored.get("meta") != _cache_meta(G, p):
        return None
    report = stored.get("report")
    if not isinstance(report, list) or not report:
        return None
    for r in report:
        if not isinstance(r, dict) or r.get("group") != label or r.get("prime") != p:
            return None
    return report


def _cache_store(key: str, G: PermGroup, p: int, report: dict):
    """Write the entry to a temporary file, then move it onto ``<key>.json``,
    so a reader never sees a partly written entry."""
    d = _cache_dir()
    if d is None:
        return
    d.mkdir(parents=True, exist_ok=True)
    text = json.dumps({"meta": _cache_meta(G, p), "report": report}, sort_keys=True)
    tmp = d / f".{key}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, d / f"{key}.json")
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Batch driver.

def _entry_reports(entry: CatalogEntry, timings: bool) -> list[dict]:
    G = entry.build()
    out: list[dict] = []
    for p in entry.effective_primes(G):
        # Cached reports carry no timings, so --timings neither reads nor writes them.
        key = _cache_key(entry, G, p, "all", "all")
        cached = None if timings else _cache_load(key, G, p, entry.label)
        if cached is not None:
            out.extend(cached)
            continue
        reports = run_all_checks(G, p, group_label=entry.label)
        dicts = [r.to_json_dict(include_timing=timings) for r in reports]
        if not timings:
            _cache_store(key, G, p, dicts)
        out.extend(dicts)
    return out


def run_batch(catalog_path: str, jobs: int = 1, timings: bool = False) -> dict:
    entries = load_catalog(catalog_path)
    # The pool starts all its workers at once: no more than there are entries.
    workers = min(jobs, len(entries))
    if workers <= 1:
        per_entry = [_entry_reports(e, timings) for e in entries]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_entry = list(pool.map(_entry_reports, entries, [timings] * len(entries)))
    reports: list[dict] = []
    for chunk in per_entry:
        reports.extend(chunk)
    return {"format": 1, "catalog": Path(catalog_path).name, "reports": reports}


def exit_code_for(reports: list[dict]) -> int:
    statuses = [r["status"] for r in reports]
    if any(s == "fails" for s in statuses):
        return EXIT_FAILS
    if any(s == "skipped" for s in statuses):
        return EXIT_SKIPPED
    return EXIT_OK


# ----------------------------------------------------------------------
# Subcommand implementations.

def _cmd_table(args) -> tuple[dict, int]:
    G = _resolve_group(args.group)
    return character_table(G).to_json_dict(), EXIT_OK


def _cmd_blocks(args) -> tuple[dict, int]:
    G = _resolve_group(args.group)
    T = character_table(G)
    return blocks_json(T, block_partition(T, args.prime)), EXIT_OK


def _cmd_sylow(args) -> tuple[dict, int]:
    G = _resolve_group(args.group)
    data = sylow_data(G, args.prime)
    return (
        {
            "format": 1,
            "prime": args.prime,
            "order": data.subgroup.order,
            "count": data.count,
            "normalizer_order": data.normalizer.order,
            "generators": [g.cycle_string() for g in data.subgroup.generators],
        },
        EXIT_OK,
    )


def _cmd_picky(args) -> tuple[dict, int]:
    G = _resolve_group(args.group)
    reports = []
    for x in p_element_class_representatives(G, args.prime):
        reports.append(picky_report(G, args.prime, x).to_json_dict())
    return {"format": 1, "prime": args.prime, "classes": reports}, EXIT_OK


def _cmd_subnormalizer(args) -> tuple[dict, int]:
    G = _resolve_group(args.group)
    x = parse_perm(args.element, G.degree)
    sset = subnormalizer_set(G, x)
    sub = subnormalizer_subgroup(G, x)
    out = {
        "format": 1,
        "element": x.cycle_string(),
        "element_order": x.order(),
        "set_size": len(sset),
        "subgroup_order": sub.order,
        "subgroup_generators": [g.cycle_string() for g in sub.generators],
    }
    p = prime_of_power(x.order())
    if p is not None:
        out["picky_report"] = picky_report(G, p, x).to_json_dict()
    return out, EXIT_OK


def _cmd_check(args) -> tuple[dict, int]:
    G = _resolve_group(args.group)
    if args.name == "all":
        reports = run_all_checks(G, args.prime, group_label=args.group)
    else:
        reports = [
            run_check(args.name, G, args.prime, group_label=args.group, variant=args.variant)
        ]
    dicts = [r.to_json_dict(include_timing=args.timings) for r in reports]
    return {"format": 1, "reports": dicts}, exit_code_for(dicts)


def _cmd_batch(args) -> tuple[dict, int]:
    out = run_batch(args.catalog, jobs=args.jobs, timings=args.timings)
    return out, exit_code_for(out["reports"])


def _cmd_table1(args) -> tuple[dict, int]:
    rep = table1_report()
    rows = table1_rows(rep)
    if args.csv:
        lines = ["value,two_part,multiplicity"]
        lines += [f"{v},{t},{m}" for v, t, m in rows]
        print("\n".join(lines))
    out = {
        "format": 1,
        "element": "8-cycle in S16 / (8-cycle, id) in the base of S8 wr C2",
        "verdict": "equal" if rep["equal"] else "different",
        "signed_verdict": "equal" if rep["equal_signed"] else "different",
        "rows": [list(r) for r in rows],
        "total_nonvanishing": sum(m for _, _, m in rows),
    }
    if not rep["equal"]:
        # dump both multisets, sorted, for diffing
        out["left"] = sorted([v, t, m] for (v, t), m in rep["left"].items())
        out["right"] = sorted([v, t, m] for (v, t), m in rep["right"].items())
    return out, EXIT_OK if rep["equal"] else EXIT_FAILS


# ----------------------------------------------------------------------
# Argument parsing.

def _prime(text: str) -> int:
    """The argparse type of every -p option."""
    try:
        prime = text.isdecimal() and is_prime(int(text))
    except InvalidArgument as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not prime:
        raise argparse.ArgumentTypeError(f"{text!r} is not a prime")
    return int(text)


def _jobs(text: str) -> int:
    """The argparse type of --jobs: a worker count of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a worker count of at least 1")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report to a file instead of stdout")
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")

    ap = argparse.ArgumentParser(
        prog="pickylab",
        description="Exact character tables, Brauer blocks, subnormalizers, and conjecture checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", parents=[common], help="exact character table")
    t.add_argument("group")
    t.set_defaults(fn=_cmd_table)

    b = sub.add_parser("blocks", parents=[common], help="Brauer p-block partition")
    b.add_argument("group")
    b.add_argument("-p", dest="prime", type=_prime, required=True)
    b.set_defaults(fn=_cmd_blocks)

    s = sub.add_parser("sylow", parents=[common], help="Sylow p-subgroup and its normalizer")
    s.add_argument("group")
    s.add_argument("-p", dest="prime", type=_prime, required=True)
    s.set_defaults(fn=_cmd_sylow)

    pk = sub.add_parser("picky", parents=[common], help="picky reports for all p-element classes")
    pk.add_argument("group")
    pk.add_argument("-p", dest="prime", type=_prime, required=True)
    pk.set_defaults(fn=_cmd_picky)

    sn = sub.add_parser(
        "subnormalizer", parents=[common], help="subnormalizer set and subgroup of an element"
    )
    sn.add_argument("group")
    sn.add_argument("-x", dest="element", required=True, help="element in cycle notation")
    sn.set_defaults(fn=_cmd_subnormalizer)

    c = sub.add_parser("check", parents=[common], help="run one named check or all of them")
    c.add_argument("name", help=f"one of: {', '.join(CHECKS)}, or 'all'")
    c.add_argument("group")
    c.add_argument("-p", dest="prime", type=_prime, required=True)
    c.add_argument("--variant", choices=VARIANTS, default="plain")
    c.set_defaults(fn=_cmd_check)

    bt = sub.add_parser("batch", parents=[common], help="run every check over a catalog")
    bt.add_argument("catalog", help="catalog JSON path, or bundled name: small, full")
    bt.add_argument("--jobs", type=_jobs, default=1)
    bt.set_defaults(fn=_cmd_batch)

    for timed in (c, bt):
        timed.add_argument("--timings", action="store_true", help="include runtime_ms in reports")

    t1 = sub.add_parser(
        "table1", parents=[common], help="S16 vs S8 wr C2 value comparison at an 8-cycle"
    )
    t1.add_argument("--csv", action="store_true", help="also print the rows as CSV")
    t1.set_defaults(fn=_cmd_table1)

    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        report, code = args.fn(args)
    except (ParseError, InvalidArgument, ScaleExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except EngineDefect as exc:
        print(f"engine defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT
    except PickylabError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
