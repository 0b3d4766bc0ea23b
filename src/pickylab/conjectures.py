"""The verification harness: one structured check per theorem- or
conjecture-shaped statement, each returning a CheckReport with enough
witness data to reproduce the verdict independently.

Bijection-style statements (McKay at a picky element, the subnormalizer
comparison) constrain only per-character data, so a bijection with the
required properties exists exactly when the signature multisets on the two
sides coincide; the checks compare those multisets.  Signature variants:

* ``plain``  - (degree p-part, field fingerprint of the value),
* ``strong`` - (degree p-part, value up to sign),
* ``ppart``  - (degree p-part, p-part exponent of the value),
* ``degree`` - degree p-part alone (the coarsening all variants refine).

Each table keeps its signature multisets, keyed by (class, p), for as long
as the table lives, so the picky and subnormalizer checks build each column
once; the field fingerprints and p-parts behind them are memoized in
``exactnum``.  Any ``fails`` verdict for a multiset check is re-verified
before it is reported by a computation that reads neither memo: both groups
and tables are rebuilt from scratch, and the invariants are computed by the
unmemoized functions.

A check is one function ``check_<name>(G, p[, variant])`` returning
``(status, witnesses)``.  The ``@_check`` decorator registers it in
``CHECKS`` under ``<name>``, in definition order, and the registered
function times the body and returns a CheckReport; it also takes
``group_label=`` for the report.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from dataclasses import dataclass

from .blocks import block_partition, principal_block
from .chartab import (
    CharacterTable,
    _table_from_scratch,
    character_table,
    cd,
    cd_p,
    irr_nonvanishing_on,
    irr_pprime,
)
from .errors import EngineDefect, InvalidArgument, ScaleExceeded
from .exactnum import algebraic_p_part, field_fingerprint, p_adic_valuation, p_part, prime_factors
from .permgroup import (
    Perm,
    PermGroup,
    _conj,
    _orbit,
    conjugacy_classes,
    derived_length,
    is_ti_sylow,
    sylow_containing,
    sylow_count_containing,
    sylow_data,
)
from .subnorm import (
    chain_length,
    p_element_class_representatives,
    picky_class_representatives,
    subnormalizer_subgroup,
)

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"


@dataclass
class CheckReport:
    check_name: str
    group_label: str
    prime: int
    status: str
    witnesses: dict
    runtime_ms: int = 0

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.check_name,
            "group": self.group_label,
            "prime": self.prime,
            "status": self.status,
            "witnesses": self.witnesses,
        }
        if include_timing:
            out["runtime_ms"] = self.runtime_ms
        return out


# ----------------------------------------------------------------------
# Bijection signatures.

VARIANTS = ("plain", "strong", "ppart")


def signatures(T: CharacterTable, x: Perm, p: int) -> dict[str, tuple]:
    """The signature multisets of Irr^x in every variant, ``degree`` first:
    variant -> the sorted per-character tuples, one per character of T not
    vanishing at x.

    The multisets depend only on the class of x and on p, so they are built
    once per (class, p) and kept on T: at most one entry per class and prime,
    freed with the table.  Each call returns a new dict of the kept
    multisets, which are tuples, so no caller can change an entry.
    ``_reverify_mismatch`` reads neither this memo nor the ``exactnum``
    ones."""
    j = T.class_index(x)
    key = ("signatures", j, p)
    column = T._cache.get(key)
    if column is None:
        column = T._cache.setdefault(
            key, _signature_column(T, j, p, field_fingerprint, algebraic_p_part)
        )
    return dict(column)


def _signature_column(
    T: CharacterTable, j: int, p: int, fingerprint, p_part_of
) -> dict[str, tuple]:
    """The signature multisets at class j, all variants in one pass over the
    column, with ``fingerprint`` and ``p_part_of`` computing the field
    fingerprint and the p-part of each value."""
    m = T.classes[j].element_order
    items: dict[str, list] = {variant: [] for variant in ("degree",) + VARIANTS}
    for d, row in zip(T.degrees, T.values):
        v = row[j]
        if v.is_zero():
            continue
        dp = p_part(d, p)
        fp = fingerprint(v, m)
        e = p_part_of(v, p).exponent
        items["degree"].append((dp,))
        items["plain"].append((dp, fp.modulus, fp.stabilizer))
        items["strong"].append((dp, max(v.to_string(), (-v).to_string())))
        items["ppart"].append((dp, (e.numerator, e.denominator)))
    return {variant: tuple(sorted(its)) for variant, its in items.items()}


def _counted(multiset: tuple) -> list:
    """A signature multiset as sorted [signature, count] pairs, for JSON."""
    return [[_jsonify(sig), n] for sig, n in sorted(Counter(multiset).items())]


def _jsonify(obj):
    if isinstance(obj, tuple):
        return [_jsonify(o) for o in obj]
    return obj


def _compare(G, T, H, x, p, variant) -> tuple[dict, bool]:
    """Irr^x(G) against Irr^x(H), T the table of G, in every signature
    variant, with the structural implications asserted.  Returns the
    comparison entry and whether ``variant`` matches; a mismatch is
    re-verified from scratch before it is returned."""
    left = signatures(T, x, p)
    right = signatures(character_table(H), x, p)
    equal = {v: left[v] == right[v] for v in left}
    # strong refines both ppart and plain, which refine the degree clause.
    if equal["strong"] and not (equal["ppart"] and equal["plain"]):
        raise EngineDefect("strong signatures match but a coarsening does not")
    if (equal["ppart"] or equal["plain"]) and not equal["degree"]:
        raise EngineDefect("refined signatures match but degree p-parts do not")
    entry = {
        "comparison": {
            v: {"equal": equal[v], "left": _counted(left[v]), "right": _counted(right[v])}
            for v in left
        }
    }
    if not equal[variant]:
        entry["witness_reverified"] = _reverify_mismatch(G, H, x, p, variant)
    return entry, equal[variant]


def _fresh(G: PermGroup) -> PermGroup:
    """A new group object with no cached derived data."""
    return PermGroup([Perm(g.images) for g in G.generators], G.degree)


def _reverify_mismatch(G, H, x, p, variant) -> bool:
    """Recompute both multisets from scratch and confirm they still differ:
    fresh groups and tables, and the unmemoized invariants, so that neither
    the tables' signature memo nor the ``exactnum`` memos are read."""

    def multiset(K):
        T = _table_from_scratch(_fresh(K))
        column = _signature_column(
            T, T.class_index(x), p, field_fingerprint.__wrapped__, algebraic_p_part.__wrapped__
        )
        return column[variant]

    return multiset(G) != multiset(H)


# ----------------------------------------------------------------------
# Registry.

CHECKS: dict = {}
_TAKES_VARIANT: set[str] = set()


def _check(body):
    """Register ``check_<name>`` as ``CHECKS[<name>]``.  The registered
    function validates the variant, times ``body`` and wraps the
    ``(status, witnesses)`` it returns in a CheckReport."""
    name = body.__name__.removeprefix("check_")
    signature = inspect.signature(body)
    if "variant" in signature.parameters:
        _TAKES_VARIANT.add(name)

    @functools.wraps(body)
    def check(G, p, *args, group_label="G", **kwargs):
        variant = signature.bind(G, p, *args, **kwargs).arguments.get("variant", "plain")
        if variant not in VARIANTS:
            raise InvalidArgument(f"variant must be one of {VARIANTS}")
        t0 = time.monotonic()
        status, witnesses = body(G, p, *args, **kwargs)
        runtime_ms = int((time.monotonic() - t0) * 1000)
        return CheckReport(name, group_label, p, status, witnesses, runtime_ms)

    CHECKS[name] = check
    return check


# ----------------------------------------------------------------------
# Theorem checks.

@_check
def check_ito_michler(G, p):
    """Normal abelian Sylow p-subgroup iff no degree divisible by p."""
    # The table first: its bound is below the Sylow bound, so it refuses first.
    degrees_p = cd_p(character_table(G), p)
    data = sylow_data(G, p)
    left = data.count == 1 and data.subgroup.is_abelian()
    right = degrees_p == (1,)
    status = HOLDS if left == right else FAILS
    witnesses = {
        "sylow_normal": data.count == 1,
        "sylow_abelian": data.subgroup.is_abelian(),
        "cd_p": list(degrees_p),
    }
    if status == FAILS:
        witnesses["engine_bug"] = True  # a proved theorem cannot fail
    return status, witnesses


@_check
def check_normality_via_qblocks(G, p):
    """P normal iff p divides no degree in any principal q-block, q != p."""
    left = sylow_data(G, p).count == 1
    T = character_table(G)
    right = True
    witness_q = None
    for q in prime_factors(G.order):
        if q == p:
            continue
        b0 = principal_block(block_partition(T, q))
        for i in b0.indices:
            if T.degrees[i] % p == 0:
                right = False
                witness_q = {"q": q, "degree": T.degrees[i]}
                break
        if not right:
            break
    status = HOLDS if left == right else FAILS
    witnesses = {"sylow_normal": left, "all_principal_qblock_degrees_coprime": right}
    if witness_q:
        witnesses["divisible_degree"] = witness_q
    if status == FAILS:
        witnesses["engine_bug"] = True
    return status, witnesses


@_check
def check_mckay(G, p):
    """|Irr_{p'}(G)| = |Irr_{p'}(N_G(P))|."""
    data = sylow_data(G, p)
    count_g = len(irr_pprime(character_table(G), p))
    count_n = len(irr_pprime(character_table(data.normalizer), p))
    status = HOLDS if count_g == count_n else FAILS
    witnesses = {
        "count_G": count_g,
        "count_N": count_n,
        "normalizer_order": data.normalizer.order,
    }
    return status, witnesses


@_check
def check_degree_conjectures(G, p):
    """|cd(P)| <= |cd_p(G)| + 1, and the sharp b <= 2f bound; the
    asymptotic clauses are reported as data only."""
    P = sylow_data(G, p).subgroup
    TP = character_table(P)
    cd_P = cd(TP)
    cd_pG = cd_p(character_table(G), p)
    b = p_adic_valuation(max(cd_P), p)
    f = p_adic_valuation(max(cd_pG), p)
    ok_count = len(cd_P) <= len(cd_pG) + 1
    ok_b2f = b <= 2 * f
    status = HOLDS if (ok_count and ok_b2f) else FAILS
    witnesses = {
        "dl_P": derived_length(P),
        "b": b,
        "f": f,
        "cd_P": list(cd_P),
        "cd_p_G": list(cd_pG),
        "count_bound_holds": ok_count,
        "b_le_2f_holds": ok_b2f,
    }
    return status, witnesses


@_check
def check_chain_conjecture(G, p):
    """Chains between N_G(P) and G are no longer than the number of
    irreducible degrees divisible by p."""
    T = character_table(G)
    n = sum(1 for d in T.degrees if d % p == 0)
    data = sylow_data(G, p)
    N = data.normalizer
    if N.same_group(G) and n == 0:
        return HOLDS, {"chain_length": 0, "n": 0}
    try:
        t = chain_length(G, N)
    except ScaleExceeded as exc:
        return SKIPPED, {"reason": str(exc)}
    status = HOLDS if t <= n else FAILS
    return status, {"chain_length": t, "n": n, "normalizer_order": N.order}


@_check
def check_height_conjectures(G, p):
    """Principal-block height statements: |cd(P)| <= |ht(B0)| + 1 and the
    equality min(cd(P) - {1}) = p^min(ht(B0) - {0}), with empty infima
    reading as infinity on both sides."""
    if G.order % p != 0:
        return SKIPPED, {"reason": "p does not divide |G|"}
    T = character_table(G)
    b0 = principal_block(block_partition(T, p))
    ht = b0.height_set
    P = sylow_data(G, p).subgroup
    cd_P = cd(character_table(P))
    ok_count = len(cd_P) <= len(ht) + 1
    nontrivial_cd = [d for d in cd_P if d > 1]
    nonzero_ht = [h for h in ht if h > 0]
    # An empty infimum reads as None on either side, so two empty ones agree.
    lhs = min(nontrivial_cd, default=None)
    rhs = p ** min(nonzero_ht) if nonzero_ht else None
    ok_em = lhs == rhs
    status = HOLDS if (ok_count and ok_em) else FAILS
    witnesses = {
        "height_set": list(ht),
        "cd_P": list(cd_P),
        "count_bound_holds": ok_count,
        "smallest_nontrivial": {"lhs": lhs, "rhs": rhs},
        "dl_P": derived_length(P),
        "max_height": max(ht),
    }
    return status, witnesses


@_check
def check_vanishing_proposition(G, p):
    """Characters outside the maximal-defect blocks vanish at every picky
    element."""
    T = character_table(G)
    bp = block_partition(T, p)
    small_defect_rows = [i for b in bp.blocks if b.defect < bp.a for i in b.indices]
    picky = picky_class_representatives(G, p)
    violations = []
    for x in picky:
        j = T.class_index(x)
        for i in small_defect_rows:
            if not T.values[i][j].is_zero():
                violations.append(
                    {"element": x.cycle_string(), "degree": T.degrees[i], "value": T.values[i][j].to_string()}
                )
    status = HOLDS if not violations else FAILS
    witnesses = {
        "picky_classes": [x.cycle_string() for x in picky],
        "small_defect_characters": len(small_defect_rows),
    }
    if violations:
        witnesses["violations"] = violations
        witnesses["engine_bug"] = True
    return status, witnesses


@_check
def check_alperin_c(G, p):
    """For a TI Sylow p-subgroup: the number of characters not vanishing on
    P matches |Irr(N_G(P))|.  Both readings of "not vanishing on P" are
    computed: with the identity included the left side is all of Irr(G), so
    the literal count is tried first and the nonidentity reading second."""
    if not is_ti_sylow(G, p):
        return SKIPPED, {"reason": "Sylow subgroup is not TI"}
    data = sylow_data(G, p)
    T = character_table(G)
    literal = len(irr_nonvanishing_on(T, data.subgroup))
    nonidentity = len(irr_nonvanishing_on(T, data.subgroup, nonidentity_only=True))
    target = len(conjugacy_classes(data.normalizer))
    witnesses = {
        "count_literal": literal,
        "count_nonidentity": nonidentity,
        "count_N": target,
    }
    if literal == target:
        witnesses["reading"] = "literal"
        status = HOLDS
    elif nonidentity == target:
        witnesses["reading"] = "nonidentity"
        status = HOLDS
    else:
        witnesses["engine_bug_or_definition_mismatch"] = True
        status = FAILS
    return status, witnesses


@_check
def check_kb_principal(G, p):
    """The principal block has at most |P| characters."""
    T = character_table(G)
    bp = block_partition(T, p)
    b0 = principal_block(bp)
    bound = p ** bp.a
    status = HOLDS if len(b0) <= bound else FAILS
    return status, {"principal_block_size": len(b0), "sylow_order": bound}


# ----------------------------------------------------------------------
# Bijection checks.

@_check
def check_picky_conjecture(G, p, variant: str = "plain"):
    """For every picky class representative x, the signature multisets of
    Irr^x(G) and Irr^x(N_G(P)) coincide (P the unique Sylow containing x)."""
    picky = picky_class_representatives(G, p)
    if not picky:
        # Vacuous instance: no picky elements, nothing to compare.
        return HOLDS, {"variant": variant, "picky_classes": [], "vacuous": True}
    T = character_table(G)
    per_class = []
    all_hold = True
    for x in picky:
        _, N = sylow_containing(G, p, x)
        entry, equal = _compare(G, T, N, x, p, variant)
        per_class.append({"element": x.cycle_string(), "normalizer_order": N.order, **entry})
        all_hold = all_hold and equal
    status = HOLDS if all_hold else FAILS
    return status, {"variant": variant, "picky_classes": per_class}


@_check
def check_subnormalizer_conjecture(G, p, variant: str = "plain"):
    """For every nonidentity p-element class representative x, the signature
    multisets of Irr^x(G) and Irr^x(Sub_G(x)) coincide.  Picky classes must
    reproduce the picky comparison exactly (Sub_G(x) = N_G(P))."""
    reps = p_element_class_representatives(G, p)
    T = character_table(G)
    per_class = []
    all_hold = True
    any_skipped = False
    for x in reps:
        try:
            sub = subnormalizer_subgroup(G, x)
        except ScaleExceeded as exc:
            per_class.append({"element": x.cycle_string(), "skipped": str(exc)})
            any_skipped = True
            continue
        picky = sylow_count_containing(G, p, x) == 1
        if picky:
            _, N = sylow_containing(G, p, x)
            if not sub.same_group(N):
                raise EngineDefect("picky element with Sub_G(x) != N_G(P)")
        entry, equal = _compare(G, T, sub, x, p, variant)
        per_class.append(
            {"element": x.cycle_string(), "subnormalizer_order": sub.order, "picky": picky, **entry}
        )
        all_hold = all_hold and equal
    status = FAILS if not all_hold else SKIPPED if any_skipped else HOLDS
    return status, {"variant": variant, "classes": per_class}


@_check
def check_fusion_lemma(G, p):
    """Elements of Sub_G(x) that are G-conjugate to x are already
    Sub_G(x)-conjugate to x."""
    reps = p_element_class_representatives(G, p)
    checked = []
    violations = []
    any_skipped = False
    for x in reps:
        try:
            sub = subnormalizer_subgroup(G, x)
        except ScaleExceeded as exc:
            any_skipped = True
            checked.append({"element": x.cycle_string(), "skipped": str(exc)})
            continue
        # G-class of x, filtered into Sub, versus the Sub-class of x.
        orbit = _orbit([g.images for g in G.generators], x.images, _conj)
        sub_orbit = set(_orbit([g.images for g in sub.generators], x.images, _conj))
        inside = {t for t in orbit if Perm(t) in sub}
        if inside != sub_orbit:
            stray = sorted(inside - sub_orbit)[:3]
            violations.append(
                {
                    "element": x.cycle_string(),
                    "not_locally_conjugate": [Perm(t).cycle_string() for t in stray],
                }
            )
        checked.append({"element": x.cycle_string(), "class_members_in_sub": len(inside)})
    status = FAILS if violations else SKIPPED if any_skipped else HOLDS
    witnesses = {"classes": checked}
    if violations:
        witnesses["violations"] = violations
        witnesses["engine_bug"] = True
    return status, witnesses


# ----------------------------------------------------------------------
# Dispatch and batch helper.

def run_check(
    name: str, G: PermGroup, p: int, *, group_label="G", variant: str = "plain"
) -> CheckReport:
    """One named check; ``variant`` goes only to the checks that take one."""
    check = CHECKS.get(name)
    if check is None:
        raise InvalidArgument(f"unknown check {name!r}; choose from {', '.join(CHECKS)} or 'all'")
    args = (variant,) if name in _TAKES_VARIANT else ()
    return check(G, p, *args, group_label=group_label)


def run_all_checks(G: PermGroup, p: int, *, group_label="G") -> list[CheckReport]:
    """Every applicable check for one (group, prime): the picky comparison
    in all three variants, everything else once.  The TI-only check is
    included only when its precondition is met, so "all" means "all
    applicable" and a clean run reports nothing but holds.
    Cross-statement implications are asserted before returning."""
    reports: list[CheckReport] = []
    for name, check in CHECKS.items():
        if name == "picky_conjecture":
            reports += [check(G, p, variant, group_label=group_label) for variant in VARIANTS]
        elif name != "alperin_c" or is_ti_sylow(G, p):
            reports.append(check(G, p, group_label=group_label))
    # A picky bijection preserving degree p-parts forces the McKay count.
    picky_plain = next(
        r
        for r in reports
        if r.check_name == "picky_conjecture" and r.witnesses.get("variant") == "plain"
    )
    mckay = next(r for r in reports if r.check_name == "mckay")
    if (
        picky_plain.status == HOLDS
        and not picky_plain.witnesses.get("vacuous")
        and mckay.status != HOLDS
    ):
        raise EngineDefect("picky comparison holds but the McKay count does not")
    return reports
