"""Subnormality, subnormalizers, picky elements, Sylow covering, and
subgroup chain lengths.

Everything is derived from the definitions: H is subnormal in K when the
descending normal-closure series K >= <H^K> >= <H^<H^K>> >= ... terminates
at H, and the subnormalizer set S_G(<x>) collects the g with <x> subnormal
in <x, g>.

A p-subgroup A of K is subnormal in K exactly when its normal closure
<A^K> is a p-group (Wielandt, Math. Z. 45, 1939; Isaacs, Finite Group
Theory, AMS 2008, ch. 2):

* if A = A_0 <| A_1 <| ... <| A_r = K, then A <= O_p(A_(r-1)) by
  induction on r, a p-subgroup characteristic in A_(r-1) <| K and so
  normal in K; hence A <= O_p(K), and <A^K> <= O_p(K) is a p-group;
* if <A^K> is a p-group, A is subnormal in it, as in every nilpotent
  group, and <A^K> is normal in K.

So for a p-element x one closure decides, built only until its order
passes |G|_p: a closure that large is no p-group.  The commutator
[x, g] = x^-1 x^g lies in the normal closure of <x> in <x, g>, so a g with
[x, g] not a p-element is rejected without one.  Seeds of other orders run
the descending series.

Four maps of G leave the verdict for <x, g> unchanged:

* t -> x t and t -> t x, since <x, x^a t x^b> = <x, t>;
* t -> t^-1, since <x, t^-1> = <x, t>;
* t -> t^n for n in N_G(<x>), since <x, t^n> = <x, t>^n and <x>^n = <x>,
  and conjugation by n carries subnormal subgroups to subnormal ones.

So the scan tests one element per orbit under these maps.  Right
multiplication by x is inversion, left multiplication by x^-1 and inversion
again, so the orbits are computed without a map of its own for it.
Centralizing or <x>-normalizing elements are accepted without a closure.

The scan walks only the right cosets N u of N = N_G(<x>) that can hold
members.  For each prime q of o(x) let x_q be the q-part of x; <x_q> is
characteristic in <x>.  If <x> is subnormal in <x, g>, so is <x_q>, since
subnormality passes to intermediate subgroups; then x_q lies in the normal
subgroup O_q(<x, g>), which also holds x_q^g, so <x_q, x_q^g> is a q-group
in which <x_q> is subnormal.  For n in N, x_q^n generates <x_q>, so
<x_q, x_q^(n u)> = <x_q, x_q^u>: one test per prime decides the condition
for the whole coset.  N and the transversal come from one orbit of <x>
under conjugation.  The identity has no primes and keeps its one coset, G.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter

from .config import CHAIN_LENGTH_BOUND, SUBNORMALIZER_BOUND
from .errors import EngineDefect, InvalidArgument
from .exactnum import p_part, prime_factors, prime_of_power
from .permgroup import (
    Perm,
    PermGroup,
    _conj,
    _conj_set,
    _inv,
    _is_identity,
    _mul,
    _orbit,
    _orbit_stabilizer,
    _p_power_part,
    _Chain,
    check_order_bound,
    conjugacy_classes,
    extended_group,
    find_same_subgroup,
    group_generated_by,
    is_p_element,
    normal_closure_chain,
    sylow_containing,
    sylow_count_containing,
    sylow_data,
)

# ----------------------------------------------------------------------
# Subnormality.

def _is_subnormal_tuples(
    seed_tuples, seed_order: int, group_gens, degree: int, group_order: int
) -> bool:
    """<seeds> subnormal in <group_gens>, a subgroup of a group of order
    ``group_order``.  For seeds of p-power order by one normal closure,
    stopped once its order passes the p-part of ``group_order``; otherwise
    by the descending series."""
    p = prime_of_power(seed_order)
    if p is None:
        return _descending_series(seed_tuples, seed_order, group_gens, degree)
    bound = p_part(group_order, p)
    closure, _ = normal_closure_chain(group_gens, seed_tuples, degree, bound + 1)
    # A complete closure's order divides group_order, so it is a p-group
    # exactly when its order divides the p-part; a stopped one exceeds it.
    return bound % closure.order() == 0


def _descending_series(seed_tuples, seed_order: int, group_gens, degree: int) -> bool:
    """<seeds> subnormal in <group_gens>, by the descending closure series."""
    gens = list(group_gens)
    ch = _Chain(degree)
    for t in gens:
        ch.insert(t)
    order = ch.order()
    while order != seed_order:
        ch, gens = normal_closure_chain(gens, seed_tuples, degree)
        if ch.order() == order:
            return False
        order = ch.order()
    return True


def is_subnormal(H: PermGroup, K: PermGroup) -> bool:
    """Whether H is linked to K by a chain of successive normal subgroups."""
    if not H.is_subgroup_of(K):
        raise InvalidArgument("H is not a subgroup of K")
    return _is_subnormal_tuples(
        [g.images for g in H.generators] or [tuple(range(K.degree))],
        H.order,
        [g.images for g in K.generators],
        K.degree,
        K.order,
    )


# ----------------------------------------------------------------------
# Subnormalizer sets and subgroups.

def _subnormal_in_generated(x: Perm, x_tuples, x_order: int, g: Perm, group_order: int) -> bool:
    """Is <x> subnormal in <x, g>?  (x_tuples = all powers of x; x and g
    lie in a group of order ``group_order``.)"""
    xt = x.images
    gt = g.images
    xg = _conj(xt, gt)
    # Centralizing or <x>-normalizing elements qualify immediately.
    if xg in x_tuples:
        return True
    p = prime_of_power(x_order)
    if p is not None and not is_p_element(Perm(_mul(_inv(xt), xg)), p):
        return False  # [x, g] lies in the normal closure of <x>
    return _is_subnormal_tuples([xt], x_order, [xt, gt], len(xt), group_order)


def subnormalizer_set(G: PermGroup, x: Perm) -> list[Perm]:
    """S_G(<x>) = { g : <x> subnormal in <x, g> }, as a sorted list.

    Only the right cosets N u of N = N_G(<x>) with <x_q> subnormal in
    <x_q, x_q^u> for every prime q of o(x) are scanned: every member's
    coset passes, and the test is constant on each coset (see the module
    docstring).  On those cosets the verdict is constant on each orbit
    under t -> x t, t -> t x, t -> t^-1 and conjugation by N:
    <x, x^a t x^b> = <x, t^-1> = <x, t>, and <x, t^n> = <x, t>^n with
    <x>^n = <x>.  So one test per coset and prime, tried in ascending order
    up to the first that fails, and one per orbit meeting the kept cosets
    suffice; every element is still reported.  The set is computed once per
    (G, x) and cached on G; each call returns a new list.
    """
    check_order_bound(G, SUBNORMALIZER_BOUND, "subnormalizer")
    if x not in G:
        raise InvalidArgument("element does not belong to the group")
    key = ("subnormalizer_set", x.images)
    if key not in G._cache:
        G._cache[key] = tuple(_scan_subnormalizer(G, x))
    return list(G._cache[key])


def _scan_subnormalizer(G: PermGroup, x: Perm) -> list[Perm]:
    xt = x.images
    x_order = x.order()
    powers = frozenset((x**k).images for k in range(x_order))
    # One orbit of <x> under conjugation: N = N_G(<x>) and a right transversal.
    transversal, N = _orbit_stabilizer(G, powers, _conj_set, [x])
    parts = []  # (x_q, the powers of x_q) for each prime q of o(x), ascending
    for q in prime_factors(x_order):
        xq = _p_power_part(x, q)
        parts.append((xq, frozenset((xq**k).images for k in range(xq.order()))))
    # The cosets N u with <x_q> subnormal in <x_q, x_q^u> for every q.
    kept = [
        u
        for u in transversal.values()
        if all(
            _subnormal_in_generated(
                xq, q_powers, len(q_powers), Perm(_conj(xq.images, u)), G.order
            )
            for xq, q_powers in parts
        )
    ]
    # Powers of x are left out: left and right multiplication already
    # cover conjugation by them.
    maps = [lambda t: _mul(xt, t), _inv] + [
        lambda t, n=n.images: _conj(t, n) for n in N.generators if n.images not in powers
    ]
    members: list[tuple[int, ...]] = []
    decided: dict[tuple, bool] = {}
    for n in N.chain.iter_elements():  # n u runs over the kept cosets
        for u in kept:
            gt = _mul(n, u)
            verdict = decided.get(gt)
            if verdict is None:
                verdict = _subnormal_in_generated(x, powers, x_order, Perm(gt), G.order)
                decided.update(dict.fromkeys(_orbit(maps, gt, _apply), verdict))
            if verdict:
                members.append(gt)
    members.sort()
    return [Perm(t) for t in members]


def _apply(t, f):
    return f(t)


def subnormalizer_subgroup(G: PermGroup, x: Perm) -> PermGroup:
    """Sub_G(x) = <S_G(<x>)>.  For p-elements the containment
    N_G(P) <= Sub_G(x) is asserted."""
    key = ("subnormalizer", x.images)
    if key in G._cache:
        return G._cache[key]
    sub = group_generated_by(subnormalizer_set(G, x), G.degree)
    # The members are fresh tuples, held by G only until Sub_G(x) is built.
    G._cache.pop(("subnormalizer_set", x.images), None)
    p = prime_of_power(x.order())
    if p is not None:
        _, N = sylow_containing(G, p, x)
        if not N.is_subgroup_of(sub):
            raise EngineDefect("N_G(P) is not contained in the subnormalizer subgroup")
    G._cache[key] = sub
    return sub


# ----------------------------------------------------------------------
# Picky elements.

@dataclass
class PickyReport:
    element: Perm
    prime: int
    sylow_count: int
    is_picky: bool
    sub_group: PermGroup
    normalizer: PermGroup

    def to_json_dict(self) -> dict:
        return {
            "element": self.element.cycle_string(),
            "prime": self.prime,
            "sylow_count": self.sylow_count,
            "is_picky": self.is_picky,
            "subnormalizer_order": self.sub_group.order,
            "normalizer_order": self.normalizer.order,
        }


def picky_report(G: PermGroup, p: int, x: Perm) -> PickyReport:
    """Full picky diagnostics for a p-element, cross-validating that
    x is picky exactly when Sub_G(x) = N_G(P)."""
    if not is_p_element(x, p):
        raise InvalidArgument("element order is not a power of p")
    count = sylow_count_containing(G, p, x)
    _, N = sylow_containing(G, p, x)
    sub = subnormalizer_subgroup(G, x)
    picky = count == 1
    if not N.is_subgroup_of(sub):
        raise EngineDefect("N_G(P) is not contained in Sub_G(x)")
    if picky != N.same_group(sub):
        raise EngineDefect("pickiness disagrees with Sub_G(x) = N_G(P)")
    return PickyReport(
        element=x, prime=p, sylow_count=count, is_picky=picky, sub_group=sub, normalizer=N
    )


def p_element_class_representatives(
    G: PermGroup, p: int, include_identity: bool = False
) -> list[Perm]:
    """Class representatives of p-power order (identity optional)."""
    reps = []
    for c in conjugacy_classes(G):
        x = c.representative
        if x.is_identity():
            if include_identity:
                reps.append(x)
            continue
        if is_p_element(x, p):
            reps.append(x)
    return reps


def picky_class_representatives(G: PermGroup, p: int) -> list[Perm]:
    """Nonidentity p-element class representatives lying in a unique Sylow
    p-subgroup.  Cheap: no subnormalizer computation involved."""
    return [
        x
        for x in p_element_class_representatives(G, p)
        if sylow_count_containing(G, p, x) == 1
    ]


@dataclass(frozen=True)
class CoveringAnalysis:
    all_sylows_needed: bool
    picky_exists: bool


def covering_analysis(G: PermGroup, p: int) -> CoveringAnalysis:
    """Do all Sylow p-subgroups participate in covering the p-elements, and
    does a picky element exist?  The two answers must agree."""
    data = sylow_data(G, p)
    P = data.subgroup
    sylow_sets = []
    for g in data.transversal:
        gt = g.images
        sylow_sets.append(frozenset(_conj(t.images, gt) for t in P.elements()))
    all_needed = True
    for i, Q in enumerate(sylow_sets):
        # Q is needed iff some element of Q lies in no other Sylow subgroup.
        needed = any(
            all(t not in other for j, other in enumerate(sylow_sets) if j != i) for t in Q
        )
        if not needed:
            all_needed = False
            break
    picky_exists = False
    for x in p_element_class_representatives(G, p, include_identity=True):
        report = picky_report(G, p, x)
        if report.is_picky:
            picky_exists = True
            break
    if all_needed != picky_exists:
        raise EngineDefect("covering criterion disagrees with picky existence")
    return CoveringAnalysis(all_sylows_needed=all_needed, picky_exists=picky_exists)


# ----------------------------------------------------------------------
# Longest subgroup chains.

def chain_length(G: PermGroup, N: PermGroup) -> int:
    """Maximal length t of a strictly increasing subgroup chain
    N = H_0 < H_1 < ... < H_t = G.

    For H < G, longest(H) = 1 + max longest(<H, g>) over g outside H, one g
    per right coset Hg (<H, g> depends only on Hg).  Each <H, g> starts a
    chain from H, so the right side is at most longest(H); the first step
    H_1 of a longest chain contains some <H, g>, whose longest chain is at
    least as long as that of H_1, so the right side is at least
    longest(H).  This agrees with the recursion over minimal overgroups,
    and visits the same subgroups: every subgroup between N and G is
    reached by minimal steps, and every <H, g> lies between N and G.

    When the coset Hg is scanned, every H g^k with k prime to the order of
    g is marked as scanned too: g is a power of g^k, so <H, g^k> = <H, g>.
    Most <H, g> are G itself, so each is built with ``stop_at = |G|`` (see
    ``_Chain.insert``) and ends as soon as it reaches that order.  Subgroups
    are told apart by order plus containment (``find_same_subgroup``); only
    the subgroup whose cosets are being scanned is enumerated.
    """
    check_order_bound(G, CHAIN_LENGTH_BOUND, "chain-length")
    if not N.is_subgroup_of(G):
        raise InvalidArgument("N is not a subgroup of G")
    g_elements = G.elements()
    memo: dict[int, list[tuple[PermGroup, int]]] = {}  # order -> (K, longest(K))

    def longest(H: PermGroup) -> int:
        if H.order == G.order:
            return 0
        same_order = memo.setdefault(H.order, [])
        entry = find_same_subgroup(H, same_order, itemgetter(0))
        if entry is None:
            found = _overgroups(H)
            if not found:
                raise EngineDefect("no overgroup found for a proper subgroup")
            entry = (H, 1 + max(map(longest, found)))
            same_order.append(entry)
        return entry[1]

    def _overgroups(H: PermGroup) -> list[PermGroup]:
        # <H, g> for one g per right coset Hg, each subgroup once; the
        # cosets are freed before the recursion goes deeper.
        h_elements = list(H.chain.iter_elements())
        seen_cosets = set(h_elements)
        by_order: dict[int, list[PermGroup]] = {}
        for g in g_elements:
            gt = g.images
            if gt in seen_cosets:
                continue
            for gk in _cyclic_generators(gt):
                seen_cosets.update(_mul(h, gk) for h in h_elements)
            K = extended_group(H, [g], G.order)
            same_order = by_order.setdefault(K.order, [])
            if find_same_subgroup(K, same_order) is None:
                same_order.append(K)
        return [K for same_order in by_order.values() for K in same_order]

    return longest(N)


def _cyclic_generators(gt: tuple[int, ...]) -> list[tuple[int, ...]]:
    """g^k for every k prime to the order of g: the generators of <g>."""
    powers = [gt]
    while not _is_identity(powers[-1]):
        powers.append(_mul(powers[-1], gt))
    n = len(powers)
    return [t for k, t in enumerate(powers, 1) if gcd(k, n) == 1]
