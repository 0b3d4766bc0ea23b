"""Subnormality, subnormalizers, picky elements, Sylow covering, and
subgroup chain lengths.

Everything is derived from the definitions: H is subnormal in K when the
descending normal-closure series K >= <H^K> >= <H^<H^K>> >= ... terminates
at H, and the subnormalizer set S_G(<x>) collects the g with <x> subnormal
in <x, g>.  Four maps of G leave that verdict unchanged:

* t -> x t and t -> t x, since <x, x^a t x^b> = <x, t>;
* t -> t^-1, since <x, t^-1> = <x, t>;
* t -> t^n for n in N_G(<x>), since <x, t^n> = <x, t>^n and <x>^n = <x>,
  and conjugation by n carries subnormal subgroups to subnormal ones.

So the scan tests one element per orbit of G under these maps.  Right
multiplication by x is inversion, left multiplication by x^-1 and inversion
again, so the orbits are computed without a map of its own for it.
Centralizing or <x>-normalizing elements are accepted without the series.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import EngineDefect, InvalidArgument
from .exactnum import prime_factors
from .permgroup import (
    Perm,
    PermGroup,
    _conj,
    _inv,
    _mul,
    _orbit,
    _Chain,
    check_order_bound,
    conjugacy_classes,
    extended_group,
    group_generated_by,
    is_p_element,
    normal_closure_chain,
    normalizer,
    sylow_containing,
    sylow_count_containing,
    sylow_data,
)

# ----------------------------------------------------------------------
# Subnormality via normal closure series.

def _is_subnormal_tuples(seed_tuples, seed_order: int, group_gens, degree: int) -> bool:
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
    )


# ----------------------------------------------------------------------
# Subnormalizer sets and subgroups.

def _subnormal_in_generated(x: Perm, x_tuples, x_order: int, g: Perm) -> bool:
    """Is <x> subnormal in <x, g>?  (x_tuples = all powers of x.)"""
    xt = x.images
    gt = g.images
    # Centralizing or <x>-normalizing elements qualify immediately.
    if _mul(xt, gt) == _mul(gt, xt):
        return True
    if _conj(xt, gt) in x_tuples:
        return True
    return _is_subnormal_tuples([xt], x_order, [xt, gt], len(xt))


def subnormalizer_set(
    G: PermGroup, x: Perm, config: EngineConfig = DEFAULT_CONFIG
) -> list[Perm]:
    """S_G(<x>) = { g : <x> subnormal in <x, g> }, as a sorted list.

    The verdict is constant on each orbit of G under t -> x t, t -> t x,
    t -> t^-1 and conjugation by N_G(<x>): <x, x^a t x^b> = <x, t^-1> =
    <x, t>, and <x, t^n> = <x, t>^n with <x>^n = <x>.  So one test per
    orbit suffices; every element is still reported.  The set is computed
    once per (G, x) and cached on G; each call returns a new list.
    """
    check_order_bound(G, config.subnormalizer_bound, "subnormalizer")
    if x not in G:
        raise InvalidArgument("element does not belong to the group")
    key = ("subnormalizer_set", x.images)
    if key not in G._cache:
        G._cache[key] = tuple(_scan_subnormalizer(G, x, config))
    return list(G._cache[key])


def _scan_subnormalizer(G: PermGroup, x: Perm, config: EngineConfig) -> list[Perm]:
    xt = x.images
    x_order = x.order()
    powers = frozenset((x**k).images for k in range(x_order))
    N = normalizer(G, group_generated_by([x], G.degree), config)
    # Powers of x are left out: left and right multiplication already
    # cover conjugation by them.
    maps = [lambda t: _mul(xt, t), _inv] + [
        lambda t, n=n.images: _conj(t, n) for n in N.generators if n.images not in powers
    ]
    members: list[Perm] = []
    decided: dict[tuple, bool] = {}
    for g in G.elements(config):
        verdict = decided.get(g.images)
        if verdict is None:
            verdict = _subnormal_in_generated(x, powers, x_order, g)
            decided.update(dict.fromkeys(_orbit(maps, g.images, _apply), verdict))
        if verdict:
            members.append(g)
    return members


def _apply(t, f):
    return f(t)


def subnormalizer_subgroup(
    G: PermGroup, x: Perm, config: EngineConfig = DEFAULT_CONFIG
) -> PermGroup:
    """Sub_G(x) = <S_G(<x>)>.  For p-elements the containment
    N_G(P) <= Sub_G(x) is asserted."""
    key = ("subnormalizer", x.images)
    if key in G._cache:
        return G._cache[key]
    sset = subnormalizer_set(G, x, config)
    sub = group_generated_by(sset, G.degree)
    order = x.order()
    if order > 1:
        primes = prime_factors(order)
        if len(primes) == 1:
            (p,) = primes
            _, N = sylow_containing(G, p, x, config)
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


def picky_report(
    G: PermGroup, p: int, x: Perm, config: EngineConfig = DEFAULT_CONFIG
) -> PickyReport:
    """Full picky diagnostics for a p-element, cross-validating that
    x is picky exactly when Sub_G(x) = N_G(P)."""
    if not is_p_element(x, p):
        raise InvalidArgument("element order is not a power of p")
    count = sylow_count_containing(G, p, x, config)
    _, N = sylow_containing(G, p, x, config)
    sub = subnormalizer_subgroup(G, x, config)
    picky = count == 1
    if not N.is_subgroup_of(sub):
        raise EngineDefect("N_G(P) is not contained in Sub_G(x)")
    if picky != N.same_group(sub):
        raise EngineDefect("pickiness disagrees with Sub_G(x) = N_G(P)")
    return PickyReport(
        element=x, prime=p, sylow_count=count, is_picky=picky, sub_group=sub, normalizer=N
    )


def p_element_class_representatives(
    G: PermGroup, p: int, include_identity: bool = False, config: EngineConfig = DEFAULT_CONFIG
) -> list[Perm]:
    """Class representatives of p-power order (identity optional)."""
    reps = []
    for c in conjugacy_classes(G, config):
        x = c.representative
        if x.is_identity():
            if include_identity:
                reps.append(x)
            continue
        if is_p_element(x, p):
            reps.append(x)
    return reps


def picky_class_representatives(
    G: PermGroup, p: int, config: EngineConfig = DEFAULT_CONFIG
) -> list[Perm]:
    """Nonidentity p-element class representatives lying in a unique Sylow
    p-subgroup.  Cheap: no subnormalizer computation involved."""
    return [
        x
        for x in p_element_class_representatives(G, p, config=config)
        if sylow_count_containing(G, p, x, config) == 1
    ]


@dataclass(frozen=True)
class CoveringAnalysis:
    all_sylows_needed: bool
    picky_exists: bool


def covering_analysis(
    G: PermGroup, p: int, config: EngineConfig = DEFAULT_CONFIG
) -> CoveringAnalysis:
    """Do all Sylow p-subgroups participate in covering the p-elements, and
    does a picky element exist?  The two answers must agree."""
    data = sylow_data(G, p, config)
    P = data.subgroup
    sylow_sets = []
    for g in data.transversal:
        gt = g.images
        sylow_sets.append(frozenset(_conj(t.images, gt) for t in P.elements(config)))
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
    for x in p_element_class_representatives(G, p, include_identity=True, config=config):
        report = picky_report(G, p, x, config)
        if report.is_picky:
            picky_exists = True
            break
    if all_needed != picky_exists:
        raise EngineDefect("covering criterion disagrees with picky existence")
    return CoveringAnalysis(all_sylows_needed=all_needed, picky_exists=picky_exists)


# ----------------------------------------------------------------------
# Longest subgroup chains.

def chain_length(G: PermGroup, N: PermGroup, config: EngineConfig = DEFAULT_CONFIG) -> int:
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
    Most <H, g> are G itself, so each is built with ``stop_at = |G|``
    (see ``_Chain.insert``) and ends as soon as it reaches that order.
    """
    check_order_bound(G, config.chain_length_bound, "chain-length")
    if not N.is_subgroup_of(G):
        raise InvalidArgument("N is not a subgroup of G")
    g_elements = G.elements(config)

    def key_of(K: PermGroup) -> frozenset | None:
        # The element set; None for G itself, where every chain ends.
        return None if K.order == G.order else frozenset(K.chain.iter_elements())

    memo: dict[frozenset | None, int] = {None: 0}

    def longest(H: PermGroup, key: frozenset | None) -> int:
        if key not in memo:
            found = _overgroups(H, key)
            if not found:
                raise EngineDefect("no overgroup found for a proper subgroup")
            memo[key] = 1 + max(longest(K, k) for k, K in found.items())
        return memo[key]

    def _overgroups(H: PermGroup, key: frozenset) -> dict[frozenset | None, PermGroup]:
        # <H, g> by key, for one g per right coset Hg; the cosets are freed
        # before the recursion goes deeper.
        found: dict[frozenset | None, PermGroup] = {}
        seen_cosets = set(key)
        for g in g_elements:
            gt = g.images
            if gt in seen_cosets:
                continue
            seen_cosets.update(_mul(h, gt) for h in key)
            K = extended_group(H, [g], G.order)
            found.setdefault(key_of(K), K)
        return found

    return longest(N, key_of(N))
