"""Subnormality, subnormalizers, picky elements, Sylow covering, and
subgroup chain lengths.

Everything is derived from the definitions: H is subnormal in K when the
descending normal-closure series K >= <H^K> >= <H^<H^K>> >= ... terminates
at H, and the subnormalizer set S_G(<x>) collects the g with <x> subnormal
in <x, g>.

A q-subgroup A of K is subnormal in K exactly when its normal closure
<A^K> is a q-group (Wielandt, Math. Z. 45, 1939; Isaacs, Finite Group
Theory, AMS 2008, ch. 2):

* if A = A_0 <| A_1 <| ... <| A_r = K, then A <= O_q(A_(r-1)) by
  induction on r, a q-subgroup characteristic in A_(r-1) <| K and so
  normal in K; hence A <= O_q(K), and <A^K> <= O_q(K) is a q-group;
* if <A^K> is a q-group, A is subnormal in it, as in every nilpotent
  group, and <A^K> is normal in K.

For any x, let x_q be the q-part of x for each prime q of o(x).  Then <x>
is subnormal in H exactly when every <x_q> is:

* if <x> is subnormal in H, so is each <x_q>, normal in the abelian <x>;
* if each <x_q> is, each lies in O_q(H), so <x> lies in the nilpotent
  normal subgroup generated by these O_q(H), where it is subnormal.

So one closure per prime decides, each built only until its order passes
|G|_q: a closure that large is no q-group.  The commutator
[x_q, g] = x_q^-1 x_q^g lies in the normal closure of <x_q> in <x, g>, so a
g with [x_q, g] not a q-element is rejected without one.

Three kinds of maps of G leave the verdict for <x, g> unchanged:

* t -> x t and t -> t x, since <x, x^a t x^b> = <x, t>;
* t -> t^-1, since <x, t^-1> = <x, t>;
* t -> t^n for n in N = N_G(<x>), since <x, t^n> = <x, t>^n and
  <x>^n = <x>, and conjugation by n carries subnormal subgroups to
  subnormal ones.

So S = S_G(<x>) is kept by each: S^n = S, x S = S, S^-1 = S.  The scan
runs over the double cosets D = N u N and fills each from one right coset
(double cosets and Schreier transversals as in Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, ch. 4):

* The right cosets in D are the N u n, and (N u)^n = n^-1 N u n = N u n,
  so S meets N u n in (S ∩ N u)^n: one conjugation per member, no test.
* N u is kept as a set by t -> x t, as x lies in N, and by t -> t^m for m
  in N ∩ N^u, as m^-1 n u m = m^-1 n (u m u^-1) u with u m u^-1 in N.  So
  the scan tests one element of N u per orbit of these maps.  (t -> t x
  leaves N u unless x lies in N^u.)
* D^-1 = N u^-1 N, and S ∩ D^-1 = (S ∩ D)^-1: the inverse double coset
  takes no filter and no walk.  Only S ∩ N u is inverted; D^-1 meets
  n^-1 u^-1 N in the conjugates of those inverses by n.

N and a right transversal come from one orbit of <x> under conjugation,
<x> keyed by its generators x^k with k prime to o(x).  N permutes the
conjugates <x>^u by conjugation as it permutes the cosets N u by right
multiplication, so the double cosets are the N-orbits on the transversal.
One walk of N's generators over the N-orbit of <x>^u maps each
<x>^(u n) to its n, the coset N u n, and its non-tree edges generate the
stabilizer N ∩ N^u (Schreier's lemma).  Centralizing or <x>-normalizing
elements are accepted without a closure.

The scan fills only the double cosets that can hold members.  If <x> is
subnormal in <x, g>, so is <x_q>, since subnormality passes to
intermediate subgroups; then x_q lies in the normal subgroup
O_q(<x, g>), which also holds x_q^g, so <x_q, x_q^g> is a q-group in which
<x_q> is subnormal.  For n, n' in N, x_q^n generates <x_q>, so
<x_q, x_q^(n u n')> = <x_q, x_q^(u n')> = <x_q, x_q^u>^n', and conjugation
by n' fixes <x_q>: the condition is constant on each double coset N u N.
It is the same on N u^-1 N, as <x_q, x_q^(u^-1)> = <x_q^u, x_q>^(u^-1),
so one test per prime decides each pair {D, D^-1}.  The identity has no
primes and keeps its one double coset, G.

Sub_G(x) = <S_G(<x>)> is generated by N and one accepted member per orbit
of the scan: N lies in the set, as it normalizes <x>, each member of N u
is x^a t^m for its orbit's tested t, and every other member is a
conjugate by N of one of these or of its inverse.  So Sub_G(x) is the
scan's own chain, N's grown by the accepted tested members, with N's
generators and the members that enlarged it as generators; no walk over
the members builds it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import itemgetter

from .config import CHAIN_LENGTH_BOUND, ENUM_BOUND, SUBNORMALIZER_BOUND
from .errors import EngineDefect, InvalidArgument
from .exactnum import p_part, prime_factors, prime_of_power
from .permgroup import (
    Perm,
    PermGroup,
    _conjugator,
    _identity,
    _inv,
    _is_identity,
    _mul,
    _orbit,
    _orbit_stabilizer,
    _p_power_part,
    _schreier_orbit,
    _set_conjugator,
    check_order_bound,
    conjugacy_classes,
    extended_group,
    find_same_subgroup,
    is_p_element,
    normal_closure_chain,
    sylow_containing,
    sylow_count_containing,
    sylow_data,
)

# ----------------------------------------------------------------------
# Subnormality.

def _is_subnormal_tuples(seed_tuples, q: int, group_gens, degree: int, group_order: int) -> bool:
    """The q-group <seeds> subnormal in <group_gens>, a subgroup of a group
    of order ``group_order``: by one normal closure, stopped once its order
    passes the q-part of ``group_order``."""
    bound = p_part(group_order, q)
    closure, _ = normal_closure_chain(group_gens, seed_tuples, degree, bound + 1)
    # A complete closure's order divides group_order, so it is a q-group
    # exactly when its order divides the q-part; a stopped one exceeds it.
    return bound % closure.order() == 0


# ----------------------------------------------------------------------
# Subnormalizer sets and subgroups.

def _subnormal_in_generated(x: Perm, x_tuples, x_order: int, g: Perm, group_order: int) -> bool:
    """Is <x> subnormal in <x, g>?  (x_tuples = all powers of x; x and g
    lie in a group of order ``group_order``.)  One prime of o(x) at a time,
    in ascending order (see the module docstring)."""
    xt = x.images
    gt = g.images
    conj = _conjugator(gt)
    xg = conj(xt)
    # Centralizing or <x>-normalizing elements qualify immediately.
    if xg in x_tuples:
        return True
    for q in prime_factors(x_order):
        xq = _p_power_part(x, q, x_order).images  # x itself for a q-element x
        xqg = xg if xq is xt else conj(xq)
        if not is_p_element(Perm(_mul(_inv(xq), xqg)), q):
            return False  # [x_q, g] lies in the normal closure of <x_q>
        if not _is_subnormal_tuples([xq], q, [xt, gt], len(xt), group_order):
            return False
    return True


def subnormalizer_set(G: PermGroup, x: Perm) -> list[Perm]:
    """S_G(<x>) = { g : <x> subnormal in <x, g> }, as a sorted list.

    The scan runs over the double cosets D = N u N of N = N_G(<x>), one
    pair {D, D^-1} at a time (see the module docstring).  A pair is kept
    only if <x_q> is subnormal in <x_q, x_q^u> for every prime q of o(x):
    one test per prime, tried in ascending order up to the first that
    fails.  On a kept pair only the right coset N u is walked, with one
    test per orbit of t -> x t and conjugation by N ∩ N^u; the other
    cosets of D are its conjugates by N, and D^-1 holds the inverses.
    Every element is still reported.  The set is computed once per (G, x)
    and cached on G, with Sub_G(x); each call returns a new list.
    """
    check_order_bound(G, SUBNORMALIZER_BOUND, "subnormalizer")
    if x not in G:
        raise InvalidArgument("element does not belong to the group")
    key = ("subnormalizer_set", x.images)
    if key not in G._cache:
        G._cache[key] = _scan_subnormalizer(G, x)
    return list(G._cache[key][0])


def _scan_subnormalizer(G: PermGroup, x: Perm) -> tuple[tuple[Perm, ...], PermGroup]:
    """The sorted members and Sub_G(x): N's chain grown by one accepted
    tested member per orbit, with N's generators and the members that
    enlarged it as generators."""
    xt = x.images
    x_order = x.order()
    powers = frozenset((x**k).images for k in range(x_order))
    # One orbit of <x>, keyed by its generators, under conjugation:
    # N = N_G(<x>) and a right transversal.
    start = frozenset(_cyclic_generators(xt))
    transversal, N = _orbit_stabilizer(G, start, _set_conjugator, [x])
    parts = []  # (x_q, the powers of x_q) for each prime q of o(x), ascending
    for q in prime_factors(x_order):
        xq = _p_power_part(x, q, x_order)
        parts.append((xq, frozenset((xq**k).images for k in range(xq.order()))))
    n_gens = [n.images for n in N.generators]
    on_conjugates = [_set_conjugator(n) for n in n_gens]
    # t -> x t is itemgetter(*x)(t) (x is not the identity, so degree > 1).
    left = [itemgetter(*xt)] if x_order > 1 else []
    ident = _identity(G.degree)
    n_elements = list(N.chain.iter_elements())  # the pair of D = N always passes the filter
    members: list[tuple[int, ...]] = []
    sub_chain = N.chain.copy()
    enlarged: list[tuple[int, ...]] = []
    done: set[frozenset] = set()  # the conjugates <x>^u whose pair is scanned
    for conjugate, u in transversal.items():
        if conjugate in done:
            continue
        # The N-orbit of <x>^u: each <x>^(u n) with its n, which takes N u
        # to N u n, and the edges whose Schreier generators give N ∩ N^u.
        cosets, edges = _schreier_orbit(n_gens, on_conjugates, conjugate, ident)
        done.update(cosets)
        inverse = _set_conjugator(_inv(u))(start)  # <x>^(u^-1), in D^-1's orbit
        paired = inverse not in cosets  # D^-1 != D
        if paired:
            done.update(_orbit(on_conjugates, inverse))
        conj = _conjugator(u)
        if not all(
            _subnormal_in_generated(xq, q_powers, len(q_powers), Perm(conj(xq.images)), G.order)
            for xq, q_powers in parts
        ):
            continue
        meets = dict.fromkeys(_mul(_mul(a, g), _inv(b)) for a, g, b in edges)
        coset_maps = left + [_conjugator(m) for m in meets if m != ident]
        seen: set[tuple[int, ...]] = set()
        accepted: list[tuple[int, ...]] = []  # S ∩ N u
        for n in n_elements:
            t = _mul(n, u)
            if t in seen:
                continue
            orbit = _orbit(coset_maps, t)
            seen.update(orbit)
            if _subnormal_in_generated(x, powers, x_order, Perm(t), G.order):
                accepted += orbit
                if sub_chain.insert(t, G.order):
                    enlarged.append(t)
        # S ∩ N u n = (S ∩ N u)^n, and S ∩ D^-1 = (S ∩ D)^-1.
        inverses = list(map(_inv, accepted)) if paired else []
        for n in cosets.values():
            conj = _conjugator(n)
            members += map(conj, accepted)
            members += map(conj, inverses)
    members.sort()
    sub = PermGroup._from_chain(sub_chain, N.generators + tuple(map(Perm, enlarged)))
    return tuple(map(Perm, members)), sub


def subnormalizer_subgroup(G: PermGroup, x: Perm) -> PermGroup:
    """Sub_G(x) = <S_G(<x>)>, the scan's own chain (see the module
    docstring).  For p-elements the containment N_G(P) <= Sub_G(x) is
    asserted."""
    key = ("subnormalizer", x.images)
    if key in G._cache:
        return G._cache[key]
    subnormalizer_set(G, x)
    # The members are held by G only until Sub_G(x) is taken.
    _, sub = G._cache.pop(("subnormalizer_set", x.images))
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
    check_order_bound(P, ENUM_BOUND, "enumeration")
    p_elements = list(P.chain.iter_elements())
    sylow_sets = [frozenset(map(_conjugator(g.images), p_elements)) for g in data.transversal]
    # Q is needed iff some element of Q lies in no other Sylow subgroup.
    containing = Counter(t for Q in sylow_sets for t in Q)
    all_needed = all(any(containing[t] == 1 for t in Q) for Q in sylow_sets)
    picky_exists = any(
        picky_report(G, p, x).is_picky
        for x in p_element_class_representatives(G, p, include_identity=True)
    )
    if all_needed != picky_exists:
        raise EngineDefect("covering criterion disagrees with picky existence")
    return CoveringAnalysis(all_sylows_needed=all_needed, picky_exists=picky_exists)


# ----------------------------------------------------------------------
# Longest subgroup chains.

def chain_length(G: PermGroup, N: PermGroup) -> int:
    """Maximal length t of a strictly increasing subgroup chain
    N = H_0 < H_1 < ... < H_t = G.

    For H < G, longest(H) = 1 + max longest(<H, g>) over g outside H.  Each
    <H, g> starts a chain from H, so the right side is at most longest(H);
    the first step H_1 of a longest chain contains some <H, g>, whose
    longest chain is at least as long as that of H_1, so the right side is
    at least longest(H).  This agrees with the recursion over minimal
    overgroups, and visits the same subgroups: every subgroup between N and
    G is reached by minimal steps, and every <H, g> lies between N and G.

    G is walked once, at N, and streamed from its chain: every g outside N
    is a candidate, and the distinct <N, g> are N's families, each kept
    with the g that built it.  Below N the families give the joins: for
    H <= K and g outside K, F = <H, g> is a family of H with its element
    g_F, and <K, g> = <K, H, g> = <K, F> = <K, g_F>, where g_F lies outside
    K since g lies in F.  So a K reached from H has as overgroups the
    distinct <K, g_F> with g_F outside K, one candidate per family of H.

    Among the candidates of K, one g is built per double coset K g K, and
    with it every K g^k K for k prime to the order of g is marked: for
    h, h' in K, <K, h g^k h'> = <K, g^k> = <K, g>, since g^k and g are
    powers of each other.  K's double cosets are marked at N, where every
    element of G is a candidate, and below it only when |K|^2 < |G|.
    Marking lists K's elements and prebuilds one map per element, which
    pays while K is small beside G and saves builds; a large K has few
    candidates (three for each K of order 720, 240 or 144 reached from
    S7's Sylow 2-normalizer), and one sift each is cheaper than listing K.
    So each candidate inside a large K is skipped by a sift and every other
    one is built.  A double coset K a K is the union of the right cosets
    K a h, h in K, and every h is a product of K's generators, so the walk
    from K a by right multiplication with the generators reaches all of
    them.  Each right coset K b is filled by
    calling one prebuilt ``itemgetter(*h)`` per h in K on b, since
    ``itemgetter(*h)(b)`` is h b: every product is one C call, with no
    per-point Python loop.

    Most <K, g> are G itself, so each is built with ``stop_at = |G|`` (see
    ``_Chain.insert``) and ends as soon as it reaches that order.  Subgroups
    are told apart by order and orbits on the points (``_subgroup_key``),
    then by containment (``find_same_subgroup``) among the subgroups with
    the same key; only subgroups whose double cosets are marked are
    enumerated.  Nothing is kept on G.
    """
    check_order_bound(G, CHAIN_LENGTH_BOUND, "chain-length")
    check_order_bound(G, ENUM_BOUND, "enumeration")
    if not N.is_subgroup_of(G):
        raise InvalidArgument("N is not a subgroup of G")
    memo: dict[tuple, list[tuple[PermGroup, int]]] = {}  # key -> (K, longest(K))
    return _longest(N, _subgroup_key(N), G.order, G.chain.iter_elements(), True, memo)


def _subgroup_key(K: PermGroup) -> tuple:
    """K's order and its orbits on the points, each point labelled by the
    least point of its orbit.  Equal subgroups have equal keys."""
    maps = [s.images.__getitem__ for s in K.generators]
    label = [-1] * K.degree
    for i in range(K.degree):
        if label[i] < 0:
            for b in _orbit(maps, i):
                label[b] = i
    return K.order, tuple(label)


def _longest(H: PermGroup, key: tuple, group_order: int, candidates, mark: bool, memo) -> int:
    """longest(H) in the group of order ``group_order``; ``key`` is H's
    ``_subgroup_key``, ``candidates`` one element of each overgroup family
    of the subgroup H was reached from (every element of G at the root),
    ``mark`` whether H's double cosets are marked, and ``memo`` is shared
    by one ``chain_length`` call."""
    if H.order == group_order:
        return 0
    same_key = memo.setdefault(key, [])
    entry = find_same_subgroup(H, same_key, itemgetter(0))
    if entry is None:
        found = _overgroups(H, candidates, group_order, mark)
        if not found:
            raise EngineDefect("no overgroup found for a proper subgroup")
        joins = [g for g, _, _ in found]
        entry = (H, 1 + max(
            _longest(K, k, group_order, joins, K.order ** 2 < group_order, memo)
            for _, k, K in found
        ))
        same_key.append(entry)
    return entry[1]


def _overgroups(H: PermGroup, candidates, group_order: int, mark: bool) -> list[tuple]:
    """(g, key, <H, g>) for each distinct <H, g> with g among
    ``candidates`` and outside H, with the first such g.  With ``mark`` one
    g is built per double coset H g H and its coprime powers, and the
    cosets are freed before the recursion goes deeper; without, each
    candidate inside H is skipped by a sift."""
    if mark:
        candidates = _unmarked(H, candidates)
    else:
        inside = H.chain.contains
        candidates = [g for g in candidates if not inside(g)]
    by_key: dict[tuple, list[tuple]] = {}
    for g in candidates:
        K = extended_group(H, [g], group_order)
        same_key = by_key.setdefault(_subgroup_key(K), [])
        if find_same_subgroup(K, same_key, itemgetter(1)) is None:
            same_key.append((g, K))
    return [(g, key, K) for key, same_key in by_key.items() for g, K in same_key]


def _unmarked(H: PermGroup, candidates):
    """Each candidate outside H and outside the double cosets H g^k H
    already marked, each marked (with its coprime powers) as it is
    yielded."""
    h_elements = list(H.chain.iter_elements())
    seen = set(h_elements)
    # b -> h b; the degree is at least 2 (H < G), so each getter returns a tuple.
    left = [itemgetter(*h) for h in h_elements]
    right = [s.images for s in H.generators]
    for g in candidates:
        if g in seen:
            continue
        for gk in _cyclic_generators(g):
            if gk not in seen:  # seen is a union of double cosets
                _mark_double_coset(gk, left, right, seen)
        yield g


def _mark_double_coset(a: tuple[int, ...], left, right, seen: set) -> None:
    """Add H a H to ``seen``, one right coset H b at a time (``left`` maps b
    to h b for each h in H; ``right`` holds H's generators)."""
    seen.update([f(a) for f in left])
    cosets = [a]
    for b in cosets:
        for s in right:
            c = _mul(b, s)
            if c not in seen:
                seen.update([f(c) for f in left])
                cosets.append(c)


def _cyclic_generators(gt: tuple[int, ...]) -> list[tuple[int, ...]]:
    """g^k for every k prime to the order of g: the generators of <g>."""
    powers = [gt]
    while not _is_identity(powers[-1]):
        powers.append(_mul(powers[-1], gt))
    n = len(powers)
    return [t for k, t in enumerate(powers, 1) if gcd(k, n) == 1]
