"""Subnormality, subnormalizers, picky elements, covering, chain lengths.

The brute-force oracles here work purely with element sets (saturation
closures), never with stabilizer chains, so they are independent of the
engine they check.  Three further oracles reuse engine parts on purpose:
the descending closure series builds its closures with the engine's
``normal_closure_chain`` but decides by the definition, not by the
per-prime rule; the double-coset scan calls the engine's subnormality
test, so it checks only the coset filter and orbit reduction of the scan;
and the Wielandt check takes O_p from the engine's Sylow data, which is
independent of the closure series."""

import gc
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickylab import permgroup, subnorm
from pickylab.cli import load_catalog
from pickylab.errors import InvalidArgument, ScaleExceeded
from pickylab.exactnum import p_adic_valuation, prime_factors
from pickylab.permgroup import (
    Perm,
    PermGroup,
    _Chain,
    _mul,
    conjugacy_classes,
    extended_group,
    named_group,
    normal_closure_chain,
    normalizer,
    parse_perm,
    sylow_data,
)
from pickylab.subnorm import (
    _subnormal_in_generated,
    chain_length,
    covering_analysis,
    p_element_class_representatives,
    picky_class_representatives,
    picky_report,
    subnormalizer_set,
    subnormalizer_subgroup,
)

# ----------------------------------------------------------------------
# Set-based oracles.

def set_closure(seed, degree):
    """Subgroup generated by the seed tuples, as a set of image tuples."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    seed = list(seed)
    while frontier:
        nxt = []
        for e in frontier:
            for g in seed:
                prod = tuple(g[i] for i in e)
                if prod not in elems:
                    elems.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(elems)


def set_normal_closure(group_set, seeds, degree):
    """Normal closure of <seeds> inside the subgroup given as a set: the
    subgroup generated by the conjugates s^k of the seeds, k in the set."""
    conjugates = set()
    for s in seeds:
        for k in group_set:
            c = [0] * degree
            for i in range(degree):
                c[k[i]] = k[s[i]]
            conjugates.add(tuple(c))
    return set_closure(conjugates, degree)


def brute_is_subnormal(h_seed, k_set, degree):
    """Descending normal-closure series computed with raw element sets."""
    h_set = set_closure(h_seed, degree)
    cur = k_set
    while True:
        nxt = set_normal_closure(cur, h_seed, degree)
        if nxt == h_set:
            return True
        if nxt == cur:
            return False
        cur = nxt


def descending_series(seed_tuples, seed_order, group_gens, degree):
    """<seeds> subnormal in <group_gens>, by the descending closure series:
    the definition, for seeds of any order."""
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


def series_is_subnormal(H, K):
    """H subnormal in K, for H a subgroup of K, by the descending series."""
    return descending_series(
        [g.images for g in H.generators] or [tuple(range(K.degree))],
        H.order,
        [g.images for g in K.generators],
        K.degree,
    )


def brute_subnormalizer_set(G, x):
    degree = G.degree
    out = []
    for g in G.elements():
        k_set = set_closure({x.images, g.images}, degree)
        if brute_is_subnormal({x.images}, k_set, degree):
            out.append(g)
    return out


def double_coset_subnormalizer_set(G, x):
    """The scan before orbit reduction: one subnormality test per double
    coset <x> g <x>, every element reported in ``G.elements()`` order."""
    x_order = x.order()
    powers = [(x**k).images for k in range(x_order)]
    powers_set = frozenset(powers)
    decided = {}
    members = []
    for g in G.elements():
        gt = g.images
        if gt not in decided:
            verdict = _subnormal_in_generated(x, powers_set, x_order, g, G.order)
            for a in powers:
                ag = _mul(a, gt)
                for b in powers:
                    decided[_mul(ag, b)] = verdict
        if decided[gt]:
            members.append(g)
    return members


def brute_normalizer(G, x):
    """N_G(<x>), found element by element."""
    powers = {(x**k).images for k in range(x.order())}
    return [n for n in G.elements() if x.conj(n).images in powers]


def sylow_part(x, q):
    """x_q = x^k with k the q'-part of o(x)."""
    m = x.order()
    k = m
    while k % q == 0:
        k //= q
    return x**k


def is_q_group_generated(seed, degree, q):
    """Whether the set closure of the seed tuples has q-power order."""
    return prime_factors(len(set_closure(seed, degree))) in ((), (q,))


def brute_test_count(G, x, norm):
    """The subnormality tests the scan makes, counted from element sets.
    Per pair {D, D^-1} of double cosets D = N g N of N = ``norm``: the
    primes q of o(x) in ascending order, up to and including the first for
    which <x_q, x_q^g> is not a q-group (the verdict is the same at g^-1,
    where the pair is conjugate); and for a pair that passes, one test per
    orbit on D of t -> x t and conjugation by N.  Each such orbit meets
    the right coset N g in one orbit of t -> x t and conjugation by
    N ∩ N^g, the maps the scan walks N g with.  Inversion carries these
    orbits on D onto those on D^-1 (t x = x t^x, with x in N), so the
    count does not depend on which of D and D^-1 the scan walks.  Also
    returns the number of passing pairs with D != D^-1."""
    maps = [lambda t: x * t] + [lambda t, n=n: t.conj(n) for n in norm]
    seen, tests, two_sided = set(), 0, 0
    for g in G.elements():
        if g in seen:
            continue
        double_coset = {n * g * m for n in norm for m in norm}
        inverses = {t.inverse() for t in double_coset}
        seen |= double_coset | inverses
        for q in prime_factors(x.order()):
            tests += 1
            xq = sylow_part(x, q)
            if not is_q_group_generated({xq.images, xq.conj(g).images}, G.degree, q):
                break
        else:
            two_sided += inverses != double_coset
            walked = set()
            for t in double_coset:
                if t in walked:
                    continue
                tests += 1
                walked.add(t)
                stack = [t]
                while stack:
                    u = stack.pop()
                    for f in maps:
                        v = f(u)
                        if v not in walked:
                            walked.add(v)
                            stack.append(v)
    return tests, two_sided


def reference_generated_by(perms, degree):
    """The group generated by the Perms, each inserted in turn with no
    known order: the reference build of Sub_G(x), whose generators are the
    Perms that enlarged the chain."""
    ch = _Chain(degree)
    return PermGroup._from_chain(ch, [g for g in perms if ch.insert(g.images)])


def in_o_p(H, p, x):
    """x in O_p(H), computed as the intersection of the Sylow p-subgroups."""
    data = sylow_data(H, p)
    P = data.subgroup.elements()
    core = {s.images for s in P}
    for t in data.transversal:
        core &= {s.conj(t).images for s in P}
    return x.images in core


@pytest.fixture(scope="module")
def oracle_groups():
    """The small catalog plus S5 and S6, by source."""
    groups = {entry.source: entry.build() for entry in load_catalog("small")}
    for source in ("S:5", "S:6"):
        groups.setdefault(source, named_group(source))
    return groups


# ----------------------------------------------------------------------


class TestIsSubnormal:
    """The descending-series oracle against the set-based one, and, for
    cyclic subgroups, the engine's per-prime rule against both."""

    def test_normal_subgroup(self):
        A4 = named_group("A:4")
        V = PermGroup([parse_perm("(1,2)(3,4)", 4), parse_perm("(1,3)(2,4)", 4)])
        assert series_is_subnormal(V, A4)

    def test_two_step_chain(self):
        A4 = named_group("A:4")
        H = PermGroup([parse_perm("(1,2)(3,4)", 4)])
        assert series_is_subnormal(H, A4)  # <x> normal in V normal in A4

    def test_not_subnormal(self):
        S3 = named_group("S:3")
        H = PermGroup([parse_perm("(1,2)", 3)])
        assert not series_is_subnormal(H, S3)

    def test_equal_groups(self):
        S3 = named_group("S:3")
        assert series_is_subnormal(S3, S3)

    def test_trivial_subgroup(self):
        assert series_is_subnormal(PermGroup([], 4), named_group("S:4"))

    def test_against_brute_force(self):
        for xs, gs, degree in [
            ("(1,2)", "(3,4)", 4), ("(1,2)", "(1,3)", 4), ("(1,2)(3,4)", "(1,2,3)", 4),
            ("(1,2,3,4)", "(1,3)", 4), ("(1,2,3)", "(1,2)", 4),
            # Mixed orders.  <x, g> = C2 x S3: both parts subnormal.
            ("(1,2)(3,4,5)", "(3,4)", 5),
            # C2 x A4: the 2-part is central, the 3-part is not subnormal.
            ("(1,2)(3,4,5)", "(3,4)(5,6)", 6),
            # S3 x C3: the 3-part is central, the 2-part is not subnormal.
            ("(1,2)(4,5,6)", "(1,3)", 6),
        ]:
            x = parse_perm(xs, degree)
            g = parse_perm(gs, degree)
            K = PermGroup([x, g])
            expected = brute_is_subnormal(
                {x.images}, set_closure({x.images, g.images}, degree), degree
            )
            assert series_is_subnormal(PermGroup([x]), K) == expected
            powers = frozenset((x**k).images for k in range(x.order()))
            verdict = _subnormal_in_generated(x, powers, x.order(), g, factorial(degree))
            assert verdict == expected, (xs, gs)

    def test_subgroups_that_are_not_p_groups(self):
        cases = [
            # C2 x C3 < V x C3 < A4 x C3: subnormal in two steps.
            ("(1,2)(3,4) (5,6,7)", "(1,2)(3,4) (1,2,3) (5,6,7)", 7, True),
            # S3 in S4: its normal closure is S4.
            ("(1,2,3) (1,2)", "(1,2,3,4) (1,2)", 4, False),
            # C2 x C3 in S5: its normal closure is S5.
            ("(1,2) (3,4,5)", "(1,2,3,4,5) (1,2)", 5, False),
            # S3 x 1, normal in S3 x S3 on two blocks of three points.
            ("(1,2,3) (1,2)", "(1,2,3) (1,2) (4,5,6) (4,5)", 6, True),
        ]
        for h_gens, k_gens, degree, expected in cases:
            H = PermGroup([parse_perm(t, degree) for t in h_gens.split()], degree)
            K = PermGroup([parse_perm(t, degree) for t in k_gens.split()], degree)
            assert len(prime_factors(H.order)) > 1
            k_set = frozenset(g.images for g in K.elements())
            assert brute_is_subnormal({g.images for g in H.generators}, k_set, degree) == expected
            assert series_is_subnormal(H, K) == expected, h_gens


class TestSubnormalizerSet:
    def test_central_element(self):
        Q8 = named_group("Q:8")
        z = next(g for g in Q8.elements() if g.order() == 2)
        assert len(subnormalizer_set(Q8, z)) == 8

    def test_s4_examples(self):
        S4 = named_group("S:4")
        four = subnormalizer_set(S4, parse_perm("(1,2,3,4)", 4))
        sub = subnormalizer_subgroup(S4, parse_perm("(1,2,3,4)", 4))
        assert sub.order == 8
        assert all(Perm(g.images) in sub for g in four)
        assert subnormalizer_subgroup(S4, parse_perm("(1,2)(3,4)", 4)).order == 24

    def test_exact_sets_against_brute_force(self):
        for name, elements in [
            ("S:4", ["(1,2)", "(1,2,3,4)", "(1,2)(3,4)", "(1,2,3)"]),
            ("A:4", ["(1,2)(3,4)", "(1,2,3)"]),
            # (1,2,3,4,5,6) and (1,2)(3,4,5) have mixed order: their orbit
            # tests build one closure per prime.
            ("D:12", ["(1,4)(2,5)(3,6)", "(1,3,5)(2,4,6)", "(1,2,3,4,5,6)"]),
            ("S:5", ["(1,2)(3,4,5)"]),
        ]:
            G = named_group(name)
            for xs in elements:
                x = parse_perm(xs, G.degree)
                got = {g.images for g in subnormalizer_set(G, x)}
                want = {g.images for g in brute_subnormalizer_set(G, x)}
                assert got == want, (name, xs)

    def test_subgroup_leaves_no_element_list_on_g(self, no_sorted_elements):
        """The scan walks cosets of N_G(<x>), not G.elements(), and the
        member list is dropped once Sub_G(x) is built."""
        G = named_group("S:7")
        with no_sorted_elements():
            sub = subnormalizer_subgroup(G, parse_perm("(6,7)", 7))
        assert sub.order == G.order
        assert [k for k in G._cache if k[0] == "subnormalizer_set"] == []

    def test_centralizer_contained(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            if G.order > 72:
                continue
            for c in conjugacy_classes(G)[:5]:
                x = c.representative
                if x.is_identity():
                    continue
                sset = {g.images for g in subnormalizer_set(G, x)}
                for g in G.elements():
                    if (g * x).images == (x * g).images:
                        assert g.images in sset

    def test_identity_gets_everything(self):
        S4 = named_group("S:4")
        assert len(subnormalizer_set(S4, Perm.identity(4))) == 24

    def test_scale_bound(self):
        # S8 (order 40320) is refused from a chain stopped past the bound.
        G = named_group("S:8")
        with pytest.raises(ScaleExceeded, match="subnormalizer bound 10000"):
            subnormalizer_set(G, parse_perm("(1,2)", 8))
        assert G._chain is None

    def test_scale_bound_before_the_chain(self):
        G = named_group("S:150")
        with pytest.raises(ScaleExceeded, match="subnormalizer bound"):
            subnormalizer_set(G, parse_perm("(1,2)", 150))
        assert G._chain is None

    def test_conjugation_equivariance(self):
        S4 = named_group("S:4")
        x = parse_perm("(1,2)", 4)
        g = parse_perm("(1,3,2,4)", 4)
        sub_x = subnormalizer_subgroup(S4, x)
        sub_xg = subnormalizer_subgroup(S4, x.conj(g))
        assert sub_x.conjugate_subgroup(g).same_group(sub_xg)


class TestOrbitScanOracle:
    """The scan over the kept cosets of N_G(<x>), orbit-reduced, against
    the double-coset scan over all of G: same members, in the same order."""

    def test_every_class_representative(self, oracle_groups):
        for source, G in oracle_groups.items():
            for c in conjugacy_classes(G):
                x = c.representative
                got = [g.images for g in subnormalizer_set(G, x)]
                want = [g.images for g in double_coset_subnormalizer_set(G, x)]
                assert got == want, (source, x.cycle_string())

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_two_generated_subgroups_of_sn(self, images, data):
        a, b = images
        G = PermGroup([a, b], len(a))
        # Skip the identity (elements()[0]) where possible: the draw favours
        # the first element, and the class-representative test covers it.
        x = data.draw(st.sampled_from(G.elements()[1:] or G.elements()))
        got = [g.images for g in subnormalizer_set(G, x)]
        assert got == [g.images for g in double_coset_subnormalizer_set(G, x)]

    def test_one_subnormality_test_per_orbit(self, monkeypatch):
        """Exactly one test per (pair {D, D^-1} of double cosets D = N u N
        of N = N_G(<x>), prime of o(x)) the filter reaches, plus one per
        orbit that a kept pair's right coset N u holds; both counts come
        from element sets, not from the engine (see ``brute_test_count``).
        Kept pairs with D != D^-1 occur, so a scan that walked D^-1 on its
        own would make more tests."""
        calls = []

        def counting(*args):
            calls.append(args)
            return _subnormal_in_generated(*args)

        monkeypatch.setattr(subnorm, "_subnormal_in_generated", counting)
        prime_counts = set()
        two_sided = 0
        for entry in load_catalog("small"):
            G = entry.build()
            if G.order > 120:
                continue
            for c in conjugacy_classes(G):
                x = c.representative
                calls.clear()
                subnormalizer_set(G, x)
                want, pairs = brute_test_count(G, x, brute_normalizer(G, x))
                assert len(calls) == want, (entry.label, x.cycle_string())
                prime_counts.add(len(prime_factors(x.order())))
                two_sided += pairs
        assert prime_counts == {0, 1, 2}
        assert two_sided > 0

    def test_subnormality_test_totals(self, monkeypatch):
        # A tripwire on the scan's work: the tests made by the scans of
        # every nonidentity p-element class representative, as
        # `pickylab picky` makes them, per prime.  With one filter test per
        # double coset N u N, not per pair {D, D^-1}, and one test per
        # orbit of x-multiplication, inversion and conjugation by N over
        # all of D, S7 made 131, 36, 13 and 11, A7 80, 31, 12 and 24, and
        # S4 wr C2 361 and 31.  With one filter test per coset N u and <x>
        # keyed by all its powers, S7 made 719, 197, 132 and 124, A7 442,
        # 186, 129 and 244, and S4 wr C2 623 and 62.
        calls = []

        def counting(*args):
            calls.append(args)
            return _subnormal_in_generated(*args)

        monkeypatch.setattr(subnorm, "_subnormal_in_generated", counting)
        totals = {}
        for source in ("S:7", "A:7", "wr:S:4~C:2"):
            G = named_group(source)
            for p in prime_factors(G.order):
                calls.clear()
                for x in p_element_class_representatives(G, p):
                    subnormalizer_set(G, x)
                totals[source, p] = len(calls)
        assert totals == {
            ("S:7", 2): 120, ("S:7", 3): 36, ("S:7", 5): 15, ("S:7", 7): 13,
            ("A:7", 2): 63, ("A:7", 3): 31, ("A:7", 5): 12, ("A:7", 7): 22,
            ("wr:S:4~C:2", 2): 356, ("wr:S:4~C:2", 3): 31,
        }

    @pytest.mark.parametrize("cycles", ["(1,2)(3,4,5)", "(1,2,3,4,5,6)", "(1,2)(3,4)(5,6)"])
    def test_elements_that_are_not_class_representatives(self, cycles):
        G = named_group("S:6")
        x = parse_perm(cycles, 6)
        got = [g.images for g in subnormalizer_set(G, x)]
        assert got == [g.images for g in double_coset_subnormalizer_set(G, x)]

    def test_members_pass_the_coset_filter(self, oracle_groups):
        """For every member g and prime q of o(x), <x_q, x_q^g> is a
        q-group: the condition the scan's coset filter relies on.  The
        identity has no primes, and all of G is its set."""
        prime_counts = set()
        for source, G in oracle_groups.items():
            for c in conjugacy_classes(G):
                x = c.representative
                prime_counts.add(len(prime_factors(x.order())))
                if x.is_identity():
                    assert len(subnormalizer_set(G, x)) == G.order
                for q in prime_factors(x.order()):
                    xq = sylow_part(x, q)
                    verdicts = {}
                    for g in subnormalizer_set(G, x):
                        conj = xq.conj(g).images
                        if conj not in verdicts:
                            verdicts[conj] = is_q_group_generated(
                                {xq.images, conj}, G.degree, q
                            )
                        assert verdicts[conj], (source, x.cycle_string(), g.cycle_string())
        assert prime_counts == {0, 1, 2}

    def test_returns_a_fresh_list(self):
        S4 = named_group("S:4")
        x = parse_perm("(1,2)", 4)
        first = subnormalizer_set(S4, x)
        first.clear()
        assert subnormalizer_set(S4, x) == double_coset_subnormalizer_set(S4, x)


def series_subnormalizer_set(G, x):
    """Every g with <x> subnormal in <x, g> by the descending closure
    series alone: no quick accept, commutator check or per-prime closure."""
    xt = x.images
    return [
        g for g in G.elements() if descending_series([xt], x.order(), [xt, g.images], G.degree)
    ]


class TestClosureCriterion:
    """The per-prime rule, one normal closure of <x_q> in <x, g> per prime q
    of o(x), each stopped past |G|_q, against the descending closure
    series."""

    def test_every_nonidentity_class_representative(self, oracle_groups):
        verdicts = set()
        prime_counts = set()
        for source, G in oracle_groups.items():
            for c in conjugacy_classes(G)[1:]:
                x = c.representative
                powers = frozenset((x**k).images for k in range(x.order()))
                got = [
                    g for g in G.elements()
                    if _subnormal_in_generated(x, powers, x.order(), g, G.order)
                ]
                want = series_subnormalizer_set(G, x)
                assert got == want, (source, x.cycle_string())
                verdicts.add(len(got) == G.order)
                prime_counts.add(len(prime_factors(x.order())))
        assert verdicts == {True, False}
        assert prime_counts == {1, 2}

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_two_generated_subgroups_of_sn(self, images, data):
        a, b = images
        G = PermGroup([a, b], len(a))
        p_elements = [g for g in G.elements() if len(prime_factors(g.order())) == 1]
        if not p_elements:
            return  # G is trivial
        x = data.draw(st.sampled_from(p_elements))
        got = [g.images for g in subnormalizer_set(G, x)]
        assert got == [g.images for g in series_subnormalizer_set(G, x)]


class TestWielandtCriterion:
    """An independent path for p-elements: <x> is subnormal in H = <x, g>
    iff x lies in O_p(H) (Wielandt)."""

    @pytest.mark.parametrize("source", ["S:4", "A:5", "D:12", "wr:S:3~C:2"])
    def test_agrees_with_closure_series(self, source):
        G = named_group(source)
        verdicts = set()
        for p in prime_factors(G.order):
            for x in p_element_class_representatives(G, p):
                powers = frozenset((x**k).images for k in range(x.order()))
                for g in G.elements():
                    verdict = _subnormal_in_generated(x, powers, x.order(), g, G.order)
                    H = PermGroup([x, g], G.degree)
                    assert verdict == in_o_p(H, p, x), (x.cycle_string(), g.cycle_string())
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestSubnormalizerSubgroup:
    def test_known_order_build_against_the_full_walk(self):
        # Every class representative of every full-catalog group, S7, A7
        # and S4 wr C2 among them.  Sub_G(x) is the scan's own chain, N_G(<x>)
        # grown by one accepted member per orbit; it is the group that
        # every member generates, built with no known order: equal order
        # and mutual containment.  Its generators are not those of the
        # walk over the sorted members; `pickylab subnormalizer` prints
        # those, pinned in tests/test_cli.py.
        groups = {entry.label: entry.build() for entry in load_catalog("full")}
        assert {"S7", "A7", "S4wrC2"} <= set(groups)
        for label, G in groups.items():
            for c in conjugacy_classes(G):
                x = c.representative
                want = reference_generated_by(subnormalizer_set(G, x), G.degree)
                got = subnormalizer_subgroup(G, x)
                assert got.order == want.order, (label, x.cycle_string())
                assert got.is_subgroup_of(want), (label, x.cycle_string())
                assert want.is_subgroup_of(got), (label, x.cycle_string())


class TestPicky:
    def test_s4_reports(self):
        S4 = named_group("S:4")
        r = picky_report(S4, 2, parse_perm("(1,2,3,4)", 4))
        assert r.is_picky and r.sylow_count == 1
        assert r.sub_group.order == 8 and r.normalizer.order == 8
        r2 = picky_report(S4, 2, parse_perm("(1,2)(3,4)", 4))
        assert not r2.is_picky and r2.sylow_count == 3
        assert r2.sub_group.order == 24

    def test_normal_sylow_everything_picky(self):
        Q8 = named_group("Q:8")
        for x in p_element_class_representatives(Q8, 2):
            assert picky_report(Q8, 2, x).is_picky

    def test_rejects_non_p_elements(self):
        with pytest.raises(InvalidArgument):
            picky_report(named_group("S:4"), 2, parse_perm("(1,2,3)", 4))

    def test_lemma_58_sweep(self, small_catalog_groups):
        # N_G(P) <= Sub_G(x) always; equality exactly for picky x.
        # Both directions are asserted inside picky_report.
        for label, (G, primes) in small_catalog_groups.items():
            for p in primes:
                for x in p_element_class_representatives(G, p):
                    picky_report(G, p, x)

    def test_picky_class_representatives(self):
        S4 = named_group("S:4")
        picky = {x.cycle_string() for x in picky_class_representatives(S4, 2)}
        assert picky == {"(3,4)", "(1,2,3,4)"}


class TestCovering:
    def test_s4(self):
        r = covering_analysis(named_group("S:4"), 2)
        assert r.all_sylows_needed and r.picky_exists
        r3 = covering_analysis(named_group("S:4"), 3)
        assert r3.all_sylows_needed and r3.picky_exists

    def test_normal_sylow(self):
        r = covering_analysis(named_group("Q:8"), 2)
        assert r.all_sylows_needed and r.picky_exists

    def test_lemma_51_sweep(self, small_catalog_groups):
        # the equivalence is asserted inside covering_analysis
        for label, (G, primes) in small_catalog_groups.items():
            for p in primes:
                covering_analysis(G, p)


def frozenset_chain_length(G, N):
    """chain_length as it was before subgroups were told apart by order and
    containment: memo keys are element sets, and one g is taken per right
    coset Hg, with no power cosets marked."""
    g_elements = G.elements()

    def key_of(K):
        # The element set; None for G itself, where every chain ends.
        return None if K.order == G.order else frozenset(K.chain.iter_elements())

    memo = {None: 0}

    def longest(H, key):
        if key not in memo:
            found = {}
            seen_cosets = set(key)
            for g in g_elements:
                gt = g.images
                if gt in seen_cosets:
                    continue
                seen_cosets.update(_mul(h, gt) for h in key)
                K = extended_group(H, [g], G.order)
                found.setdefault(key_of(K), K)
            memo[key] = 1 + max(longest(K, k) for k, K in found.items())
        return memo[key]

    return longest(N, key_of(N))


def double_coset_cover_count(G, H, candidates):
    """The number of overgroups chain_length builds while marking the
    double cosets of H < G, by plain sets: the candidates (image tuples)
    are walked in the given order, and each one not yet covered counts once
    and covers h g^k h' for all h, h' in H and k prime to o(g).  The
    relation g ~ h g^k h' is not transitive (h g^k h' need not have g among
    its own covered elements), so this is a greedy cover in the scan's
    order, not a count of the classes of its closure."""

    def compose(p, q):
        return tuple(q[i] for i in p)

    h_set = set_closure([s.images for s in H.generators], G.degree)
    covered = set(h_set)
    count = 0
    for g in candidates:
        if g in covered:
            continue
        count += 1
        powers = [g]
        while powers[-1] != tuple(range(G.degree)):
            powers.append(compose(powers[-1], g))
        for k, gk in enumerate(powers, 1):
            if gcd(k, len(powers)) == 1:
                for h in h_set:
                    hg = compose(h, gk)
                    covered.update(compose(hg, h2) for h2 in h_set)
    return count


class TestChainLength:
    def brute_all_subgroups(self, G):
        """Every subgroup of G, generated from pairs of elements plus a
        saturation pass (sufficient for |G| <= 24)."""
        elems = [g.images for g in G.elements()]
        subs = {frozenset({tuple(range(G.degree))})}
        for a in elems:
            for b in elems:
                subs.add(set_closure({a, b}, G.degree))
        # close under join until stable
        while True:
            new = set(subs)
            for s in subs:
                for t in subs:
                    if not (s <= t or t <= s):
                        new.add(set_closure(set(s) | set(t), G.degree))
            if new == subs:
                return subs
            subs = new

    def test_fixed_examples(self):
        S4 = named_group("S:4")
        D8 = PermGroup([parse_perm("(1,2,3,4)"), parse_perm("(1,3)", 4)])
        assert chain_length(S4, D8) == 1  # maximal
        assert chain_length(S4, S4) == 0
        S3 = PermGroup([parse_perm("(1,2)", 4), parse_perm("(1,2,3)", 4)])
        assert chain_length(S4, S3) == 1  # also maximal

    def test_against_lattice_oracle(self):
        # Every subgroup as N, against the recursion over minimal overgroups.
        for source, count in [("S:4", 30), ("A:4", 10), ("D:12", 16)]:
            G = named_group(source)
            subs = self.brute_all_subgroups(G)
            assert len(subs) == count, source

            def longest_from(s):
                overs = [t for t in subs if s < t]
                if not overs:
                    return 0
                return max(
                    1 + longest_from(t)
                    for t in overs
                    if not any(s < u < t for u in subs)
                )

            for s in subs:
                N = PermGroup([Perm(t) for t in s], G.degree)
                want = longest_from(s)
                assert chain_length(G, N) == want, (source, sorted(s))
                assert frozenset_chain_length(G, N) == want, (source, sorted(s))

    @pytest.mark.parametrize("source", ["S:5", "A:6", "wr:S:3~C:2"])
    def test_sylow_subgroups_and_normalizers_against_element_set_keys(self, source):
        G = named_group(source)
        for p in prime_factors(G.order):
            data = sylow_data(G, p)
            for N in (data.normalizer, data.subgroup):
                assert chain_length(G, N) == frozenset_chain_length(G, N), (source, p, N)

    @staticmethod
    def recorded_scans(monkeypatch):
        """One (H, mark, candidates, built) per overgroup scan of a subgroup
        H, in call order: whether H's double cosets are marked, the
        candidates as a list, and the element of each build from H."""
        scans = []
        scan = subnorm._overgroups

        def recording_scan(H, candidates, group_order, mark):
            candidates = list(candidates)
            scans.append((H, mark, candidates, []))
            return scan(H, candidates, group_order, mark)

        def recording_build(base, extra, stop_at=None):
            H, _, _, built = scans[-1]
            assert base is H
            built.extend(extra)
            return permgroup.extended_group(base, extra, stop_at)

        monkeypatch.setattr(subnorm, "_overgroups", recording_scan)
        monkeypatch.setattr(subnorm, "extended_group", recording_build)
        return scans

    def test_power_cosets_are_not_scanned(self, monkeypatch):
        # <H, h g^k h'> = <H, g> for h, h' in H and k prime to the order of
        # g, so one build covers every such double coset H g^k H.  For S7
        # at p = 2, N_G(P) of order 16 is scanned over all of S7 with 20
        # builds (in the chain's walk order) and has 7 families; below it
        # the overgroups of orders 48, 720, 144, 240, 48 and 48 take their
        # parent's families as candidates, with 5, 3, 3, 3, 4 and 3 builds
        # (the three of order 48 mark their double cosets, 48^2 < 5040;
        # the others sift), so 20 + 5 + 3 + 3 + 3 + 4 + 3 = 41 builds.  Each
        # count is the one the next test checks.  Scanning every subgroup
        # over all of S7 in sorted order made 52, one build per family of
        # right cosets H g^k 503, and one per right coset Hg 686.
        scans = self.recorded_scans(monkeypatch)
        G = named_group("S:7")
        assert chain_length(G, sylow_data(G, 2).normalizer) == 3
        assert [(H.order, mark, len(built)) for H, mark, _, built in scans] == [
            (16, True, 20), (48, True, 5), (720, False, 3), (144, False, 3),
            (240, False, 3), (48, True, 4), (48, True, 3),
        ]
        assert sum(len(built) for *_, built in scans) == 41

    @pytest.mark.parametrize("source", ["S:5", "A:6", "wr:S:3~C:2"])
    def test_builds_match_the_double_coset_cover(self, monkeypatch, source):
        # S5 from the trivial group (155 subgroups scanned), the others from
        # each Sylow normalizer.  The root N of each call is scanned over
        # G in the chain's walk order and marks its double cosets; each
        # deeper K takes one candidate per family of the subgroup it was
        # reached from, builds at most once per candidate outside K, and
        # marks exactly when |K|^2 < |G|.
        scans = self.recorded_scans(monkeypatch)
        G = named_group(source)
        if source == "S:5":
            starts = [PermGroup([], 5)]
        else:
            starts = [sylow_data(G, p).normalizer for p in prime_factors(G.order)]
        roots = []
        for N in starts:
            roots.append(len(scans))
            chain_length(G, N)
        walk = list(G.chain.iter_elements())
        assert scans
        for i, (H, mark, candidates, built) in enumerate(scans):
            if i in roots:
                assert mark and candidates == walk, (source, H)
            else:
                assert mark == (H.order ** 2 < G.order), (source, H)
                inside = set_closure([s.images for s in H.generators], G.degree)
                outside = [g for g in candidates if g not in inside]
                assert len(set(built)) == len(built) and set(built) <= set(outside)
                if not mark:
                    assert built == outside, (source, H)
            if mark:
                assert len(built) == double_coset_cover_count(G, H, candidates), (source, H)
        if source == "S:5":
            # 1,285 with every subgroup scanned over all of S5 in sorted order.
            assert sum(len(built) for *_, built in scans) == 1258

    def test_subgroup_key_against_element_sets(self):
        # Order and each point's least orbit-mate, read off the element set,
        # for every subgroup of S4, from two different generating lists.
        G = named_group("S:4")
        for s in self.brute_all_subgroups(G):
            label = tuple(min(t[i] for t in s) for i in range(G.degree))
            gens = [Perm(t) for t in sorted(s)]
            for K in (PermGroup(gens, 4), PermGroup(gens[::-1], 4)):
                assert subnorm._subgroup_key(K) == (len(s), label), sorted(s)

    def test_memo_scans_only_subgroups_with_the_same_key(self, monkeypatch):
        # S5 from the trivial group: 2,050 lookups and 1,577 containment
        # tests.  With every subgroup scanned over all of S5 in sorted order
        # there were 2,077 lookups, 977 of them hits; keyed by order alone
        # they made 7,546 containment tests, and by order and orbits 1,612.
        tests = []
        original = subnorm.find_same_subgroup

        def counting(K, items, group=lambda item: item):
            items = list(items)
            found = original(K, items, group)
            tests.append(len(items) if found is None else items.index(found) + 1)
            return found

        monkeypatch.setattr(subnorm, "find_same_subgroup", counting)
        assert chain_length(named_group("S:5"), PermGroup([], 5)) == 5
        assert (len(tests), sum(tests)) == (2050, 1577)

    @pytest.mark.parametrize("source", ["S:7", "A:7"])
    def test_sylow2_normalizer_against_element_set_keys(self, source):
        G = named_group(source)
        N = sylow_data(G, 2).normalizer
        assert chain_length(G, N) == frozenset_chain_length(G, N)

    @pytest.mark.parametrize("source", ["S:5", "A:6", "wr:S:3~C:2"])
    def test_leaves_no_reference_cycles(self, source):
        # Every object made by the scan and its element walks is freed by
        # reference counting alone, with the cyclic collector held off.
        gc.collect()
        gc.disable()
        try:
            G = named_group(source)
            chain_length(G, sylow_data(G, 2).normalizer)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_s5_sylow2_normalizer(self):
        S5 = named_group("S:5")
        N = sylow_data(S5, 2).normalizer
        assert N.order == 8
        assert chain_length(S5, N) == 2  # D8 < S4 < S5

    def test_requires_subgroup(self):
        with pytest.raises(InvalidArgument):
            chain_length(named_group("A:4"), PermGroup([parse_perm("(1,2)", 4)]))

    def test_degree_mismatch_is_refused(self):
        # A generator-free group of another degree is no subgroup either.
        S4, other = named_group("S:4"), PermGroup([], 2)
        with pytest.raises(InvalidArgument, match="not a subgroup"):
            chain_length(S4, other)
        with pytest.raises(InvalidArgument, match="not a subgroup"):
            normalizer(S4, other)

    def test_scale_bound(self):
        G = named_group("S:8")
        with pytest.raises(ScaleExceeded, match="chain-length bound 10000"):
            chain_length(G, named_group("S:8"))
        assert G._chain is None

    @staticmethod
    def counted_walks(monkeypatch):
        """The chain of every element walk, in call order."""
        walks = []
        walk = _Chain.iter_elements

        def counting(chain):
            walks.append(chain)
            return walk(chain)

        monkeypatch.setattr(_Chain, "iter_elements", counting)
        return walks

    def test_refusal_walks_nothing(self, monkeypatch):
        # The bound is checked before any group is walked, even when G's
        # chain is already built, and a refusal leaves G's cache as it was.
        G = named_group("S:8")
        N = sylow_data(G, 7).normalizer
        assert G.order == 40320
        cached = dict(G._cache)
        walks = self.counted_walks(monkeypatch)
        with pytest.raises(ScaleExceeded, match="chain-length bound 10000"):
            chain_length(G, N)
        assert walks == []
        assert G._cache == cached

    def test_one_walk_of_g_per_call(self, monkeypatch):
        # Each call walks G's chain once, at its root, and adds nothing to
        # G's cache; a second call, from another N, walks G once again.
        G = named_group("S:7")
        normalizers = {p: sylow_data(G, p).normalizer for p in (3, 2)}
        cached = dict(G._cache)
        walks = self.counted_walks(monkeypatch)
        for p, want in ((3, 2), (2, 3)):
            walks.clear()
            assert chain_length(G, normalizers[p]) == want
            assert sum(chain is G.chain for chain in walks) == 1
            assert G._cache == cached

    def test_scale_bound_before_the_chain(self):
        # S150 is refused from a chain stopped past the bound; its full
        # chain is never built (that takes longer than any test).
        G = named_group("S:150")
        with pytest.raises(ScaleExceeded, match="chain-length bound"):
            chain_length(G, PermGroup([], 150))
        assert G._chain is None

    def test_known_order_exit_keeps_every_value(self, monkeypatch):
        # Every subgroup as N, with extended_group's stop_at honoured and
        # then ignored.
        groups = {source: named_group(source) for source in ("S:4", "A:4", "D:12")}
        subgroups = [
            (source, PermGroup([Perm(t) for t in s], G.degree))
            for source, G in groups.items()
            for s in self.brute_all_subgroups(G)
        ]

        def lengths():
            return [chain_length(groups[source], N) for source, N in subgroups]

        exited = lengths()
        monkeypatch.setattr(
            subnorm,
            "extended_group",
            lambda base, extra, stop_at=None: permgroup.extended_group(base, extra),
        )
        assert lengths() == exited

    def test_longest_chain_is_not_the_greedy_one(self):
        # S3 wr C2 (order 72 = 2^3 3^2).  Omega(|G:N|), the number of prime
        # factors of the index, bounds every chain from N, since each step
        # has index at least a prime; an explicit chain of that length
        # bounds from below.  A recursion that follows only the smallest
        # overgroup finds 4 and 3 here.
        G = named_group("wr:S:3~C:2")

        def group(*gens):
            return PermGroup([parse_perm(g, 6) for g in gens], 6)

        cases = [
            # Omega(72) = 5: 1 < C3 < C3^2 < C3^2:C2 < S3 x S3 < G.
            (
                group(),
                [
                    group("(1,2,3)"),
                    group("(1,2,3)", "(4,5,6)"),
                    group("(1,2,3)", "(4,5,6)", "(1,2)(4,5)"),
                    group("(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)"),
                ],
            ),
            # Omega(36) = 4: <(5,6)> < S3 on {4,5,6} < C3 x S3 < S3 x S3 < G.
            (
                group("(5,6)"),
                [
                    group("(5,6)", "(4,5,6)"),
                    group("(5,6)", "(4,5,6)", "(1,2,3)"),
                    group("(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)"),
                ],
            ),
            # Omega(36) = 4: <a> < diagonal S3 < C3^2:<a> < S3 x S3 < G,
            # with a = (2,3)(5,6).
            (
                group("(2,3)(5,6)"),
                [
                    group("(2,3)(5,6)", "(1,2,3)(4,5,6)"),
                    group("(2,3)(5,6)", "(1,2,3)", "(4,5,6)"),
                    group("(1,2)", "(1,2,3)", "(4,5)", "(4,5,6)"),
                ],
            ),
            # Omega(36) = 4: <s> < C6 < C3 wr C2 < C3^2:(C2 x C2) < G, with
            # s = (1,4)(2,5)(3,6) swapping the two blocks.
            (
                group("(1,4)(2,5)(3,6)"),
                [
                    group("(1,4)(2,5)(3,6)", "(1,2,3)(4,5,6)"),
                    group("(1,4)(2,5)(3,6)", "(1,2,3)", "(4,5,6)"),
                    group("(1,4)(2,5)(3,6)", "(1,2,3)", "(4,5,6)", "(2,3)(5,6)"),
                ],
            ),
        ]
        for N, middle in cases:
            chain = [N, *middle, G]
            for H, K in zip(chain, chain[1:]):
                assert H.is_subgroup_of(K) and H.order < K.order
            omega = sum(p_adic_valuation(G.order // N.order, q) for q in prime_factors(G.order))
            assert omega == len(chain) - 1
            assert chain_length(G, N) == omega, N

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_groups_closed_form(self, n):
        # Cameron, Solomon and Turull: l(S_n) = ceil(3n/2) - b(n) - 1, where
        # b(n) is the number of ones in the binary expansion of n.
        expected = -(-3 * n // 2) - bin(n).count("1") - 1
        assert chain_length(named_group(f"S:{n}"), PermGroup([], n)) == expected
