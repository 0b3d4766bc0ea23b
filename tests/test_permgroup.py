"""Permutation engine: construction, classes, centralizers, normalizers,
Sylow machinery, derived series, parsing.  The heavy lifting is oracled by
plain brute force over element sets, which never touches the stabilizer
chain."""

import gc
import random
import tracemalloc
from collections import Counter
from functools import partial, reduce
from itertools import islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pickylab.chartab import _table_from_scratch, character_table
from pickylab.cli import load_catalog
from pickylab.errors import EngineDefect, InvalidArgument, ParseError, ScaleExceeded
from pickylab.permgroup import (
    ALTERNATING,
    SYMMETRIC,
    Perm,
    PermGroup,
    _Chain,
    _ClassMap,
    _TypeClassMap,
    _cycle_type,
    _inv,
    _is_identity,
    _mul,
    _walk_classes,
    centralizer,
    check_order_bound,
    class_index_of,
    conjugacy_classes,
    derived_length,
    derived_series,
    extended_group,
    is_p_element,
    is_ti_sylow,
    named_group,
    natural_kind,
    normal_closure,
    normalizer,
    parse_generator_text,
    parse_perm,
    sylow_containing,
    sylow_count_containing,
    sylow_data,
)


def brute_closure(gens, degree):
    """All products of the generators, by saturation over raw tuples."""
    elems = {tuple(range(degree))}
    frontier = [tuple(range(degree))]
    gens = [g.images for g in gens]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = tuple(g[i] for i in e)
                if prod not in elems:
                    elems.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return elems


def definition_mul(p, q):
    """Apply p, then q, image by image: the oracle for the kernel's _mul."""
    return tuple(q[i] for i in p)


def definition_is_identity(p):
    return all(i == j for i, j in enumerate(p))


class TestKernel:
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        )
    )
    @example(([0], [0]))
    @settings(max_examples=200, deadline=None)
    def test_mul_and_is_identity_match_definitions(self, pair):
        p, q = (tuple(t) for t in pair)
        assert _mul(p, q) == definition_mul(p, q)
        assert type(_mul(p, q)) is tuple
        for t in (p, q, _mul(p, _inv(p)), tuple(range(len(p)))):
            assert _is_identity(t) == definition_is_identity(t)

    def test_known_order_exit_agrees_with_full_build(self, monkeypatch):
        # <N_G(P), g> built with stop_at = |G| against the same build
        # without it: same order and same membership over all of G.  A
        # build that reaches |G| is complete, so every Schreier generator it
        # skips would have sifted to the identity: the chains are equal
        # level by level, and the exit only saves sifts.
        sifts = Counter()
        sift = _Chain._sift
        mode = None

        def counting(self, g, start=0):
            sifts[mode] += 1
            return sift(self, g, start)

        monkeypatch.setattr(_Chain, "_sift", counting)
        for entry in load_catalog("small"):
            G = entry.build()
            elements = [g.images for g in G.elements()]
            for p in entry.effective_primes(G):
                N = sylow_data(G, p).normalizer
                for g in G.elements():
                    mode = "exit"
                    exited = extended_group(N, [g], G.order)
                    mode = "full"
                    full = extended_group(N, [g])
                    mode = None
                    assert exited.order == full.order, (entry.label, p, g)
                    assert [exited.chain.contains(t) for t in elements] == [
                        full.chain.contains(t) for t in elements
                    ], (entry.label, p, g)
                    assert [(lvl.base, lvl.gens, lvl.orbit) for lvl in exited.chain.levels] == [
                        (lvl.base, lvl.gens, lvl.orbit) for lvl in full.chain.levels
                    ]
        assert sifts["exit"] < sifts["full"]


class TestOrderBound:
    def test_chain_under_the_bound_is_the_usual_one(self):
        for entry in load_catalog("small"):
            # The tightest bound that |G| does not exceed.
            G = entry.build()
            check_order_bound(G, entry.build().order, "test")
            assert G._chain is not None
            assert list(G.chain.iter_elements()) == list(entry.build().chain.iter_elements())

    def test_stopped_chain_is_discarded(self):
        for entry in load_catalog("small"):
            G = entry.build()
            order = entry.build().order
            with pytest.raises(ScaleExceeded):
                check_order_bound(G, order - 1, "test")
            assert G._chain is None, entry.label
            assert G.order == order
            assert list(G.chain.iter_elements()) == list(entry.build().chain.iter_elements())

    def test_large_group_refused_without_its_chain(self):
        G = named_group("S:150")
        with pytest.raises(ScaleExceeded, match="enumeration bound 100000"):
            G.elements()
        assert G._chain is None


class TestPerm:
    def test_parse_and_format(self):
        x = parse_perm("(1,2,3)(4,5)")
        assert x.cycle_string() == "(1,2,3)(4,5)"
        assert x.order() == 6
        assert x.cycle_type() == (3, 2)
        assert x.cycle_type(include_fixed=True) == (3, 2)
        assert parse_perm("()", 3).is_identity()

    def test_parse_errors(self):
        for bad in ["(1,2", "1,2)", "(0,1)", "(1,1,2)", "xyz"]:
            with pytest.raises(ParseError):
                parse_perm(bad)

    def test_composition_convention(self):
        a = parse_perm("(1,2)", 3)
        b = parse_perm("(2,3)", 3)
        # apply a then b
        assert (a * b).cycle_string() == "(1,3,2)"
        assert (b * a).cycle_string() == "(1,2,3)"

    def test_conjugation(self):
        x = parse_perm("(1,2)", 4)
        g = parse_perm("(1,3)(2,4)", 4)
        assert x.conj(g).cycle_string() == "(3,4)"

    @given(st.permutations(list(range(6))))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_inverse(self, images):
        x = Perm(tuple(images))
        assert parse_perm(x.cycle_string(), 6) == x
        assert (x * x.inverse()).is_identity()
        assert x ** x.order() == Perm.identity(6)

    @given(st.permutations(list(range(7))))
    @settings(max_examples=50, deadline=None)
    def test_cycle_type_against_the_cycles(self, images):
        x = Perm(tuple(images))
        lens = sorted((len(c) for c in x.cycles()), reverse=True)
        assert _cycle_type(x.images) == x.cycle_type() == tuple(lens)
        assert x.cycle_type(include_fixed=True) == tuple(lens + [1] * (7 - sum(lens)))
        assert x.order() == next(k for k in range(1, 13) if (x ** k).is_identity())


class TestConstruction:
    def test_s3_by_exhaustive_products(self):
        gens = [parse_perm("(1,2)", 3), parse_perm("(1,2,3)", 3)]
        G = PermGroup(gens)
        assert G.order == len(brute_closure(gens, 3)) == 6

    def test_trivial_group(self):
        assert PermGroup([], 4).order == 1

    def test_dihedral_by_exhaustive_closure(self):
        gens = [parse_perm("(1,2,3,4)"), parse_perm("(1,3)", 4)]
        G = PermGroup(gens)
        assert G.order == len(brute_closure(gens, 4)) == 8

    @given(st.lists(st.permutations(list(range(5))), min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_order_matches_brute_closure(self, images_list):
        gens = [Perm(tuple(im)) for im in images_list]
        G = PermGroup(gens, 5)
        assert G.order == len(brute_closure(gens, 5))

    def test_membership(self):
        S4 = named_group("S:4")
        A4 = named_group("A:4")
        assert parse_perm("(1,2,3)", 4) in A4
        assert parse_perm("(1,2)", 4) not in A4
        assert A4.is_subgroup_of(S4)
        assert not S4.is_subgroup_of(A4)

    @pytest.mark.parametrize("source", ["S:5", "D:12", "wr:S:3~C:2", "C:1"])
    def test_iter_elements_is_the_product_of_the_transversals(self, source):
        # Deepest level first: u_last * ... * u_0 with level 0 varying
        # fastest, each transversal in sorted point order.
        G = named_group(source)
        transversals = [
            [lvl.orbit[pt][0] for pt in sorted(lvl.orbit)] for lvl in G.chain.levels
        ]
        identity = tuple(range(G.degree))
        want = [reduce(_mul, combo, identity) for combo in product(*reversed(transversals))]
        assert list(G.chain.iter_elements()) == want
        assert len(set(want)) == G.order

    def test_iter_elements_leaves_no_reference_cycles(self):
        # A walk read to the end or dropped part way (as conjugacy_classes
        # does) is freed by reference counting alone.
        G = named_group("S:5")
        gc.collect()
        gc.disable()
        try:
            assert len(list(G.chain.iter_elements())) == 120
            assert len(list(islice(G.chain.iter_elements(), 7))) == 7
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mixed_degrees_rejected(self):
        with pytest.raises(InvalidArgument):
            PermGroup([parse_perm("(1,2)"), parse_perm("(1,2,3)")])

    # (0, 0, 1) once recursed without end in the chain build, and
    # (0, 1, -1) gave a group of order 2.
    @pytest.mark.parametrize("images", [(0, 0, 1), (0, 1, -1), (0, 1, 3), (2, 0, 1.0), (1, 0, None)])
    def test_non_permutation_generators_rejected(self, images):
        with pytest.raises(InvalidArgument, match="not a permutation"):
            PermGroup([images])
        with pytest.raises(InvalidArgument, match="not a permutation"):
            PermGroup([parse_perm("(1,2)", 3), Perm(images)], 3)


class TestNamedGroups:
    @pytest.mark.parametrize(
        "source,order",
        [
            ("S:4", 24),
            ("S:7", 5040),
            ("A:4", 12),
            ("A:5", 60),
            ("C:6", 6),
            ("C:1", 1),
            ("D:8", 8),
            ("D:16", 16),
            ("Q:8", 8),
            ("wr:S:3~C:2", 72),
            ("wr:S:4~C:2", 1152),
        ],
    )
    def test_orders(self, source, order):
        assert named_group(source).order == order

    def test_quaternion_structure(self):
        Q8 = named_group("Q:8")
        orders = sorted(x.order() for x in Q8.elements())
        assert orders == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_unknown_constructor(self):
        with pytest.raises(ParseError):
            named_group("X:5")

    def test_generator_file_parsing(self):
        text = """
        # a comment
        (1,2,3,4,5,6,7)

        (2,3,5)(4,7,6)  # trailing comment
        """
        G = parse_generator_text(text)
        assert G.order == 21
        with pytest.raises(ParseError):
            parse_generator_text("# only comments\n")


# Builders for the class oracle: every catalog group, and three larger ones.
ORACLE_GROUPS = {
    **{entry.label: entry.build for entry in load_catalog("full")},
    **{source: partial(named_group, source) for source in ("S:8", "A:8", "wr:S:4~C:2", "C:24")},
}


class TestConjugacyClasses:
    def brute_classes(self, G):
        elems = [x.images for x in G.elements()]
        gens = [g.images for g in G.generators]
        seen, classes = set(), []
        for t in sorted(elems):
            if t in seen:
                continue
            orbit = {t}
            queue = [t]
            while queue:
                y = queue.pop()
                # conjugation via the Perm API, independent of the engine internals
                for g in G.generators:
                    z = (g.inverse() * Perm(y) * g).images
                    if z not in orbit:
                        orbit.add(z)
                        queue.append(z)
            seen |= orbit
            classes.append(orbit)
        return classes

    def test_s3_classes(self):
        S3 = named_group("S:3")
        cls = conjugacy_classes(S3)
        assert [(c.element_order, c.size) for c in cls] == [(1, 1), (2, 3), (3, 2)]

    def test_s4_class_sizes(self):
        cls = conjugacy_classes(named_group("S:4"))
        assert sorted(c.size for c in cls) == [1, 3, 6, 6, 8]
        assert sum(c.size for c in cls) == 24

    def test_trivial_group_single_class(self):
        assert len(conjugacy_classes(PermGroup([], 4))) == 1

    def test_against_brute_force(self):
        for name in ["S:4", "A:4", "Q:8", "D:12"]:
            G = named_group(name)
            engine = conjugacy_classes(G)
            brute = self.brute_classes(G)
            assert sorted(len(o) for o in brute) == sorted(c.size for c in engine)
            # representatives are the lexicographic minima of their classes
            for c in engine:
                orbit = next(o for o in brute if c.representative.images in o)
                assert c.representative.images == min(orbit)

    def test_class_equation(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            cls = conjugacy_classes(G)
            assert sum(c.size for c in cls) == G.order
            for c in cls[:4]:
                C = centralizer(G, c.representative)
                assert c.size * C.order == G.order

    @staticmethod
    def sorted_elements_classes(G):
        """The sorted-elements algorithm: walk G.elements() in order, so the
        first element met in each conjugation orbit is its least."""
        gens = [g.images for g in G.generators]
        seen, raw = set(), []
        for e in G.elements():
            if e.images in seen:
                continue
            orbit = [e.images]
            seen.add(e.images)
            for t in orbit:
                for g in gens:
                    y = _mul(_mul(_inv(g), t), g)
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            raw.append((e.order(), len(orbit), e.images, orbit))
        raw.sort(key=lambda r: r[:3])
        class_of = {t: idx for idx, r in enumerate(raw) for t in r[3]}
        return [r[:3] for r in raw], class_of

    @pytest.mark.parametrize("label", sorted(ORACLE_GROUPS))
    def test_against_the_sorted_elements_algorithm(self, label):
        build = ORACLE_GROUPS[label]
        G = build()
        classes = conjugacy_classes(G)
        assert G._elements is None
        expected, class_of = self.sorted_elements_classes(build())
        assert [(c.element_order, c.size, c.representative.images) for c in classes] == expected
        assert len(class_of) == G.order
        for t, idx in class_of.items():
            assert G._class_of[t] == idx

    def test_class_map_memory(self):
        """Sym(n) and Alt(n) take their classes from partitions, so the
        class maps of S:8 and A:8 hold no element: A:8's two cycle types
        that split, the 7-cycles and the products of a 5- and a 3-cycle,
        are told apart by alignment parity.  The element walk, their test
        oracle, holds exactly the members of those two types."""
        for name in ("S:8", "A:8"):
            tracemalloc.start()
            try:
                G = named_group(name)
                conjugacy_classes(G)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held < 1_000_000 and peak < 3_000_000, name
            assert isinstance(G._class_of, _TypeClassMap), name
        assert G._class_of.halves.keys() == {(7,), (5, 3)}
        raw, walk_map = _walk_classes(named_group("A:8"))
        per_type = Counter(_cycle_type(rep) for _, _, rep, _ in raw)
        split_types = {key for key, n in per_type.items() if n > 1}
        assert split_types == {(7,), (5, 3)}
        assert len(walk_map.split) == 8448 == sum(
            size for _, size, rep, _ in raw if _cycle_type(rep) in split_types
        )
        assert all(_cycle_type(t) in split_types for t in walk_map.split)

    def test_large_group_refused_without_its_chain(self):
        G = named_group("S:150")
        with pytest.raises(ScaleExceeded, match="enumeration bound 100000"):
            conjugacy_classes(G)
        assert G._chain is None

    def test_character_table_leaves_the_sorted_elements_unbuilt(self):
        G = named_group("S:8")
        character_table(G)
        assert G._elements is None
        # The same on a build from scratch, in case the table above was shared.
        G = named_group("S:8")
        _table_from_scratch(G)
        assert G._classes is not None and G._elements is None

    def test_class_index_of_rejects_outsiders(self):
        with pytest.raises(InvalidArgument):
            class_index_of(named_group("A:4"), parse_perm("(1,2)", 4))


def _relabelled(G, seed):
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    return G.conjugate_subgroup(Perm(sigma))


def _padded(G, points):
    """G acting on its points plus ``points`` fixed ones."""
    n = G.degree
    return PermGroup([Perm(g.images + tuple(range(n, n + points))) for g in G.generators], n + points)


NATURAL_GROUPS = [f"S:{n}" for n in range(1, 9)] + [f"A:{n}" for n in range(3, 9)]

NEAR_MISSES = {
    "S:7 on 8 points": lambda: _padded(named_group("S:7"), 1),  # order 7!
    "A:7 on 8 points": lambda: _padded(named_group("A:7"), 1),  # order 7!/2
    "S:4 on 6 points": lambda: _padded(named_group("S:4"), 2),
    "S:4 wr C:2": lambda: named_group("wr:S:4~C:2"),
    "D:8": lambda: named_group("D:8"),  # order 8 on 4 points: 4!/3
    "C3 x C3": lambda: PermGroup([Perm((1, 2, 0, 3, 4, 5)), Perm((0, 1, 2, 4, 5, 3))], 6),
}


class TestPartitionClasses:
    """The classes of Sym(n) and Alt(n) from partitions, against the
    element walk that every other group takes."""

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("name", NATURAL_GROUPS)
    def test_partition_classes_equal_the_walk(self, name, relabel):
        def build():
            G = named_group(name)
            return _relabelled(G, name) if relabel else G

        G, oracle = build(), build()
        assert natural_kind(G) == (SYMMETRIC if name[0] == "S" else ALTERNATING)
        classes = conjugacy_classes(G)
        assert isinstance(G._class_of, _TypeClassMap)
        raw, walk_map = _walk_classes(oracle)
        assert [(c.element_order, c.size, c.representative.images) for c in classes] == [
            r[:3] for r in raw
        ]
        for t in oracle.chain.iter_elements():
            assert G._class_of[t] == walk_map[t]
        inverses = [_inv(c.representative.images) for c in classes]
        assert [G._class_of[t] for t in inverses] == [walk_map[t] for t in inverses]

    def test_representatives_and_sizes_follow_the_partition(self):
        # S:5, cycle type (3, 2): no fixed point, then the 2-cycle and the
        # 3-cycle, each on consecutive points.
        classes = conjugacy_classes(named_group("S:5"))
        c = next(c for c in classes if c.representative.cycle_type() == (3, 2))
        assert c.representative.cycle_string() == "(1,2)(3,4,5)"
        assert (c.size, c.element_order) == (20, 6)
        # A:5's 5-cycles split into two classes of 12; the second
        # representative swaps the last two points of the first.
        fives = [c for c in conjugacy_classes(named_group("A:5")) if c.element_order == 5]
        assert [(c.representative.cycle_string(), c.size) for c in fives] == [
            ("(1,2,3,4,5)", 12),
            ("(1,2,3,5,4)", 12),
        ]

    @pytest.mark.parametrize("label", sorted(NEAR_MISSES))
    def test_near_misses_take_the_walk(self, label):
        build = NEAR_MISSES[label]
        G = build()
        assert natural_kind(G) is None
        classes = conjugacy_classes(G)
        assert isinstance(G._class_of, _ClassMap)
        expected, class_of = TestConjugacyClasses.sorted_elements_classes(build())
        assert [(c.element_order, c.size, c.representative.images) for c in classes] == expected
        for t, idx in class_of.items():
            assert G._class_of[t] == idx

    def test_small_cyclic_groups_are_natural(self):
        # C:2 on 2 points is Sym(2), and C:3 on 3 points is Alt(3), whose
        # one cycle type of 3-cycles splits into two classes.
        assert natural_kind(named_group("C:2")) == SYMMETRIC
        C3 = named_group("C:3")
        assert natural_kind(C3) == ALTERNATING
        assert [c.representative.cycle_string() for c in conjugacy_classes(C3)] == [
            "()", "(1,2,3)", "(1,3,2)",
        ]

    def test_odd_generator_of_an_index_two_subgroup_is_a_defect(self):
        # A wrapper that breaks _from_chain's contract: the chain is
        # Alt(5)'s, the generator a transposition.
        G = PermGroup._from_chain(named_group("A:5").chain, [Perm((1, 0, 2, 3, 4))])
        with pytest.raises(EngineDefect, match="odd generator"):
            conjugacy_classes(G)


class TestCentralizerNormalizer:
    def test_centralizer_of_4_cycle(self):
        S4 = named_group("S:4")
        C = centralizer(S4, parse_perm("(1,2,3,4)", 4))
        assert C.order == 4 and C.is_abelian()

    def test_brute_force_centralizer_agreement(self):
        for name in ["S:4", "D:12", "Q:8"]:
            G = named_group(name)
            for c in conjugacy_classes(G):
                x = c.representative
                C = centralizer(G, x)
                brute = [g for g in G.elements() if (g * x).images == (x * g).images]
                assert C.order == len(brute)
                assert all(Perm(b.images) in C for b in brute)

    def test_normalizer_of_sylow_in_s4(self):
        S4 = named_group("S:4")
        D8 = PermGroup([parse_perm("(1,2,3,4)"), parse_perm("(1,3)", 4)])
        assert normalizer(S4, D8).same_group(D8)
        assert normalizer(S4, S4).same_group(S4)

    def test_brute_force_normalizer_agreement(self):
        S4 = named_group("S:4")
        subs = [
            PermGroup([parse_perm("(1,2)", 4)]),
            PermGroup([parse_perm("(1,2,3)", 4)]),
            PermGroup([parse_perm("(1,2)(3,4)", 4), parse_perm("(1,3)(2,4)", 4)]),
        ]
        for H in subs:
            N = normalizer(S4, H)
            brute = [
                g for g in S4.elements() if H.conjugate_subgroup(g).same_group(H)
            ]
            assert N.order == len(brute)

    def test_normalizer_requires_subgroup(self):
        with pytest.raises(InvalidArgument):
            normalizer(named_group("A:4"), PermGroup([parse_perm("(1,2)", 4)]))


class TestSylow:
    def test_orders(self):
        assert sylow_data(named_group("S:4"), 2).subgroup.order == 8
        assert sylow_data(named_group("S:3"), 3).subgroup.order == 3
        assert sylow_data(named_group("S:3"), 5).subgroup.order == 1

    def test_large_group_refused_without_its_chain(self):
        G = named_group("S:150")
        with pytest.raises(ScaleExceeded, match="sylow bound 3628800"):
            sylow_data(G, 2)
        # The bound comes before the membership test, which would build the chain.
        with pytest.raises(ScaleExceeded, match="sylow bound 3628800"):
            sylow_count_containing(G, 2, parse_perm("(1,2)", 150))
        assert G._chain is None

    def test_s4_p2_generators_and_transversal(self):
        # pickylab sylow prints P's generators (the subgroup's, not the
        # normalizer's); the transversal order decides which conjugate of P
        # sylow_containing returns.  The normalizer keeps only generators
        # that enlarged its chain: P's three already give N = P (order 8),
        # so the Schreier generator (1,4,2,3) is left out.
        data = sylow_data(named_group("S:4"), 2)
        assert [g.cycle_string() for g in data.transversal] == ["()", "(1,2,3,4)", "(2,3,4)"]
        assert [g.cycle_string() for g in data.normalizer.generators] == [
            "(1,2)", "(3,4)", "(1,3)(2,4)"
        ]

    def test_stabilizer_generators_are_irredundant(self):
        # Inserted in order into a fresh chain, every generator of a Sylow
        # normalizer or a centralizer enlarges it, and together they give
        # the whole group.
        for entry in load_catalog("small"):
            G = entry.build()
            stabilizers = [sylow_data(G, p).normalizer for p in entry.effective_primes(G)]
            stabilizers += [centralizer(G, c.representative) for c in conjugacy_classes(G)]
            for H in stabilizers:
                ch = _Chain(G.degree)
                assert [ch.insert(g.images) for g in H.generators] == [True] * len(H.generators)
                assert ch.order() == H.order, entry.label

    def test_sylow_invariants(self, small_catalog_groups):
        from pickylab.exactnum import p_adic_valuation, prime_factors

        for label, (G, primes) in small_catalog_groups.items():
            for p in primes:
                data = sylow_data(G, p)
                assert data.subgroup.order == p ** p_adic_valuation(G.order, p)
                assert data.count % p == 1
                assert data.count * data.normalizer.order == G.order
                assert data.subgroup.is_subgroup_of(data.normalizer)

    def test_count_containing(self):
        S4 = named_group("S:4")
        assert sylow_count_containing(S4, 2, parse_perm("(1,2,3,4)", 4)) == 1
        assert sylow_count_containing(S4, 2, parse_perm("(1,2)(3,4)", 4)) == 3
        assert sylow_count_containing(S4, 2, Perm.identity(4)) == 3
        with pytest.raises(InvalidArgument):
            sylow_count_containing(S4, 2, parse_perm("(1,2,3)", 4))

    def test_element_outside_group_is_an_argument_error(self):
        # (1,2) is a 2-element of Sym(4) outside A4.
        A4 = named_group("A:4")
        x = parse_perm("(1,2)", 4)
        with pytest.raises(InvalidArgument, match="does not belong"):
            sylow_containing(A4, 2, x)
        with pytest.raises(InvalidArgument, match="does not belong"):
            sylow_count_containing(A4, 2, x)

    def test_p_elements(self):
        S3 = named_group("S:3")
        twos = [x.cycle_string() for x in S3.elements() if is_p_element(x, 2)]
        assert sorted(twos) == ["()", "(1,2)", "(1,3)", "(2,3)"]
        threes = [x.cycle_string() for x in S3.elements() if is_p_element(x, 3)]
        assert sorted(threes) == ["()", "(1,2,3)", "(1,3,2)"]
        # Sylow covering: every p-element lies in a Sylow p-subgroup.
        S4 = named_group("S:4")
        for x in S4.elements():
            if is_p_element(x, 2):
                assert sylow_count_containing(S4, 2, x) >= 1

    def test_is_ti(self):
        assert is_ti_sylow(named_group("S:3"), 3)
        assert not is_ti_sylow(named_group("S:4"), 2)
        assert is_ti_sylow(named_group("Q:8"), 2)  # normal Sylow
        assert is_ti_sylow(named_group("A:4"), 3)


class TestDerivedSeries:
    def test_abelian(self):
        assert derived_length(named_group("C:6")) == 1

    def test_s4(self):
        series = derived_series(named_group("S:4"))
        assert [H.order for H in series] == [24, 12, 4, 1]
        assert derived_length(named_group("S:4")) == 3

    def test_s5_not_solvable(self):
        S5 = named_group("S:5")
        assert derived_length(S5) is None
        series = derived_series(S5)
        assert series[-1].order == 60  # stabilizes at the alternating group

    def test_normal_closure(self):
        A4 = named_group("A:4")
        V = normal_closure(A4, [parse_perm("(1,2)(3,4)", 4)])
        assert V.order == 4
