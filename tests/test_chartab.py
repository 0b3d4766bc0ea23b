"""Character tables: values, extractors, and the exactness invariants."""

import gc
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pickylab import chartab, conjectures
from pickylab.chartab import (
    _table_from_scratch,
    cd,
    cd_p,
    character_table,
    irr_nonvanishing_on,
    irr_pprime,
)
from pickylab.cli import load_catalog
from pickylab.errors import ScaleExceeded
from pickylab.exactnum import Cyclotomic, field_fingerprint
from pickylab.permgroup import (
    Perm,
    PermGroup,
    conjugacy_classes,
    derived_series,
    exponent,
    named_group,
    parse_perm,
    sylow_data,
)


class TestSmallTables:
    def test_trivial_group(self):
        T = character_table(PermGroup([], 3))
        assert T.degrees == (1,)
        assert T.values[0][0] == 1

    def test_s3(self):
        T = character_table(named_group("S:3"))
        assert T.degrees == (1, 1, 2)
        # classes: identity, transpositions, 3-cycles
        assert [c.element_order for c in T.classes] == [1, 2, 3]
        two_dim = T.values[2]
        assert [v.to_string() for v in two_dim] == ["c_1(0:2)", "c_1()", "c_1(0:-1)"]

    def test_s4_degrees(self):
        assert character_table(named_group("S:4")).degrees == (1, 1, 2, 3, 3)

    def test_principal_row_first(self):
        for name in ["S:4", "A:5", "Q:8", "D:12"]:
            T = character_table(named_group(name))
            assert all(v == 1 for v in T.values[0])

    def test_determinism(self):
        a = character_table(named_group("wr:S:3~C:2")).to_json_dict()
        b = character_table(named_group("wr:S:3~C:2")).to_json_dict()
        assert a == b

    def test_scale_bound(self):
        # S9 (order 362880) is refused from a chain stopped past the bound.
        G = named_group("S:9")
        with pytest.raises(ScaleExceeded, match="table bound 50000"):
            character_table(G)
        assert G._chain is None


def _element_set(G):
    return frozenset(g.images for g in G.elements())


@pytest.fixture
def build_log(monkeypatch):
    """An empty map of shared tables, and the element set of every group
    whose table is built, in build order."""
    monkeypatch.setattr(chartab, "_shared_tables", {})
    log = []
    original = chartab._build_table

    def counting_build(G):
        log.append(_element_set(G))
        return original(G)

    monkeypatch.setattr(chartab, "_build_table", counting_build)
    return log


class TestSharedTables:
    def test_conjugate_object_of_the_same_subgroup_shares_the_table(self, build_log):
        S4 = named_group("S:4")
        g = parse_perm("(1,2)", 4)
        same = S4.conjugate_subgroup(g)
        assert same is not S4 and same.generators != S4.generators
        assert character_table(same) is character_table(S4)
        assert len(build_log) == 1

    def test_conjugate_sylow_subgroups_get_their_own_tables(self, build_log):
        data = sylow_data(named_group("S:4"), 2)
        P = data.subgroup
        Q = P.conjugate_subgroup(data.transversal[1])
        assert (P.degree, P.order) == (Q.degree, Q.order)
        assert _element_set(P) != _element_set(Q)
        TP, TQ = character_table(P), character_table(Q)
        assert TP is not TQ
        assert build_log == [_element_set(P), _element_set(Q)]
        for H, T in ((P, TP), (Q, TQ)):
            fresh = _table_from_scratch(PermGroup(list(H.generators), H.degree))
            assert fresh.to_json_dict() == T.to_json_dict()

    def test_tables_are_held_weakly(self, build_log):
        G = named_group("D:12")
        key = (G.degree, G.order)
        character_table(G)
        assert len(chartab._shared_tables[key]) == 1
        del G
        gc.collect()
        assert not chartab._shared_tables.get(key)

    def test_threads_share_one_build(self, build_log):
        S4 = named_group("S:4")
        objects = [S4.conjugate_subgroup(g) for g in S4.elements()[:8]]
        tables = [None] * len(objects)
        start = threading.Barrier(len(objects))

        def ask(i):
            start.wait(timeout=60)
            tables[i] = character_table(objects[i])

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(objects))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(T is tables[0] for T in tables) and tables[0] is not None
        assert len(build_log) == 1

    @pytest.mark.parametrize("label", ["S4", "D12", "SL23"])
    def test_all_checks_build_one_table_per_element_set(self, label, build_log, monkeypatch):
        requested = []
        original = conjectures.character_table

        def recording(G):
            requested.append(_element_set(G))
            return original(G)

        monkeypatch.setattr(conjectures, "character_table", recording)
        entry = next(e for e in load_catalog("small") if e.label == label)
        G = entry.build()
        for p in entry.effective_primes(G):
            conjectures.run_all_checks(G, p)
        assert len(requested) > len(set(requested))
        assert len(build_log) == len(set(build_log))
        assert set(build_log) == set(requested)


class TestExtractors:
    def test_irr_pprime(self):
        T = character_table(named_group("S:4"))
        assert sorted(T.degrees[i] for i in irr_pprime(T, 2)) == [1, 1, 3, 3]
        assert sorted(T.degrees[i] for i in irr_pprime(T, 3)) == [1, 1, 2]
        assert irr_pprime(T, 5) == list(range(T.k))  # degrees all divide |G|

    def test_irr_nonvanishing_on(self):
        T3 = character_table(named_group("S:3"))
        S = PermGroup([parse_perm("(1,2)", 3)])
        assert irr_nonvanishing_on(T3, PermGroup([], 3)) == [0, 1, 2]
        # the identity never vanishes, so the literal reading sees everything
        assert irr_nonvanishing_on(T3, S) == [0, 1, 2]
        # the degree-2 row vanishes at the transpositions
        nonidentity = irr_nonvanishing_on(T3, S, nonidentity_only=True)
        assert sorted(T3.degrees[i] for i in nonidentity) == [1, 1]

    def test_cd(self):
        T = character_table(named_group("S:4"))
        assert cd(T) == (1, 2, 3)
        assert cd_p(T, 2) == (1, 2)
        assert cd_p(T, 3) == (1, 3)
        assert cd(character_table(named_group("C:12"))) == (1,)
        assert cd(character_table(named_group("D:8"))) == (1, 2)

    def test_field_of_value(self):
        # linear character with value -1: rational, full stabilizer
        T3 = character_table(named_group("S:3"))
        x = parse_perm("(1,2)", 3)
        j = T3.class_index(x)
        (sign,) = [row for d, row in zip(T3.degrees[1:], T3.values[1:]) if d == 1]
        fp = field_fingerprint(sign[j], x.order())
        assert fp.modulus == 2 and len(fp.stabilizer) == 1  # (Z/2)* is trivial

        # faithful linear character of C4 takes the value i
        TC = character_table(named_group("C:4"))
        g = parse_perm("(1,2,3,4)", 4)
        j = TC.class_index(g)
        (faithful,) = [row for row in TC.values if row[j] == Cyclotomic.zeta(4)]
        assert field_fingerprint(faithful[j], g.order()).stabilizer == (1,)

        # 2-dimensional character of D16 at the order-8 rotation: sqrt(2)
        TD = character_table(named_group("D:16"))
        r = parse_perm("(1,2,3,4,5,6,7,8)", 8)
        j = TD.class_index(r)
        vals = {
            field_fingerprint(row[j], r.order()).stabilizer
            for d, row in zip(TD.degrees, TD.values)
            if d == 2 and not row[j].is_zero()
        }
        assert (1, 7) in vals


class TestModularLinearAlgebra:
    def test_charpoly_against_cofactor_expansion(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from pickylab.chartab import _charpoly_hessenberg

        q = 13

        def brute_charpoly(A):
            # det(xI - A) by cofactor expansion over polynomial coefficients
            n = len(A)

            def polymul(a, b):
                out = [0] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    for jj, y in enumerate(b):
                        out[i + jj] = (out[i + jj] + x * y) % q
                return out

            def det(rows, cols):
                if not rows:
                    return [1]
                r = rows[0]
                total = [0]
                for idx, c in enumerate(cols):
                    if r == c:
                        entry = [(-A[r][c]) % q, 1]
                    else:
                        entry = [(-A[r][c]) % q]
                    minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
                    term = polymul(entry, minor)
                    sign = -1 if idx % 2 else 1
                    padded = term + [0] * (len(total) - len(term))
                    total = total + [0] * (len(term) - len(total))
                    total = [(t + sign * u) % q for t, u in zip(total, padded)]
                return total

            return det(list(range(n)), list(range(n)))

        @given(
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=4, max_size=4),
                min_size=4,
                max_size=4,
            )
        )
        @settings(max_examples=40, deadline=None)
        def check(A):
            got = _charpoly_hessenberg(A, q)
            want = brute_charpoly(A)
            want = want + [0] * (5 - len(want))
            assert [x % q for x in got] == [x % q for x in want]

        check()


class TestKnownTables:
    def test_a5_golden_ratio_values(self):
        # the 3-dimensional characters of A5 take (1 +- sqrt(5))/2 at
        # 5-cycles: conductor-5 cyclotomics fixed exactly by {1, 4}
        A5 = named_group("A:5")
        T = character_table(A5)
        assert T.degrees == (1, 3, 3, 4, 5)
        x = parse_perm("(1,2,3,4,5)", 5)
        j = T.class_index(x)
        vals = [T.values[i][j] for i in range(T.k) if T.degrees[i] == 3]
        z = Cyclotomic.zeta(5)
        golden = -(z**2) - z**3  # (1 + sqrt 5)/2
        other = -z - z**4        # (1 - sqrt 5)/2
        assert {vals[0], vals[1]} == {golden, other}
        assert vals[0].conductor == 5
        from pickylab.exactnum import field_fingerprint

        assert field_fingerprint(vals[0], 5).stabilizer == (1, 4)
        # the two 3-dimensional rows are swapped by the Galois action
        assert vals[0].galois(2) == vals[1]

    def test_a5_p5_strong_comparison_uses_irrational_values(self):
        # N_G(P) is dihedral of order 10; its 2-dimensional characters take
        # zeta + zeta^-1 type values at the 5-cycle, matching A5 up to sign
        from pickylab.conjectures import check_picky_conjecture

        r = check_picky_conjecture(named_group("A:5"), 5, "strong")
        assert r.status == "holds"
        # the 5-cycles fall into two A5-classes, both picky
        entries = r.witnesses["picky_classes"]
        assert len(entries) == 2
        assert all(e["normalizer_order"] == 10 for e in entries)

    def test_fixture_group_tables(self, full_catalog_groups):
        F21, _ = full_catalog_groups["F21"]
        assert character_table(F21).degrees == (1, 1, 1, 3, 3)
        SL23, _ = full_catalog_groups["SL23"]
        assert character_table(SL23).degrees == (1, 1, 1, 2, 2, 2, 3)
        Q8 = named_group("Q:8")
        assert character_table(Q8).degrees == (1, 1, 1, 1, 2)

    def test_f21_p7_values_have_conductor_7(self, full_catalog_groups):
        F21, _ = full_catalog_groups["F21"]
        T = character_table(F21)
        seven = parse_perm("(1,2,3,4,5,6,7)", 7)
        j = T.class_index(seven)
        conductors = {T.values[i][j].conductor for i in range(T.k) if T.degrees[i] == 3}
        assert conductors == {7}


class TestInvariants:
    def test_sum_of_degree_squares(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            T = character_table(G)
            assert sum(d * d for d in T.degrees) == G.order

    def test_linear_character_count_is_abelianization_order(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            T = character_table(G)
            linear = sum(1 for d in T.degrees if d == 1)
            series = derived_series(G)
            # a one-term series means G is perfect (G' = G)
            derived = series[1] if len(series) > 1 else series[0]
            assert linear == G.order // derived.order

    def test_pprime_degrees_never_vanish_on_p_elements(self, small_catalog_groups):
        for label, (G, primes) in small_catalog_groups.items():
            T = character_table(G)
            for p in primes:
                pprime_rows = irr_pprime(T, p)
                for j, c in enumerate(conjugacy_classes(G)):
                    x = c.representative
                    if not any(x.order() == p**k for k in range(8)):
                        continue
                    assert all(not T.values[i][j].is_zero() for i in pprime_rows)

    def test_value_conductors_divide_element_order(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            T = character_table(G)
            for j, c in enumerate(T.classes):
                for i in range(T.k):
                    assert c.element_order % T.values[i][j].conductor == 0

    def test_class_count_equals_character_count(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            assert character_table(G).k == len(conjugacy_classes(G))


# ----------------------------------------------------------------------
# The table build against its definition: every class-multiplication
# coefficient from one pass over the whole group, split with a linear
# combination of all the class matrices first.

def _mul_oracle(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def _oracle_mats(G, q):
    """mats[i][j][l] = #{(x, y) in C_i x C_j : xy = rep_l} mod q, from the
    k * |G| compositions x^-1 * rep_l over every x in G."""
    classes = conjugacy_classes(G)
    k = len(classes)
    class_of = G._class_of
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    elems = G.elements()
    inv_images = [x.inverse().images for x in elems]
    for l, c in enumerate(classes):
        rt = c.representative.images
        for idx, x in enumerate(elems):
            i = class_of[x.images]
            j = class_of[_mul_oracle(inv_images[idx], rt)]
            mats[i][j][l] += 1
    return [[[v % q for v in row] for row in M] for M in mats]


def _oracle_table(G, monkeypatch):
    """G's table built from every class matrix, with the combination
    sum_i (i + 1) * M_i tried before the matrices themselves."""
    split = chartab._split_common_eigenspaces

    def split_all(_lazy_mats, q, k):
        mats = _oracle_mats(G, q)
        combo = [
            [sum((i + 1) * mats[i][r][c] for i in range(k)) % q for c in range(k)]
            for r in range(k)
        ]
        return split([combo] + mats, q, k)

    with monkeypatch.context() as m:
        m.setattr(chartab, "_split_common_eigenspaces", split_all)
        return chartab._dixon_table(G)


def _assert_same_build(G, monkeypatch, label=None):
    oracle = _oracle_table(G, monkeypatch)
    assert chartab._dixon_table(G).to_json_dict() == oracle.to_json_dict(), label


class TestClassMatrices:
    def test_build_equals_oracle_on_the_catalog(self, full_catalog_groups, monkeypatch):
        for label, (G, _) in full_catalog_groups.items():
            _assert_same_build(G, monkeypatch, label)

    def test_build_equals_oracle_on_s8(self, monkeypatch):
        _assert_same_build(named_group("S:8"), monkeypatch)

    def test_class_matrix_equals_oracle(self, small_catalog_groups):
        for label, (G, _) in small_catalog_groups.items():
            classes = conjugacy_classes(G)
            q = chartab._field_prime(exponent(G), G.order)
            mats = _oracle_mats(G, q)
            for i in range(len(classes)):
                assert chartab._class_matrix(G, classes, i, q, G._class_of) == mats[i], (label, i)

    # The strategy of tests/test_differential.py: four permutations of
    # degree 5 or 6 give groups up to S6 rather than mostly tiny ones.
    @given(images=st.integers(5, 6).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 4)))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_build_equals_oracle_on_random_subgroups(self, images, monkeypatch):
        _assert_same_build(PermGroup(list(images), len(images[0])), monkeypatch)

    @pytest.mark.parametrize("name, used", [("S:8", 2), ("S:7", 1), ("A:5", 1)])
    def test_splitting_stops_once_every_eigenspace_is_a_line(self, name, used, monkeypatch):
        calls = []
        original = chartab._class_matrix

        def counting(G, classes, i, q, class_of):
            calls.append(i)
            return original(G, classes, i, q, class_of)

        monkeypatch.setattr(chartab, "_class_matrix", counting)
        chartab._dixon_table(named_group(name))
        assert len(calls) == used


class TestSymmetricTables:
    """Sym(n)'s table from symfast against Dixon's build by name."""

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_symfast_table_equals_dixon(self, n, relabel, monkeypatch):
        def build():
            G = named_group(f"S:{n}")
            if relabel:
                sigma = Perm(tuple(range(1, n)) + (0,))
                G = G.conjugate_subgroup(sigma)
            return G

        matrices = []
        monkeypatch.setattr(chartab, "_class_matrix", lambda *args: matrices.append(args))
        T = chartab._build_table(build())
        assert matrices == []  # no Dixon step ran
        monkeypatch.undo()
        chartab._verify_table(T)
        oracle = chartab._dixon_table(build())
        assert T.to_json_dict() == oracle.to_json_dict()
        assert T.inverse_classes == oracle.inverse_classes

    @pytest.mark.parametrize("name", ["A:5", "A:7", "C:3", "wr:S:3~C:2"])
    def test_other_groups_take_dixon(self, name, monkeypatch):
        reads = []
        monkeypatch.setattr(chartab, "_symmetric_table", lambda G: reads.append(G))
        T = chartab._build_table(named_group(name))
        assert reads == [] and T.k == len(conjugacy_classes(named_group(name)))
