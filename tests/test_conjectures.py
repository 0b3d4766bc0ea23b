"""The verification harness: each check on its fixture examples, the
signature machinery, and the cross-statement implications."""

import sys
import threading

import pytest

from pickylab import chartab, conjectures
from pickylab.chartab import _table_from_scratch, character_table
from pickylab.conjectures import (
    CheckReport,
    check_alperin_c,
    check_chain_conjecture,
    check_degree_conjectures,
    check_fusion_lemma,
    check_height_conjectures,
    check_ito_michler,
    check_kb_principal,
    check_mckay,
    check_normality_via_qblocks,
    check_picky_conjecture,
    check_subnormalizer_conjecture,
    check_vanishing_proposition,
    run_all_checks,
    run_check,
    signatures,
    _reverify_mismatch,
)
from pickylab.cli import load_catalog
from pickylab.errors import InvalidArgument
from pickylab.exactnum import algebraic_p_part, field_fingerprint, p_adic_valuation, prime_factors
from pickylab.permgroup import PermGroup, named_group, parse_perm


class TestItoMichler:
    def test_s3_p3_both_sides_true(self):
        r = check_ito_michler(named_group("S:3"), 3)
        assert r.status == "holds"
        assert r.witnesses["sylow_normal"] and r.witnesses["sylow_abelian"]
        assert r.witnesses["cd_p"] == [1]

    def test_s4_p2_both_sides_false(self):
        r = check_ito_michler(named_group("S:4"), 2)
        assert r.status == "holds"
        assert not r.witnesses["sylow_normal"]
        assert r.witnesses["cd_p"] == [1, 2]

    def test_abelian(self):
        assert check_ito_michler(named_group("C:12"), 2).status == "holds"


class TestNormalityViaQBlocks:
    def test_a4_p2(self):
        r = check_normality_via_qblocks(named_group("A:4"), 2)
        assert r.status == "holds"
        assert r.witnesses["sylow_normal"]
        assert r.witnesses["all_principal_qblock_degrees_coprime"]

    def test_s4_p2_finds_witness(self):
        r = check_normality_via_qblocks(named_group("S:4"), 2)
        assert r.status == "holds"
        assert not r.witnesses["sylow_normal"]
        assert r.witnesses["divisible_degree"] == {"q": 3, "degree": 2}

    def test_q_group_with_foreign_prime(self):
        r = check_normality_via_qblocks(named_group("Q:8"), 3)
        assert r.status == "holds"


class TestMcKay:
    def test_s4(self):
        r2 = check_mckay(named_group("S:4"), 2)
        assert r2.status == "holds" and r2.witnesses["count_G"] == 4
        r3 = check_mckay(named_group("S:4"), 3)
        assert r3.status == "holds" and r3.witnesses["count_G"] == 3
        assert r3.witnesses["normalizer_order"] == 6

    def test_normal_sylow_trivial(self):
        r = check_mckay(named_group("Q:8"), 2)
        assert r.status == "holds"
        assert r.witnesses["count_G"] == r.witnesses["count_N"]


class TestDegreeConjectures:
    def test_s4_p2_numbers(self):
        r = check_degree_conjectures(named_group("S:4"), 2)
        assert r.status == "holds"
        assert r.witnesses["cd_P"] == [1, 2]
        assert r.witnesses["b"] == 1 and r.witnesses["f"] == 1
        assert r.witnesses["dl_P"] == 2

    def test_abelian(self):
        r = check_degree_conjectures(named_group("C:8"), 2)
        assert r.status == "holds" and r.witnesses["cd_P"] == [1]

    def test_s6_p2(self):
        r = check_degree_conjectures(named_group("S:6"), 2)
        assert r.status == "holds"
        assert len(r.witnesses["cd_P"]) <= len(r.witnesses["cd_p_G"]) + 1


class TestChainConjecture:
    def test_s4_p2(self):
        r = check_chain_conjecture(named_group("S:4"), 2)
        assert r.status == "holds"
        assert r.witnesses == {"chain_length": 1, "n": 1, "normalizer_order": 8}

    def test_normal_sylow_no_divisible_degrees(self):
        r = check_chain_conjecture(named_group("C:12"), 2)
        assert r.status == "holds" and r.witnesses["chain_length"] == 0

    def test_s5_p2(self):
        r = check_chain_conjecture(named_group("S:5"), 2)
        assert r.status == "holds"
        assert r.witnesses["chain_length"] == 2 and r.witnesses["n"] == 3


class TestHeightConjectures:
    def test_s3_p3_both_infinite(self):
        r = check_height_conjectures(named_group("S:3"), 3)
        assert r.status == "holds"
        assert r.witnesses["smallest_nontrivial"] == {"lhs": None, "rhs": None}

    def test_s4_p2_equality(self):
        r = check_height_conjectures(named_group("S:4"), 2)
        assert r.status == "holds"
        assert r.witnesses["smallest_nontrivial"] == {"lhs": 2, "rhs": 2}
        assert r.witnesses["height_set"] == [0, 1]

    def test_coprime_prime_skipped(self):
        r = check_height_conjectures(named_group("S:4"), 5)
        assert r.status == "skipped"


class TestVanishingProposition:
    def test_s3_p2(self):
        r = check_vanishing_proposition(named_group("S:3"), 2)
        assert r.status == "holds"
        assert "(2,3)" in r.witnesses["picky_classes"]
        assert r.witnesses["small_defect_characters"] == 1

    def test_single_block_vacuous(self):
        r = check_vanishing_proposition(named_group("S:4"), 2)
        assert r.status == "holds"
        assert r.witnesses["small_defect_characters"] == 0

    def test_s5_p2_sweep(self):
        assert check_vanishing_proposition(named_group("S:5"), 2).status == "holds"


class TestAlperinC:
    def test_s3_p3_literal(self):
        r = check_alperin_c(named_group("S:3"), 3)
        assert r.status == "holds" and r.witnesses["reading"] == "literal"
        assert r.witnesses["count_N"] == 3

    def test_a4_p3_needs_nonidentity_reading(self):
        r = check_alperin_c(named_group("A:4"), 3)
        assert r.status == "holds"
        assert r.witnesses["reading"] == "nonidentity"
        assert r.witnesses["count_literal"] == 4
        assert r.witnesses["count_nonidentity"] == 3 == r.witnesses["count_N"]

    def test_frobenius_f21_p7(self, full_catalog_groups):
        F21, _ = full_catalog_groups["F21"]
        r = check_alperin_c(F21, 7)
        assert r.status == "holds"

    def test_non_ti_skipped(self):
        r = check_alperin_c(named_group("S:4"), 2)
        assert r.status == "skipped"


class TestKbPrincipal:
    def test_examples(self):
        r = check_kb_principal(named_group("S:3"), 2)
        assert r.status == "holds"
        assert r.witnesses == {"principal_block_size": 2, "sylow_order": 2}
        assert check_kb_principal(named_group("C:8"), 2).status == "holds"
        r4 = check_kb_principal(named_group("S:4"), 2)
        assert r4.status == "holds" and r4.witnesses["principal_block_size"] == 5


class TestSignatures:
    def test_s4_signatures_at_4_cycle(self):
        T = character_table(named_group("S:4"))
        x = parse_perm("(1,2,3,4)", 4)
        sig = signatures(T, x, 2)
        assert list(sig) == ["degree", "plain", "strong", "ppart"]
        # four characters, all with odd degree and value +-1: one canonical
        # sign class, so the multiset is four copies of the same signature
        assert sig["strong"] == ((1, "c_1(0:1)"),) * 4
        assert all(item[0] == 1 and item[1] == 4 for item in sig["plain"])
        assert sig["ppart"] == ((1, (0, 1)),) * 4
        assert sig["degree"] == ((1,),) * 4

    def test_strong_side_by_side(self):
        # the fixture comparison: S4 vs its Sylow 2-normalizer at a 4-cycle
        S4 = named_group("S:4")
        from pickylab.permgroup import sylow_containing

        x = parse_perm("(1,2,3,4)", 4)
        _, N = sylow_containing(S4, 2, x)
        TG = character_table(S4)
        TN = character_table(N)
        assert signatures(TG, x, 2)["strong"] == signatures(TN, x, 2)["strong"]


def unmemoized_signatures(T, x, p):
    """The four signature multisets from their definitions, through the
    unmemoized invariants: the oracle for the memoized ``signatures``."""
    fingerprint = field_fingerprint.__wrapped__
    p_part_of = algebraic_p_part.__wrapped__
    j = T.class_index(x)
    values = [(d, row[j]) for d, row in zip(T.degrees, T.values) if not row[j].is_zero()]

    def dp(d):
        return p ** p_adic_valuation(d, p)

    def fp(v):
        f = fingerprint(v, x.order())
        return f.modulus, f.stabilizer

    def e(v):
        exponent = p_part_of(v, p).exponent
        return exponent.numerator, exponent.denominator

    return {
        "degree": tuple(sorted((dp(d),) for d, v in values)),
        "plain": tuple(sorted((dp(d), *fp(v)) for d, v in values)),
        "strong": tuple(sorted((dp(d), max(v.to_string(), (-v).to_string())) for d, v in values)),
        "ppart": tuple(sorted((dp(d), e(v)) for d, v in values)),
    }


class TestSignatureMemo:
    def test_memo_equals_the_unmemoized_oracle_on_fresh_tables(self):
        for entry in load_catalog("small"):
            G = entry.build()
            T = character_table(G)
            fresh = _table_from_scratch(PermGroup(G.generators, G.degree))
            for p in prime_factors(G.order):
                for c in T.classes:
                    x = c.representative
                    expected = unmemoized_signatures(fresh, x, p)
                    assert signatures(T, x, p) == expected, (entry.label, p, x)
                    assert signatures(T, x, p) == expected  # now from the memo

    def test_each_column_is_built_once_per_table_class_and_prime(self, monkeypatch):
        built = []
        original = conjectures._signature_column

        def counting(T, j, p, *args):
            built.append((T, j, p))  # holds T, so no id is reused
            return original(T, j, p, *args)

        monkeypatch.setattr(conjectures, "_signature_column", counting)
        # New tables, so that no memo entry comes from an earlier test.
        monkeypatch.setattr(chartab, "_shared_tables", {})
        for label in ("S:4", "S:5", "D:12"):
            G = named_group(label)
            for p in prime_factors(G.order):
                run_all_checks(G, p)
        keys = [(id(T), j, p) for T, j, p in built]
        assert keys and len(keys) == len(set(keys))

    def test_threads_read_one_stored_column(self, monkeypatch):
        # Threads racing on one new table may each build a column, but all
        # of them return the multisets that the table keeps.
        monkeypatch.setattr(chartab, "_shared_tables", {})
        T = character_table(named_group("S:5"))
        asks = [(c.representative, p) for c in T.classes for p in (2, 3, 5)]
        results = [None] * 8
        start = threading.Barrier(len(results))

        def ask(i):
            start.wait(timeout=60)
            results[i] = [signatures(T, x, p) for x, p in asks]

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(results))]
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
        assert len(T._cache) == len(asks)
        for x, p in asks:
            kept = T._cache[("signatures", T.class_index(x), p)]
            for result in results:
                got = result[asks.index((x, p))]
                assert all(got[v] is kept[v] for v in kept)

    def test_returned_dict_is_a_copy(self):
        T = character_table(named_group("S:4"))
        x = parse_perm("(1,2,3,4)", 4)
        first = signatures(T, x, 2)
        expected = dict(first)
        first["plain"] = ()
        del first["degree"]
        assert signatures(T, x, 2) == expected

    def test_forced_reverification_reads_neither_memo(self, monkeypatch):
        S4 = named_group("S:4")
        C4 = named_group("C:4")
        x = parse_perm("(1,2,3,4)", 4)
        for K in (S4, C4):
            T = character_table(K)
            signatures(T, x, 2)
            # Equal on both sides: a re-verification that read them would not
            # confirm the mismatch.
            for key in list(T._cache):
                monkeypatch.setitem(T._cache, key, dict.fromkeys(conjectures.VARIANTS, ()))
        memos = (field_fingerprint, algebraic_p_part)
        before = [f.cache_info() for f in memos]
        fresh_tables = []

        def recording(G):
            fresh_tables.append(original(G))
            return fresh_tables[-1]

        original = conjectures._table_from_scratch
        monkeypatch.setattr(conjectures, "_table_from_scratch", recording)
        assert _reverify_mismatch(S4, C4, x, 2, "plain")
        assert [f.cache_info() for f in memos] == before
        assert [T.group.order for T in fresh_tables] == [24, 4]
        assert all(T._cache == {} for T in fresh_tables)


class TestPickyConjecture:
    def test_s4_p2_all_variants(self):
        S4 = named_group("S:4")
        for variant in ("plain", "strong", "ppart"):
            r = check_picky_conjecture(S4, 2, variant)
            assert r.status == "holds", variant
        r = check_picky_conjecture(S4, 2, "strong")
        elements = {e["element"] for e in r.witnesses["picky_classes"]}
        assert elements == {"(3,4)", "(1,2,3,4)"}

    def test_abelian_identity_bijection(self):
        r = check_picky_conjecture(named_group("C:8"), 2, "strong")
        assert r.status == "holds"

    def test_vacuous_when_no_p_elements(self):
        r = check_picky_conjecture(named_group("S:4"), 5, "plain")
        assert r.status == "holds" and r.witnesses["vacuous"]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            check_picky_conjecture(named_group("S:4"), 2, "bogus")


class TestSubnormalizerConjecture:
    def test_s4_p2(self):
        r = check_subnormalizer_conjecture(named_group("S:4"), 2, "plain")
        assert r.status == "holds"
        by_element = {e["element"]: e for e in r.witnesses["classes"]}
        assert by_element["(1,2)(3,4)"]["subnormalizer_order"] == 24
        assert by_element["(1,2,3,4)"]["picky"] is True
        assert by_element["(1,2,3,4)"]["subnormalizer_order"] == 8
        assert by_element["(3,4)"]["picky"] is True

    def test_strong_variant_s4(self):
        assert check_subnormalizer_conjecture(named_group("S:4"), 2, "strong").status == "holds"


class TestFusionLemma:
    def test_s4_p2(self):
        r = check_fusion_lemma(named_group("S:4"), 2)
        assert r.status == "holds"
        counts = {e["element"]: e["class_members_in_sub"] for e in r.witnesses["classes"]}
        # all six 4-cycles of S4 lie in Sub = the order-8 Sylow's normalizer?
        # only the two generating the same C4 plus ... the engine counts them.
        assert counts["(1,2)(3,4)"] == 3  # Sub = S4 contains the whole class
        assert counts["(1,2,3,4)"] == 2  # x and x^-1 inside the D8

    def test_s5_p2_sweep(self):
        assert check_fusion_lemma(named_group("S:5"), 2).status == "holds"


class TestHarness:
    def test_run_all_composition(self):
        reports = run_all_checks(named_group("S:4"), 2, group_label="S4")
        names = [r.check_name for r in reports]
        assert names.count("picky_conjecture") == 3
        assert names.count("subnormalizer_conjecture") == 1
        assert "alperin_c" not in names  # precondition not met, not applicable
        assert all(r.status == "holds" for r in reports)

    def test_run_all_includes_alperin_for_ti(self):
        reports = run_all_checks(named_group("A:4"), 3, group_label="A4")
        assert any(r.check_name == "alperin_c" for r in reports)
        assert all(r.status == "holds" for r in reports)

    def test_ti_is_decided_once_per_group_and_prime(self, monkeypatch):
        # run_all_checks asks whether alperin_c applies and check_alperin_c
        # asks again; only the first question may scan the Sylow subgroup.
        scans = 0
        inside_ti = False
        elements, is_ti_sylow = PermGroup.elements, conjectures.is_ti_sylow

        def counting_elements(self):
            nonlocal scans
            scans += inside_ti
            return elements(self)

        def watched_is_ti_sylow(G, p):
            nonlocal inside_ti
            inside_ti = True
            try:
                return is_ti_sylow(G, p)
            finally:
                inside_ti = False

        monkeypatch.setattr(PermGroup, "elements", counting_elements)
        monkeypatch.setattr(conjectures, "is_ti_sylow", watched_is_ti_sylow)
        reports = run_all_checks(named_group("A:4"), 3)
        assert any(r.check_name == "alperin_c" for r in reports)
        assert scans == 1

    def test_run_check_dispatch(self):
        r = run_check("mckay", named_group("S:4"), 2, group_label="S4")
        assert isinstance(r, CheckReport) and r.check_name == "mckay"
        with pytest.raises(ValueError):
            run_check("nonsense", named_group("S:4"), 2)

    def test_check_call_forms(self):
        S4 = named_group("S:4")
        by_position = check_picky_conjecture(S4, 2, "strong", group_label="S4")
        by_keyword = check_picky_conjecture(S4, 2, variant="strong", group_label="S4")
        assert by_position.group_label == by_keyword.group_label == "S4"
        assert by_position.witnesses == by_keyword.witnesses
        assert by_position.witnesses["variant"] == "strong"
        with pytest.raises(InvalidArgument, match="variant must be one of"):
            check_subnormalizer_conjecture(S4, 2, variant="bogus")
        with pytest.raises(InvalidArgument, match="choose from ito_michler, .* or 'all'"):
            run_check("nonsense", S4, 2)

    def test_report_serialization_excludes_timing_by_default(self):
        r = run_check("mckay", named_group("S:4"), 2)
        assert "runtime_ms" not in r.to_json_dict()
        assert "runtime_ms" in r.to_json_dict(include_timing=True)

    def test_reverify_helper_confirms_real_mismatches(self):
        # two genuinely different character tables at a shared element
        S4 = named_group("S:4")
        C4 = named_group("C:4")
        x = parse_perm("(1,2,3,4)", 4)
        assert _reverify_mismatch(S4, C4, x, 2, "plain")

    def test_reverification_rebuilds_both_tables(self, monkeypatch):
        S4 = named_group("S:4")
        C4 = named_group("C:4")
        character_table(S4)
        character_table(C4)
        built = []
        original = chartab._build_table

        def counting_build(G):
            built.append(G.order)
            return original(G)

        monkeypatch.setattr(chartab, "_build_table", counting_build)
        x = parse_perm("(1,2,3,4)", 4)
        assert _reverify_mismatch(S4, C4, x, 2, "plain")
        assert built == [24, 4]
