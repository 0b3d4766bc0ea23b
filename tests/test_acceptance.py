"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 is split: the two value multisets (S16 vs S8 wr C2 at an
8-cycle) must be identical, which passes; the reproduction of the
17 externally reported rows is also asserted verbatim, and is an expected
failure because those rows are internally inconsistent (see
test_criterion_1_reported_rows and the repository notes): they contradict
the odd-degree character count of S16 and the parity forced by
conjugate-partition pairing at an odd permutation.  The engine's multiset
is confirmed by the independent generic-table engine at the S8 / S4 wr C2
scale, where both sides are fully checkable.
"""

import json
import time
from pathlib import Path

import pytest

from pickylab.blocks import block_partition, principal_block
from pickylab.chartab import _dixon_table, _verify_table, character_table
from pickylab.cli import run_batch
from pickylab.conjectures import run_all_checks, run_check
from pickylab.errors import EngineDefect
from pickylab.permgroup import named_group
from pickylab.subnorm import covering_analysis, p_element_class_representatives, picky_report
from pickylab.symfast import mn_value, partitions, table1_report, table1_rows

ROOT = Path(__file__).resolve().parents[1]

THEOREM_CHECKS = {
    "ito_michler",
    "normality_via_qblocks",
    "vanishing_proposition",
    "alperin_c",
    "fusion_lemma",
}
CONJECTURE_CHECKS = {
    "mckay",
    "degree_conjectures",
    "chain_conjecture",
    "height_conjectures",
    "kb_principal",
    "picky_conjecture",
    "subnormalizer_conjecture",
}

# The 17 rows of the externally reported S16-at-an-8-cycle table.
REPORTED_TABLE1_ROWS = [
    (1, 1, 4),
    (7, 1, 2),
    (35, 1, 2),
    (6, 2, 1),
    (14, 2, 2),
    (20, 2, 1),
    (28, 2, 2),
    (34, 2, 1),
    (36, 2, 1),
    (14, 4, 8),
    (42, 4, 5),
    (70, 4, 6),
    (90, 4, 2),
    (20, 8, 6),
    (28, 8, 7),
    (56, 16, 6),
    (64, 128, 9),
]


@pytest.fixture(scope="module")
def catalog_reports(full_catalog_groups):
    """All check reports for every (catalog entry, prime)."""
    out = {}
    for label, (G, primes) in full_catalog_groups.items():
        for p in primes:
            out[(label, p)] = run_all_checks(G, p, group_label=label)
    return out


class TestCriterion1Table1:
    def test_criterion_1_multisets_identical(self):
        t0 = time.monotonic()
        rep = table1_report()
        elapsed = time.monotonic() - t0
        assert rep["equal"], "S16 and S8 wr C2 value multisets differ"
        assert rep["equal_signed"], "even the signed multisets must agree for p = 2"
        assert rep["left"][(1, 1)] == 4  # the anchored odd-degree row
        assert elapsed <= 60.0
        print(f"\nACCEPTANCE 1a (multiset equality, {elapsed:.2f}s): PASS")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the 17 reported rows are internally inconsistent: S16 has 16 "
            "odd-degree irreducibles (binary-digit count), all nonvanishing "
            "at 2-elements, but the reported odd-degree rows sum to 8; odd "
            "multiplicities are impossible at an odd permutation because "
            "conjugate-partition pairs contribute equal (value, 2-part) keys. "
            "The engine multiset is independently cross-checked against the "
            "generic character-table engine at the S8 / S4 wr C2 scale.  See "
            "the repository notes for the full analysis."
        ),
    )
    def test_criterion_1_reported_rows(self):
        rows = table1_rows()
        print(f"\nACCEPTANCE 1b (reported row reproduction): FAILS (expected; see notes)")
        assert rows == REPORTED_TABLE1_ROWS


class TestCriterion2Orthogonality:
    def test_criterion_2_exact_orthogonality(self, full_catalog_groups):
        checked = 0
        for label, (G, _) in full_catalog_groups.items():
            if G.order > 2000:
                continue
            T = character_table(G)
            _verify_table(T)  # row + column orthogonality, exact
            assert sum(d * d for d in T.degrees) == G.order
            checked += 1
        assert checked >= 15
        print(f"\nACCEPTANCE 2 (orthogonality oracle, {checked} groups): PASS")


class TestCriterion3BlockFixtures:
    def test_criterion_3_s3_blocks(self):
        T = character_table(named_group("S:3"))
        bp2 = block_partition(T, 2)
        b0 = principal_block(bp2)
        assert len(b0) == 2 and b0.defect == 1
        rest = next(b for b in bp2.blocks if not b.is_principal)
        assert [T.degrees[i] for i in rest.indices] == [2] and rest.defect == 0
        bp3 = block_partition(T, 3)
        assert len(bp3.blocks) == 1
        only = bp3.blocks[0]
        assert only.defect == 1 and sorted(only.heights.values()) == [0, 0, 0]
        print("\nACCEPTANCE 3 (derived block fixture): PASS")


class TestCriterion4TheoremSuite:
    def test_criterion_4_theorem_checks(self, full_catalog_groups, catalog_reports):
        failures = []
        for (label, p), reports in catalog_reports.items():
            G, _ = full_catalog_groups[label]
            if G.order > 2000:
                continue
            for r in reports:
                if r.check_name in THEOREM_CHECKS and r.status == "fails":
                    failures.append((label, p, r.check_name, r.witnesses))
        assert not failures, f"theorem checks failed: {failures}"
        print("\nACCEPTANCE 4a (theorem checks, orders <= 2000): PASS")

    def test_criterion_4_lemma_sweeps_exhaustive(self, small_catalog_groups):
        # Lemma sweeps at orders <= 200: covering equivalence, the two
        # subnormalizer containment laws, and local fusion, for every
        # p-element class of every group.  The equivalences are asserted
        # inside the operations; a defect raises EngineDefect.
        for label, (G, primes) in small_catalog_groups.items():
            for p in primes:
                covering_analysis(G, p)
                for x in p_element_class_representatives(G, p):
                    picky_report(G, p, x)
                r = run_check("fusion_lemma", G, p, group_label=label)
                assert r.status == "holds", (label, p, r.witnesses)
        print("\nACCEPTANCE 4b (lemma sweeps, orders <= 200): PASS")


class TestCriterion5ConjectureSweep:
    def test_criterion_5_conjectures_hold_on_catalog(self, catalog_reports):
        bad = []
        for (label, p), reports in catalog_reports.items():
            for r in reports:
                if r.check_name in CONJECTURE_CHECKS and r.status != "holds":
                    bad.append((label, p, r.check_name, r.status, r.witnesses))
        assert not bad, f"conjecture checks not holding: {bad}"
        # the picky comparison ran in all three variants on every entry
        for (label, p), reports in catalog_reports.items():
            variants = {
                r.witnesses.get("variant")
                for r in reports
                if r.check_name == "picky_conjecture"
            }
            assert variants == {"plain", "strong", "ppart"}
        print("\nACCEPTANCE 5 (conjecture sweep, full catalog): PASS")


class TestCriterion6StrongPickySymmetric:
    def test_criterion_6_strong_picky_s_n(self):
        t0 = time.monotonic()
        for n in range(3, 9):
            G = named_group(f"S:{n}")
            for p in (2, 3):
                r = run_check(
                    "picky_conjecture", G, p, group_label=f"S:{n}", variant="strong"
                )
                assert r.status == "holds", (n, p, r.witnesses)
        elapsed = time.monotonic() - t0
        assert elapsed <= 600.0
        print(f"\nACCEPTANCE 6 (strong picky, S_n n <= 8, p in 2,3, {elapsed:.1f}s): PASS")


class TestCriterion7CrossImplementation:
    def test_criterion_7_symfast_matches_generic(self):
        for n in range(1, 9):
            G = named_group(f"S:{n}")
            # Dixon's build by name: character_table takes Sym(n)'s values
            # from symfast itself.
            T = _dixon_table(G)
            _verify_table(T)
            types = [c.representative.cycle_type(include_fixed=True) for c in T.classes]
            generic = set()
            for i in range(T.k):
                row = []
                for j in range(T.k):
                    v = T.values[i][j]
                    assert v.is_rational() and v.rational_value().denominator == 1
                    row.append((types[j], int(v.rational_value())))
                generic.add(tuple(sorted(row)))
            strips = {
                tuple(sorted((mu, mn_value(lam, mu)) for mu in types))
                for lam in partitions(n)
            }
            assert generic == strips, f"S_{n} values disagree"
        print("\nACCEPTANCE 7 (cross-implementation oracle, n <= 8): PASS")


class TestCriterion8Determinism:
    def test_criterion_8_batch_byte_identical(self):
        a = json.dumps(run_batch("full"), sort_keys=True, separators=(",", ":"))
        b = json.dumps(run_batch("full"), sort_keys=True, separators=(",", ":"))
        assert a == b
        # The recorded output of the benchmark's reference run.
        assert a == (ROOT / "perfbench" / "reference" / "full_batch.json").read_text()
        print("\nACCEPTANCE 8 (batch determinism, full catalog): PASS")
