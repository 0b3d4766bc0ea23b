"""Symmetric-group character values by border strips, wreath-square labels,
and the S16 vs S8 wr C2 value comparison.

The recursion never takes the hook-length shortcut, so evaluating at the
identity cycle type is a genuine cross-check of two different formulas.
"""

from fractions import Fraction
from math import factorial

import pytest

from pickylab.chartab import _dixon_table
from pickylab.errors import InvalidArgument
from pickylab.permgroup import named_group
from pickylab.symfast import (
    WreathLabel,
    degree,
    mn_value,
    partitions,
    table1_report,
    table1_rows,
    wreath_degree,
    wreath_labels,
    wreath_value_at_base,
)


class TestPartitions:
    def test_counts(self):
        assert [len(partitions(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
        assert len(partitions(16)) == 231

    def test_descending_order_and_validity(self):
        ps = partitions(6)
        assert ps[0] == (6,) and ps[-1] == (1,) * 6
        for lam in ps:
            assert sum(lam) == 6
            assert all(a >= b for a, b in zip(lam, lam[1:]))


class TestDegrees:
    def test_examples(self):
        assert degree((16,)) == 1
        assert degree((15, 1)) == 15
        assert degree((4, 4)) == 14
        assert degree((2, 1)) == 2

    def test_sum_of_squares_is_group_order(self):
        for n in (4, 8, 16):
            assert sum(degree(l) ** 2 for l in partitions(n)) == factorial(n)


class TestMurnaghanNakayama:
    def test_principal_character(self):
        for mu in [(8,) + (1,) * 8, (16,), (2,) * 8]:
            assert mn_value((16,), mu) == 1

    def test_sign_character_at_8_cycle(self):
        assert mn_value((1,) * 16, (8,) + (1,) * 8) == -1

    def test_standard_character_counts_fixed_points(self):
        assert mn_value((15, 1), (8,) + (1,) * 8) == 7
        assert mn_value((5, 1), (3, 1, 1, 1)) == 2

    def test_identity_recovers_hook_length_degrees(self):
        # the full dual-route check: border-strip recursion vs hook products,
        # for every partition of every n up to 16
        for n in range(1, 17):
            for lam in partitions(n):
                assert mn_value(lam, (1,) * n) == degree(lam)

    def test_fixed_points_optional(self):
        assert mn_value((15, 1), (8,)) == mn_value((15, 1), (8,) + (1,) * 8)

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            mn_value((3, 1), (5,))

    def test_conjugate_partition_sign_twist(self):
        mu = (8,) + (1,) * 8  # an odd permutation
        for lam in [(15, 1), (8, 8), (14, 1, 1)]:
            conj = tuple(
                sum(1 for p in lam if p > i) for i in range(lam[0])
            )
            assert mn_value(conj, mu) == -mn_value(lam, mu)

    def test_agreement_with_generic_tables(self):
        # column-by-column agreement for small symmetric groups
        for n in (3, 4, 5):
            G = named_group(f"S:{n}")
            T = _dixon_table(G)  # character_table reads symfast for Sym(n)
            types = [c.representative.cycle_type(include_fixed=True) for c in T.classes]
            generic_rows = {
                tuple(sorted((types[j], T.values[i][j].rational_value()) for j in range(T.k)))
                for i in range(T.k)
            }
            strip_rows = {
                tuple(sorted((mu, Fraction(mn_value(lam, mu))) for mu in types))
                for lam in partitions(n)
            }
            assert generic_rows == strip_rows


class TestWreathLabels:
    def test_count(self):
        assert len(wreath_labels(8)) == 275  # C(22, 2) + 2 * 22

    def test_degree_sum(self):
        assert sum(wreath_degree(l) ** 2 for l in wreath_labels(8)) == 2 * factorial(8) ** 2

    def test_example_values(self):
        pair = WreathLabel((8,), (1,) * 8, None)
        assert wreath_value_at_base(pair, (8,), (1,) * 8) == 0  # 1*1 + 1*(-1)
        diag = WreathLabel((8,), (8,), 0)
        assert wreath_value_at_base(diag, (8,), (1,) * 8) == 1
        assert wreath_degree(diag) == 1
        mixed = WreathLabel((7, 1), (8,), None)
        # chi_(7,1)(c8) * 1 + 7 * chi_(8)(c8) = -1 + 7
        assert wreath_value_at_base(mixed, (8,), (1,) * 8) == 6

    def test_extensions_agree_on_base(self):
        for alpha in partitions(4):
            e0 = WreathLabel(alpha, alpha, 0)
            e1 = WreathLabel(alpha, alpha, 1)
            for g1 in partitions(4):
                for g2 in partitions(4):
                    assert wreath_value_at_base(e0, g1, g2) == wreath_value_at_base(e1, g1, g2)


class TestTable1:
    def test_multisets_agree(self):
        rep = table1_report()
        assert rep["equal"]
        assert rep["equal_signed"]

    def test_engine_values(self):
        # frozen against the independently verified engine (the generic
        # table path reproduces these multisets exactly at the S8 scale)
        rep = table1_report()
        left = rep["left"]
        assert left[(1, 1)] == 4
        assert left[(7, 1)] == 4
        assert left[(21, 1)] == 4
        assert left[(35, 1)] == 4
        assert left[(56, 16)] == 16
        assert left[(64, 128)] == 16
        assert sum(left.values()) == 152
        # odd-degree characters: 16 of them (the binary count for n = 16),
        # all nonvanishing at a 2-element
        assert sum(m for (v, t), m in left.items() if t == 1) == 16

    def test_rows_sorted(self):
        rows = table1_rows()
        assert rows[0] == (1, 1, 4)
        keys = [(t, v) for v, t, m in rows]
        assert keys == sorted(keys)
