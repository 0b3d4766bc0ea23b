#!/usr/bin/env python3
"""Print the S16 vs S8 wr C2 character-value comparison at an 8-cycle,
then replay the same comparison at the fully checkable S8 / S4 wr C2 scale
through the generic character-table engine as an independent confirmation.

The replay builds S8's table by Dixon's method (``chartab._dixon_table``),
not through ``character_table``, which takes Sym(n)'s values from the same
border-strip rule as the S16 comparison.
"""

from collections import Counter

from pickylab.chartab import _dixon_table, _verify_table, character_table
from pickylab.exactnum import p_adic_valuation
from pickylab.permgroup import named_group, parse_perm
from pickylab.symfast import table1_report, table1_rows


def s16_comparison():
    rep = table1_report()
    print("S16 at an 8-cycle vs S8 wr C2 at (8-cycle, id):")
    print(f"  multisets equal: {rep['equal']}   signed: {rep['equal_signed']}")
    print("  value  2-part  multiplicity")
    for v, t, m in table1_rows(rep):
        print(f"  {v:5d}  {t:6d}  {m:4d}")
    print(f"  total nonvanishing per side: {sum(rep['left'].values())}")


def _tally(T, x):
    """(|value|, 2-part of the degree) multiset of the nonzero values at x."""
    j = T.class_index(x)
    out = Counter()
    for i in range(T.k):
        v = T.values[i][j]
        if not v.is_zero():
            out[(abs(int(v.rational_value())), 2 ** p_adic_valuation(T.degrees[i], 2))] += 1
    return out


def s8_replay():
    """The reduced-scale replay with the generic engine on real
    permutation groups."""
    T8 = _dixon_table(named_group("S:8"))
    _verify_table(T8)
    x = parse_perm("(1,2,3,4)", 8)
    left = _tally(T8, x)
    right = _tally(character_table(named_group("wr:S:4~C:2")), x)

    print("\nReduced-scale confirmation (generic engine): S8 at a 4-cycle")
    print(f"  multisets equal: {left == right}")
    for (v, t), m in sorted(left.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"  {v:5d}  {t:6d}  {m:4d}")


def main():
    s16_comparison()
    s8_replay()


if __name__ == "__main__":
    main()
