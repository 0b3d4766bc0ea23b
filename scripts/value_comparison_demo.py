#!/usr/bin/env python3
"""Print the S16 vs S8 wr C2 character-value comparison at an 8-cycle,
then replay the same comparison at the fully checkable S8 / S4 wr C2 scale
through the generic character-table engine as an independent confirmation.
"""

from collections import Counter

from pickylab.chartab import character_table
from pickylab.exactnum import p_adic_valuation
from pickylab.permgroup import named_group, parse_perm
from pickylab.symfast import table1_report, table1_rows


def main():
    rep = table1_report()
    print("S16 at an 8-cycle vs S8 wr C2 at (8-cycle, id):")
    print(f"  multisets equal: {rep['equal']}   signed: {rep['equal_signed']}")
    print("  value  2-part  multiplicity")
    for v, t, m in table1_rows(rep):
        print(f"  {v:5d}  {t:6d}  {m:4d}")
    print(f"  total nonvanishing per side: {sum(rep['left'].values())}")

    # Reduced-scale replay with the generic engine on real permutation groups.
    S8 = named_group("S:8")
    T8 = character_table(S8)
    x = parse_perm("(1,2,3,4)", 8)
    j = T8.class_index(x)
    left = Counter()
    for i in range(T8.k):
        v = T8.values[i][j]
        if not v.is_zero():
            left[(abs(int(v.rational_value())), 2 ** p_adic_valuation(T8.degrees[i], 2))] += 1

    W = named_group("wr:S:4~C:2")
    TW = character_table(W)
    jw = TW.class_index(x)
    right = Counter()
    for i in range(TW.k):
        v = TW.values[i][jw]
        if not v.is_zero():
            right[(abs(int(v.rational_value())), 2 ** p_adic_valuation(TW.degrees[i], 2))] += 1

    print("\nReduced-scale confirmation (generic engine): S8 at a 4-cycle")
    print(f"  multisets equal: {left == right}")
    for (v, t), m in sorted(left.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"  {v:5d}  {t:6d}  {m:4d}")


if __name__ == "__main__":
    main()
