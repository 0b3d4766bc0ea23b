"""Brauer p-blocks from the character table.

Two irreducible characters chi_i, chi_l are linked when Osima's sum
sum_j |C_j| chi_i(g_j) chi_l(g_j^-1) over the p-regular classes is
nonzero; the blocks are the connected components of that graph.  The sums
are taken on integers: every table value is an algebraic integer whose
conductor divides e, the lcm of the table's conductors, so it is lifted
once to integer terms m * zeta_e**t (zeta_c = zeta_e**(e/c)).  Each sum is
accumulated as an integer polynomial modulo x**e - 1 and reduced modulo
the e-th cyclotomic polynomial once, and it vanishes exactly when every
reduced coordinate is 0.  Defect numbers and heights come from the degree
p-parts: chi(1)_p = p^(a - d + h) with a = v_p(|G|), d the block defect
and h >= 0 the height.  Defect groups are only constructed for the
principal block, where they are the Sylow p-subgroups; other blocks carry
the defect number alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .chartab import CharacterTable
from .errors import EngineDefect, InvalidArgument
from .exactnum import integer_terms, is_prime, p_adic_valuation, reduce_at_level

# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One p-block: character row indices with defect and heights."""

    indices: tuple[int, ...]
    defect: int
    heights: dict[int, int]
    height_set: tuple[int, ...]
    is_principal: bool

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class BlockPartition:
    prime: int
    a: int  # v_p(|G|)
    blocks: tuple[Block, ...]


def block_partition(T: CharacterTable, p: int) -> BlockPartition:
    """The p-block partition of Irr(G), with defects and heights."""
    key = ("blocks", p)
    if key in T._cache:
        return T._cache[key]
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not a prime")
    k = T.k
    a = p_adic_valuation(T.order, p)
    regular = [j for j, c in enumerate(T.classes) if c.element_order % p != 0]
    inv = T.inverse_classes
    e = lcm(*(v.conductor for row in T.values for v in row))
    # Row i's terms weighted by |C_j|, and row l's terms at the inverse class.
    weighted = [
        [[(t, m * T.classes[j].size) for t, m in integer_terms(row[j], e)] for j in regular]
        for row in T.values
    ]
    at_inverse = [[integer_terms(row[inv[j]], e) for j in regular] for row in T.values]

    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for l in range(i + 1, k):
            if find(i) == find(l):
                continue
            acc = [0] * e
            for left, right in zip(weighted[i], at_inverse[l]):
                for t, m in left:
                    for u, n in right:
                        acc[(t + u) % e] += m * n
            if any(reduce_at_level(e, acc)):
                parent[find(l)] = find(i)

    comps: dict[int, list[int]] = {}
    for i in range(k):
        comps.setdefault(find(i), []).append(i)

    blocks = []
    for rows in sorted(comps.values(), key=lambda rs: rs[0]):
        vals = {i: p_adic_valuation(T.degrees[i], p) for i in rows}
        d = a - min(vals.values())
        heights = {i: vals[i] - (a - d) for i in rows}
        hset = tuple(sorted(set(heights.values())))
        if 0 not in hset:
            raise EngineDefect("block without height-zero characters")
        if (len(rows) == 1) != (d == 0):
            raise EngineDefect(
                f"defect-{d} block with {len(rows)} characters contradicts "
                "the defect-zero criterion"
            )
        blocks.append(
            Block(
                indices=tuple(rows),
                defect=d,
                heights=heights,
                height_set=hset,
                is_principal=0 in rows,
            )
        )
    bp = BlockPartition(prime=p, a=a, blocks=tuple(blocks))
    T._cache[key] = bp
    return bp


def principal_block(bp: BlockPartition) -> Block:
    """The block containing the principal character; its defect groups are
    the Sylow p-subgroups, so its defect equals a."""
    for b in bp.blocks:
        if b.is_principal:
            if b.defect != bp.a:
                raise EngineDefect("principal block defect differs from v_p(|G|)")
            return b
    raise EngineDefect("no principal block")


def blocks_json(T: CharacterTable, bp: BlockPartition) -> dict:
    return {
        "format": 1,
        "prime": bp.prime,
        "a": bp.a,
        "blocks": [
            {
                "degrees": [T.degrees[i] for i in b.indices],
                "defect": b.defect,
                "heights": [b.heights[i] for i in b.indices],
                "principal": b.is_principal,
            }
            for b in bp.blocks
        ],
    }
