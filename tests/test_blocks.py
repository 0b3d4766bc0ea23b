"""Brauer block partitions, defects, and heights."""

import pytest

from pickylab.blocks import block_partition, blocks_json, principal_block
from pickylab.chartab import character_table
from pickylab.errors import InvalidArgument
from pickylab.exactnum import Cyclotomic, p_adic_valuation, prime_factors
from pickylab.permgroup import named_group


def brute_link_sum(G, T, i, l, p):
    """Independent linking oracle: sum chi(g) psi(g^-1) over the p-regular
    elements of G, T its table, one element at a time, via the class map."""
    total = Cyclotomic.from_rational(0)
    for g in G.elements():
        if g.order() % p == 0:
            continue
        j = T.class_index(g)
        jinv = T.class_index(g.inverse())
        total = total + T.values[i][j] * T.values[l][jinv]
    return total


def classwise_blocks(T, p):
    """Definition-level reference for block_partition: Osima's link sum
    sum_j |C_j| chi_i(g_j) chi_l(g_j^-1) over the p-regular classes in
    Cyclotomic arithmetic, components of the link graph, and each block's
    defect and heights from the degree p-parts.  Returns the sorted list of
    (rows, defect, heights by row)."""
    k = T.k
    regular = [j for j, c in enumerate(T.classes) if c.element_order % p]
    linked = {i: {i} for i in range(k)}
    for i in range(k):
        for l in range(i + 1, k):
            s = Cyclotomic.from_rational(0)
            for j in regular:
                s = s + T.values[i][j] * T.values[l][T.inverse_classes[j]] * T.classes[j].size
            if not s.is_zero():
                merged = linked[i] | linked[l]
                for r in merged:
                    linked[r] = merged
    a = p_adic_valuation(T.order, p)
    out = []
    for rows in {frozenset(c) for c in linked.values()}:
        vals = {i: p_adic_valuation(T.degrees[i], p) for i in rows}
        d = a - min(vals.values())
        out.append((sorted(rows), d, {i: vals[i] - (a - d) for i in rows}))
    return sorted(out, key=lambda b: b[0])


def engine_blocks(T, p):
    bp = block_partition(T, p)
    return sorted(((sorted(b.indices), b.defect, b.heights) for b in bp.blocks), key=lambda b: b[0])


class TestAgainstClasswiseSums:
    def test_catalog_groups_at_every_prime(self, full_catalog_groups):
        # The small catalog's entries are full catalog entries too.
        for label, (G, primes) in full_catalog_groups.items():
            T = character_table(G)
            for p in primes:
                assert engine_blocks(T, p) == classwise_blocks(T, p), (label, p)

    @pytest.mark.parametrize("source", ["S:8", "C:24"])
    def test_at_every_prime_of_the_order(self, source):
        T = character_table(named_group(source))
        for p in prime_factors(T.order) + (11,):
            assert engine_blocks(T, p) == classwise_blocks(T, p), (source, p)


class TestS3Fixtures:
    def test_p2(self):
        T = character_table(named_group("S:3"))
        bp = block_partition(T, 2)
        assert bp.a == 1
        assert len(bp.blocks) == 2
        b0 = principal_block(bp)
        assert sorted(T.degrees[i] for i in b0.indices) == [1, 1]
        assert b0.defect == 1 and b0.height_set == (0,)
        other = next(b for b in bp.blocks if not b.is_principal)
        assert [T.degrees[i] for i in other.indices] == [2]
        assert other.defect == 0

    def test_p2_link_sums_elementwise(self):
        # the three pairwise p-regular sums are 6, 0, 0 over elements
        # (class-weighted: 3, 0, 0 against |C_e| = 1, |C_3cyc| = 2)
        G = named_group("S:3")
        T = character_table(G)
        s01 = brute_link_sum(G, T, 0, 1, 2)
        s02 = brute_link_sum(G, T, 0, 2, 2)
        s12 = brute_link_sum(G, T, 1, 2, 2)
        assert s01 == 3 and s02.is_zero() and s12.is_zero()

    def test_p3(self):
        T = character_table(named_group("S:3"))
        bp = block_partition(T, 3)
        assert len(bp.blocks) == 1
        b0 = principal_block(bp)
        assert b0.defect == 1
        assert sorted(b0.heights.values()) == [0, 0, 0]

    def test_coprime_prime_gives_singletons(self):
        T = character_table(named_group("S:3"))
        bp = block_partition(T, 5)
        assert len(bp.blocks) == T.k
        assert all(b.defect == 0 and len(b) == 1 for b in bp.blocks)


class TestPartitionProperties:
    def test_partition_is_edge_order_independent(self, small_catalog_groups):
        # recompute components from independently computed element-wise sums
        for label, (G, primes) in small_catalog_groups.items():
            if G.order > 30:
                continue
            T = character_table(G)
            for p in primes:
                bp = block_partition(T, p)
                k = T.k
                parent = list(range(k))

                def find(x):
                    while parent[x] != x:
                        x = parent[x]
                    return x

                for i in range(k):
                    for l in range(i + 1, k):
                        if not brute_link_sum(G, T, i, l, p).is_zero():
                            parent[find(l)] = find(i)
                brute_blocks = {}
                for i in range(k):
                    brute_blocks.setdefault(find(i), set()).add(i)
                assert sorted(map(sorted, brute_blocks.values())) == sorted(
                    sorted(b.indices) for b in bp.blocks
                )

    def test_defect_zero_iff_singleton(self, small_catalog_groups):
        for label, (G, primes) in small_catalog_groups.items():
            T = character_table(G)
            for p in primes:
                for b in block_partition(T, p).blocks:
                    assert (b.defect == 0) == (len(b) == 1)
                    if b.defect == 0:
                        (i,) = b.indices
                        a = block_partition(T, p).a
                        assert p_adic_valuation(T.degrees[i], p) == a if T.degrees[i] % p == 0 else a == 0

    def test_principal_defect_is_full(self, small_catalog_groups):
        for label, (G, primes) in small_catalog_groups.items():
            T = character_table(G)
            for p in primes:
                bp = block_partition(T, p)
                assert principal_block(bp).defect == bp.a

    def test_heights_have_zero(self, small_catalog_groups):
        for label, (G, primes) in small_catalog_groups.items():
            T = character_table(G)
            for p in primes:
                for b in block_partition(T, p).blocks:
                    assert 0 in b.height_set

    def test_s4_p2_heights_by_degree_arithmetic(self):
        T = character_table(named_group("S:4"))
        bp = block_partition(T, 2)
        b0 = principal_block(bp)
        # single block: heights follow from chi(1)_2 = 2^(a-d+h), a = d = 3
        assert len(bp.blocks) == 1
        expected = {
            i: (p_adic_valuation(T.degrees[i], 2) if T.degrees[i] % 2 == 0 else 0)
            for i in b0.indices
        }
        assert b0.heights == expected
        assert b0.height_set == (0, 1)

    def test_json_shape(self):
        T = character_table(named_group("S:3"))
        data = blocks_json(T, block_partition(T, 2))
        assert data["format"] == 1
        assert data["blocks"][0]["principal"] is True
        assert data["blocks"][0]["degrees"] == [1, 1]


@pytest.mark.parametrize("p", [-2, 0, 1, 4, 6])
def test_non_prime_is_refused(p):
    with pytest.raises(InvalidArgument, match="not a prime"):
        block_partition(character_table(named_group("S:4")), p)
