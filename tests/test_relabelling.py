"""Relabelling invariance.

Conjugating a group by a permutation of its points only renames the points,
so no labelling-free invariant may change.  The stabilizer chain takes its
base points from the labelling (the smallest moved points), so a relabelled
group runs the kernel, the known-order exit of chain_length and the
subnormalizer scan on different bases, transversals and element orders,
the character table build on different class representatives and
class matrices, and the signatures of Irr^x(G) (field fingerprints, value
strings and p-parts, all pushed down to their minimal conductors) on
different values of x."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickylab.blocks import block_partition
from pickylab.chartab import _build_table
from pickylab.cli import load_catalog
from pickylab.conjectures import signatures
from pickylab.permgroup import Perm, conjugacy_classes, sylow_data
from pickylab.subnorm import chain_length, p_element_class_representatives, subnormalizer_subgroup

ENTRIES = {entry.label: entry for entry in load_catalog("small")}


def table_invariants(T, primes):
    blocks = {}
    for p in primes:
        bp = block_partition(T, p)
        blocks[p] = sorted(
            (b.defect, sorted(T.degrees[i] for i in b.indices), b.height_set) for b in bp.blocks
        )
    return (
        T.k,
        sorted((c.size, c.element_order) for c in T.classes),
        sorted(T.degrees),
        sorted(v.to_string() for row in T.values for v in row),
        blocks,
    )


def invariants(G, primes):
    classes = sorted((c.representative.cycle_type(), c.size) for c in conjugacy_classes(G))
    # The build is the part of the table layer that sees the labelling; the
    # verification after it reads only values (C12's takes 0.15 s of 0.17).
    T = _build_table(G)
    per_prime = {}
    for p in primes:
        data = sylow_data(G, p)
        reps = p_element_class_representatives(G, p)
        subnormalizers = sorted((x.cycle_type(), subnormalizer_subgroup(G, x).order) for x in reps)
        multisets = sorted((x.cycle_type(), list(signatures(T, x, p).items())) for x in reps)
        per_prime[p] = (
            data.count,
            data.normalizer.order,
            chain_length(G, data.normalizer),
            # From P itself the recursion passes through more subgroups.
            chain_length(G, data.subgroup),
            subnormalizers,
            multisets,
        )
    return G.order, classes, per_prime, table_invariants(T, primes)


@cache
def shipped_invariants(label):
    entry = ENTRIES[label]
    G = entry.build()
    return invariants(G, entry.effective_primes(G))


@pytest.mark.parametrize("label", sorted(ENTRIES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_relabelled_group_has_the_same_invariants(label, data):
    entry = ENTRIES[label]
    G = entry.build()
    sigma = Perm(data.draw(st.permutations(range(G.degree)), label="relabelling"))
    relabelled = G.conjugate_subgroup(sigma)
    assert invariants(relabelled, entry.effective_primes(G)) == shipped_invariants(label)
