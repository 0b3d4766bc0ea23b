"""Relabelling invariance.

Conjugating a group by a permutation of its points only renames the points,
so no labelling-free invariant may change.  The stabilizer chain takes its
base points from the labelling (the smallest moved points), so a relabelled
group runs the kernel, the known-order exit of chain_length and the
subnormalizer scan on different bases, transversals and element orders."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickylab.cli import load_catalog
from pickylab.permgroup import Perm, conjugacy_classes, sylow_data
from pickylab.subnorm import chain_length, p_element_class_representatives, subnormalizer_subgroup

ENTRIES = {entry.label: entry for entry in load_catalog("small")}


def invariants(G, primes):
    classes = sorted((c.representative.cycle_type(), c.size) for c in conjugacy_classes(G))
    per_prime = {}
    for p in primes:
        data = sylow_data(G, p)
        subnormalizers = sorted(
            (x.cycle_type(), subnormalizer_subgroup(G, x).order)
            for x in p_element_class_representatives(G, p)
        )
        per_prime[p] = (
            data.count,
            data.normalizer.order,
            chain_length(G, data.normalizer),
            subnormalizers,
        )
    return G.order, classes, per_prime


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
