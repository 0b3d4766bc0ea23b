"""Differential tests against sympy.combinatorics, an independent
implementation of the same permutation-group algorithms.  Skipped when
sympy is not installed; it is never a runtime dependency.

Image tuples are 0-based, which is exactly sympy's array form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy_comb = pytest.importorskip("sympy.combinatorics")

from pickylab.cli import load_catalog  # noqa: E402
from pickylab.exactnum import prime_factors  # noqa: E402
from pickylab.permgroup import (  # noqa: E402
    PermGroup,
    centralizer,
    conjugacy_classes,
    derived_series,
    normal_closure,
    sylow_data,
)


def _sympy_group(G: PermGroup):
    Permutation = sympy_comb.Permutation
    gens = [Permutation(list(g.images)) for g in G.generators]
    return sympy_comb.PermutationGroup(gens or [Permutation(list(range(G.degree)))])


def _compare(G: PermGroup, elements):
    S = _sympy_group(G)
    assert G.order == S.order()
    assert len(conjugacy_classes(G)) == len(S.conjugacy_classes())
    assert [H.order for H in derived_series(G)] == [H.order() for H in S.derived_series()]
    for p in prime_factors(G.order):
        assert sylow_data(G, p).subgroup.order == S.sylow_subgroup(p).order()
    for x in elements:
        sx = sympy_comb.Permutation(list(x.images))
        assert centralizer(G, x).order == S.centralizer(sx).order()
        assert normal_closure(G, [x]).order == S.normal_closure(sx).order()


@pytest.fixture(scope="module")
def small_catalog():
    return [entry.build() for entry in load_catalog("small")]


def test_small_catalog(small_catalog):
    for G in small_catalog:
        _compare(G, [c.representative for c in conjugacy_classes(G)])


_two_perms = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


@given(_two_perms)
@settings(max_examples=60, deadline=None)
def test_two_generated_subgroups_of_sn(images):
    a, b = images
    G = PermGroup([a, b], len(a))
    _compare(G, [c.representative for c in conjugacy_classes(G)])


# Four generators of degree 5 or 6: hypothesis favours near-identity
# permutations, and with fewer generators or lower degrees (as in the
# test above, which keeps degrees 2-4 covered) most examples are groups
# of order 12 or less, where every algorithm is brute force.
# Degree 7 would add S7-sized groups at about 0.5 s of sympy time each.
_four_perms = st.integers(5, 6).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 4))


@given(_four_perms)
@settings(max_examples=60, deadline=None)
def test_four_generated_subgroups_of_sn(images):
    G = PermGroup(list(images), len(images[0]))
    _compare(G, [c.representative for c in conjugacy_classes(G)])
