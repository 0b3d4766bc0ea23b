import gc
from contextlib import contextmanager

import pytest

from pickylab.chartab import CharacterTable
from pickylab.cli import load_catalog
from pickylab.permgroup import PermGroup, SylowData, _Chain


@pytest.fixture(scope="session")
def full_catalog_groups():
    """label -> (PermGroup, primes) for the shipped full catalog; shared so
    that per-group caches (tables, Sylow data, subnormalizers) are reused
    across the whole session."""
    out = {}
    for entry in load_catalog("full"):
        G = entry.build()
        out[entry.label] = (G, entry.effective_primes(G))
    return out


@pytest.fixture(scope="session")
def small_catalog_groups(full_catalog_groups):
    """The catalog entries of order <= 200 (the exhaustive-sweep scale)."""
    return {
        label: (G, primes)
        for label, (G, primes) in full_catalog_groups.items()
        if G.order <= 200
    }


@pytest.fixture
def no_sorted_elements(monkeypatch):
    """A context manager inside which ``PermGroup.elements()`` fails, so a
    program path that lists the sorted elements, even through a dynamic
    lookup, fails the test."""

    def refused(self):
        raise AssertionError("PermGroup.elements() was called")

    @contextmanager
    def forbid():
        with monkeypatch.context() as m:
            m.setattr(PermGroup, "elements", refused)
            yield

    return forbid


@pytest.fixture
def collector_off():
    """The cyclic collector off, with every object it would free kept in
    ``gc.garbage``.  Returns a function that collects once, turns the
    collector back on and returns the group objects, tables, chains and
    Sylow data among the kept objects: none, when reference counting alone
    frees them."""

    def restore():
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()

    def leftovers():
        gc.collect()
        kept = [o for o in gc.garbage if isinstance(o, (PermGroup, CharacterTable, _Chain, SylowData))]
        restore()
        return kept

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    yield leftovers
    restore()
