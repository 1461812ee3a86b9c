"""Where the tables live: each on the value it describes, freed with it.

A topology keeps its opens and closure table, an ideal space its side
tables and an instance its checking context; only the search keeps tables
for the life of the process, keyed by point counts, topology indices and
carrier masks.  So no table lookup hashes a topology, and checking values
that are then dropped leaves nothing behind.
"""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest

import idealtop
from idealtop import (ALL_THEOREM_IDS, FiniteMap, Ideal, IdealSpace,
                      Instance, SearchBounds, Topology, check,
                      is_compatible, local_function, psi, psi_topology,
                      star_closure, star_topology, verify_exhaustive)


@pytest.fixture
def topology_hashes(monkeypatch):
    """The topologies hashed while the test runs."""
    hashed = []
    plain = Topology.__hash__
    monkeypatch.setattr(Topology, "__hash__",
                        lambda top: hashed.append(top) or plain(top))
    return hashed


def chain_instance(n, k):
    """The identity of the ``n``-point chain, whose minimal neighborhoods
    are {0..x}, with carriers {k} and {k + 1}."""
    top = Topology(n, tuple((2 << x) - 1 for x in range(n)))
    return Instance(IdealSpace(top, Ideal(n, 1 << k)),
                    IdealSpace(top, Ideal(n, 2 << k)),
                    FiniteMap(n, n, tuple(range(n))))


def test_certification_hashes_no_topology(topology_hashes):
    # a cold and a warmed pass of the 13 certifications at (3,3), where a
    # warmed pass hashed 2,574 topologies to find their side tables
    for _ in range(2):
        for tid in ALL_THEOREM_IDS:
            assert verify_exhaustive(tid, SearchBounds(3, 3),
                                     workers=1).certified
    assert topology_hashes == []


def test_check_all_and_the_star_operators_hash_no_topology(topology_hashes):
    # where they hashed 35
    inst = chain_instance(4, 1)
    for tid in ALL_THEOREM_IDS:
        check(tid, inst)
    s = inst.X
    assert (local_function(s, 0b0110), star_closure(s, 0b0110),
            psi(s, 0b0110)) == (0b1100, 0b1110, 0)
    assert star_topology(s).min_nbhd == (0b0001, 0b0011, 0b0101, 0b1101)
    assert psi_topology(s).min_nbhd == (0b0011, 0b0011, 0b0111, 0b1111)
    assert is_compatible(s)
    assert topology_hashes == []


def test_checked_instances_leave_no_tables_behind():
    # five distinct 12-point instances, checked and dropped, where the
    # process-lifetime caches kept 1.8 MB of their tables
    check("TC1", chain_instance(2, 0))  # anything built once per process
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(5):
            inst = chain_instance(12, k)
            for tid in ALL_THEOREM_IDS:
                check(tid, inst)
            del inst
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5 * 2 ** 20, retained


def test_the_only_process_caches_are_the_searchs():
    # every lru_cache of the package: the search's, keyed by point counts,
    # topology indices and carrier masks
    cached = set()
    for info in pkgutil.iter_modules(idealtop.__path__):
        module = importlib.import_module(f"idealtop.{info.name}")
        for name, value in vars(module).items():
            if (callable(getattr(value, "cache_info", None))
                    and value.__module__ == module.__name__):
                cached.add(f"{info.name}.{name}")
    assert cached == {"search._classes", "search._columns",
                      "search._workspace", "search._side"}
