"""Topology representation, construction, and query operations."""

import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import preorders
from idealtop import (BadMask, CapExceeded, NotATopology, Topology, closure,
                      discrete, full_mask, generate_topology, indiscrete,
                      interior, is_open, make_topology, mask_of, points_of,
                      separation_profile, sierpinski, topology_to_json)
from idealtop.jsonio import parse_topology
from idealtop.errors import InputFileError
from idealtop.search import enumerate_topologies


def test_make_topology_sierpinski():
    t = make_topology(2, [0b00, 0b10, 0b11])
    assert t == sierpinski()
    assert t.min_nbhd == (0b11, 0b10)


def test_make_topology_one_point():
    t = make_topology(1, [0b0, 0b1])
    assert t == discrete(1)


def test_make_topology_missing_full_set():
    with pytest.raises(NotATopology):
        make_topology(2, [0b00, 0b01])


def test_make_topology_missing_empty_set():
    with pytest.raises(NotATopology):
        make_topology(2, [0b01, 0b11])


def test_make_topology_not_closed_under_union():
    # {0} and {1} present but {0,1}... is the full set; drop closure under
    # intersection instead: {0,1,2} plus {0,1} and {1,2} without {1}
    with pytest.raises(NotATopology):
        make_topology(3, [0b000, 0b011, 0b110, 0b111])


def test_make_topology_stray_bits():
    with pytest.raises(BadMask):
        make_topology(2, [0b00, 0b100, 0b11])


def test_point_count_limits():
    with pytest.raises(CapExceeded):
        make_topology(0, [0])
    with pytest.raises(CapExceeded):
        discrete(17)


def test_generate_topology_singletons_give_discrete():
    assert generate_topology(2, [0b01, 0b10]) == discrete(2)


def test_generate_topology_empty_family_gives_indiscrete():
    assert generate_topology(2, []) == indiscrete(2)


def test_generate_topology_example_three_points():
    t = generate_topology(3, [0b010, 0b111])
    assert t.opens() == (0b000, 0b010, 0b111)


def test_is_open_examples(sierp):
    assert is_open(sierp, 0b10)
    assert not is_open(sierp, 0b01)
    assert is_open(sierp, 0)
    assert is_open(sierp, 0b11)


def test_closure_examples(sierp):
    assert closure(sierp, 0b10) == 0b11
    assert closure(sierp, 0b01) == 0b01
    assert closure(sierp, 0) == 0


def test_interior_examples(sierp):
    assert interior(sierp, 0b01) == 0
    assert interior(sierp, 0b10) == 0b10
    assert interior(sierp, 0b11) == 0b11


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closure_is_kuratowski(n):
    # empty set fixed, extensive, idempotent, distributes over union
    for top in enumerate_topologies(n):
        cl = [top.closure(a) for a in range(1 << n)]
        assert cl[0] == 0
        for a in range(1 << n):
            assert a & ~cl[a] == 0
            assert cl[cl[a]] == cl[a]
            for b in range(1 << n):
                assert cl[a | b] == cl[a] | cl[b]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_roundtrip_make_topology(n):
    for top in enumerate_topologies(n):
        assert make_topology(n, top.opens()) == top


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_openness_matches_union_of_min_neighborhoods_oracle(n):
    for top in enumerate_topologies(n):
        family = oracles.alexandrov_opens(n, top.min_nbhd)
        for a in range(1 << n):
            assert top.is_open(a) == (a in family)


def test_open_iff_own_interior_closed_iff_own_closure():
    for n in (1, 2, 3):
        for top in enumerate_topologies(n):
            for a in range(1 << n):
                assert top.is_open(a) == (a == top.interior(a))
                assert top.is_closed(a) == (a == top.closure(a))


def test_separation_examples(sierp):
    prof = separation_profile(discrete(2))
    assert (prof.t0, prof.t1, prof.hausdorff, prof.regular) == (True,) * 4
    prof = separation_profile(sierp)
    assert prof.t0 and not prof.t1
    prof = separation_profile(indiscrete(2))
    assert not prof.t0 and prof.regular


@pytest.mark.parametrize("n", [1, 2, 3])
def test_separation_matches_definitional_oracle(n):
    for top in enumerate_topologies(n):
        want = oracles.separation_by_definition(n, top.opens())
        got = separation_profile(top)
        assert (got.t0, got.t1, got.hausdorff, got.regular) == (
            want["t0"], want["t1"], want["hausdorff"], want["regular"])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_regular_closed_form_matches_definition(n):
    # 1 + 4 + 29 + 355 + 6942 = 7,331 topologies
    for top in enumerate_topologies(n):
        assert (separation_profile(top).regular
                == oracles.regular_by_definition(top)), top


@settings(max_examples=200)
@given(preorders(5, 7))
def test_regular_closed_form_matches_definition_on_random_preorders(top):
    assert separation_profile(top).regular == oracles.regular_by_definition(top)


def test_separation_profile_reads_no_closed_sets(monkeypatch):
    calls = []
    closed_sets = Topology.closed_sets

    def counted_closed_sets(self):
        calls.append(self)
        return closed_sets(self)

    monkeypatch.setattr(Topology, "closed_sets", counted_closed_sets)
    for top in (discrete(16), indiscrete(16), sierpinski()):
        separation_profile(top)
    assert calls == []
    assert not oracles.regular_by_definition(sierpinski())
    assert calls == [sierpinski()]


def test_topology_json_roundtrip(sierp):
    doc = topology_to_json(sierp)
    assert doc == {"n": 2, "opens": [[], [1], [0, 1]]}
    assert parse_topology(doc) == sierp


def test_topology_json_omitting_trivial_opens():
    assert parse_topology({"n": 2, "opens": [[1]]}) == sierpinski()


def test_topology_json_position_annotated_errors():
    with pytest.raises(InputFileError, match=r"topology\.opens\[1\]"):
        parse_topology({"n": 2, "opens": [[1], [5]]})
    for bad in ("1", True):
        with pytest.raises(InputFileError, match=re.escape(
                f"topology.opens[0][1]: expected an integer, got {bad!r}")):
            parse_topology({"n": 2, "opens": [[0, bad]]})
    with pytest.raises(InputFileError, match="missing required key 'n'"):
        parse_topology({"opens": []})


def test_mask_helpers():
    assert mask_of([0, 2], 3) == 0b101
    assert points_of(0b101) == (0, 2)
    assert full_mask(3) == 0b111


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_generated_topologies_contain_their_family(n, data):
    # arbitrary families always generate a legal minimal-neighborhood table
    # in which every family member is open
    family = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=6))
    top = generate_topology(n, family)
    assert isinstance(top, Topology)
    for member in family:
        assert top.is_open(member)
