"""Ideal representation and the transfer conditions."""

import pytest

import oracles
from idealtop import (DimensionMismatch, FiniteMap, Ideal, compose, fin,
                      identity_map, image_ideal, make_ideal,
                      transfer_conditions)
from idealtop.jsonio import parse_ideal
from idealtop.search import enumerate_ideals, enumerate_maps


def test_make_ideal_examples():
    assert make_ideal(2, []).carrier == 0
    assert make_ideal(3, [0b001, 0b100]).carrier == 0b101
    improper = make_ideal(2, [0b11])
    assert improper.carrier == 0b11 and not improper.is_proper


def test_fin_degenerates_to_power_set():
    f = fin(3)
    assert f.carrier == 0b111
    assert not f.is_proper


def test_contains_examples():
    assert Ideal(2, 0b10).contains(0b10)
    assert not Ideal(2, 0b10).contains(0b11)
    assert Ideal(2, 0).contains(0)


def test_members_enumerates_the_power_set_of_the_carrier():
    assert list(Ideal(3, 0b101).members()) == [0b000, 0b001, 0b100, 0b101]


def test_image_ideal_examples():
    assert image_ideal(identity_map(2), Ideal(2, 0b01)).carrier == 0b01
    collapse = FiniteMap(2, 2, (0, 0))
    assert image_ideal(collapse, Ideal(2, 0b10)).carrier == 0b01
    assert image_ideal(collapse, Ideal(2, 0)).carrier == 0


def test_image_ideal_respects_composition():
    for f in enumerate_maps(3, 2):
        for g in enumerate_maps(2, 3):
            for ideal in enumerate_ideals(3):
                two_step = image_ideal(g, image_ideal(f, ideal))
                assert image_ideal(compose(g, f), ideal) == two_step


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ideal_families_are_exactly_power_sets_of_carriers(n):
    families = oracles.family_filter_ideals(n)
    assert len(families) == 2 ** n
    expected = set()
    for carrier in range(1 << n):
        expected.add(frozenset(
            a for a in range(1 << n) if a & ~carrier == 0))
    assert set(families) == expected


def test_transfer_conditions_examples():
    ident = identity_map(2)
    t = transfer_conditions(ident, Ideal(2, 0b10), Ideal(2, 0b10))
    assert (t.preimage_ok, t.image_ok, t.equivalence_ok) == (True, True, True)
    t = transfer_conditions(ident, Ideal(2, 0), Ideal(2, 0b10))
    assert not t.preimage_ok and t.image_ok
    # an improper domain ideal absorbs every preimage
    for m_y in range(4):
        t = transfer_conditions(ident, Ideal(2, 0b11), Ideal(2, m_y))
        assert t.preimage_ok


def test_transfer_conditions_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        transfer_conditions(identity_map(2), Ideal(3, 0), Ideal(2, 0))


@pytest.mark.parametrize("n_dom,n_cod", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_transfer_quantifier_and_shortcut_agree_exhaustively(n_dom, n_cod):
    for f in enumerate_maps(n_dom, n_cod):
        for dom in enumerate_ideals(n_dom):
            for cod in enumerate_ideals(n_cod):
                t = transfer_conditions(f, dom, cod)
                assert (t.preimage_ok, t.image_ok, t.equivalence_ok) == \
                    oracles.transfer_conditions_by_definition(f, dom, cod)


def test_ideal_json_forms():
    assert parse_ideal({"n": 3, "carrier": [0, 2]}).carrier == 0b101
    assert parse_ideal({"generators": [[0], [2]]}, n=3).carrier == 0b101
    assert parse_ideal({"n": 2, "carrier": []}).carrier == 0
