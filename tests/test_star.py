"""Local function, star closure, psi, star topology, compatibility, laws."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from strategies import preorders
from idealtop import (Ideal, IdealSpace, Topology, check_local_function_laws,
                      discrete, full_mask, generate_topology, indiscrete,
                      is_compatible, is_ideal_compact, local_function,
                      local_function_by_definition, psi,
                      psi_topology, sierpinski, star_closure, star_topology)
from idealtop.errors import DimensionMismatch
from idealtop.search import enumerate_ideals, enumerate_topologies


def spaces(n):
    for top in enumerate_topologies(n):
        for ideal in enumerate_ideals(n):
            yield IdealSpace(top, ideal)


def test_space_dimension_check():
    with pytest.raises(DimensionMismatch):
        IdealSpace(sierpinski(), Ideal(3, 0))


def test_closure_table_is_the_closure_of_every_subset():
    # the union recurrence of Topology._closures against Topology.closure,
    # on every topology with at most 4 points and on 16-point discrete and
    # chain spaces
    tops = [t for n in (1, 2, 3, 4) for t in enumerate_topologies(n)]
    tops += [discrete(16), Topology(16, tuple((2 << x) - 1 for x in range(16)))]
    for top in tops:
        assert top._closures == tuple(top.closure(a)
                                      for a in range(top.full + 1)), top


def test_local_function_examples(sierp_space):
    assert local_function(sierp_space, 0b01) == 0b01
    # improper ideal kills every local function
    dead = IdealSpace(sierpinski(), Ideal(2, 0b11))
    for a in range(4):
        assert local_function(dead, a) == 0
    assert local_function(sierp_space, 0) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_local_function_three_routes_agree(n):
    for s in spaces(n):
        opens = s.top.opens()
        m = s.ideal.carrier
        for a in range(1 << n):
            shortcut = local_function(s, a)
            definitional = local_function_by_definition(s, a)
            oracle = oracles.local_function_definitional(n, opens, m, a)
            carrier_identity = s.top.closure(a & ~m)
            assert shortcut == definitional == oracle == carrier_identity


def test_star_closure_examples(sierp_space):
    assert star_closure(sierp_space, 0b10) == 0b10
    trivial = IdealSpace(sierpinski(), Ideal(2, 0))
    for a in range(4):
        assert star_closure(trivial, a) == trivial.top.closure(a)
    assert star_closure(sierp_space, 0b11) == 0b11


def test_psi_examples():
    s = IdealSpace(sierpinski(), Ideal(2, 0))
    assert psi(s, 0b10) == 0b10
    assert psi(s, 0b01) == 0
    assert psi(s, 0b11) == 0b11


def test_psi_cuts_out_the_star_interior():
    # complement-of-star-closure-of-complement is the star interior, which
    # is psi intersected with the set itself (psi may stick out of the set)
    for s in spaces(3):
        full = s.full
        st = star_topology(s)
        for a in range(full + 1):
            star_interior = full ^ star_closure(s, full ^ a)
            assert star_interior == a & psi(s, a)
            assert star_interior == st.interior(a)


def test_star_topology_examples(sierp_space):
    trivial = IdealSpace(sierpinski(), Ideal(2, 0))
    assert star_topology(trivial) == sierpinski()
    assert star_topology(sierp_space) == discrete(2)
    dead = IdealSpace(indiscrete(2), Ideal(2, 0b11))
    assert star_topology(dead) == discrete(2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_topology_sandwich_and_membership(n):
    for s in spaces(n):
        st = star_topology(s)
        base_opens = set(s.top.opens())
        star_opens = set(st.opens())
        assert base_opens <= star_opens
        # membership route: open iff contained in own psi
        for u in range(1 << n):
            assert st.is_open(u) == (u & ~psi(s, u) == 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_closure_is_the_closure_of_the_star_topology(n):
    # what lets maps._open decide star openness on the star closure table
    for s in spaces(n):
        st = star_topology(s)
        assert [star_closure(s, a) for a in range(1 << n)] == [
            st.closure(a) for a in range(1 << n)], s


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_topology_idempotent_at_fixed_ideal(n):
    for s in spaces(n):
        st = star_topology(s)
        again = star_topology(IdealSpace(st, s.ideal))
        assert again == st


def test_psi_topology_examples(sierp_space):
    trivial = IdealSpace(sierpinski(), Ideal(2, 0))
    assert psi_topology(trivial) == sierpinski()
    dead = IdealSpace(sierpinski(), Ideal(2, 0b11))
    assert psi_topology(dead) == indiscrete(2)
    # psi of each open computed directly for the {1}-carrier
    got = psi_topology(sierp_space)
    assert set(got.opens()) == {0, 0b10, 0b11}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_psi_topology_is_generated_by_the_psi_images_of_opens(n):
    # its minimal neighborhoods psi(N(x)), against the generated topology
    for s in spaces(n):
        want = generate_topology(n, {psi(s, u) for u in s.top.opens()})
        assert psi_topology(s) == want, s


def test_local_function_antitone_in_the_ideal():
    for top in enumerate_topologies(3):
        for m1 in range(8):
            s1 = IdealSpace(top, Ideal(3, m1))
            for m2 in range(8):
                if m1 & ~m2:
                    continue
                s2 = IdealSpace(top, Ideal(3, m2))
                for a in range(8):
                    assert local_function(s2, a) & ~local_function(s1, a) == 0


def test_is_compatible_examples(sierp_space):
    trivial = IdealSpace(sierpinski(), Ideal(2, 0))
    assert is_compatible(trivial)
    for ideal in enumerate_ideals(2):
        assert is_compatible(IdealSpace(discrete(2), ideal))
    assert is_compatible(sierp_space)


def test_compatibility_degenerates_to_true_on_carrier_ideals():
    # a locally small set is covered by the small traces of its own minimal
    # neighborhoods, each containing its point, so it is small outright;
    # like smallness-compactness, the predicate is real but constant here
    assert all(is_compatible(s) for s in spaces(3))


def test_is_ideal_compact_constant_true():
    for s in spaces(3):
        assert is_ideal_compact(s)
    assert is_ideal_compact(IdealSpace(discrete(3), Ideal(3, 0)))


def assert_closed_forms_match_oracles(s):
    assert is_compatible(s) == oracles.is_compatible_by_definition(s)
    assert is_ideal_compact(s) == oracles.is_ideal_compact_by_definition(s)
    # the star topology, built from the minimal neighborhoods (N(x) - M) | {x},
    # against both of its definitions; it is finer than the base topology,
    # and psi lands in the base topology
    opens = s.top.opens()
    by_closed, by_psi = oracles.star_opens_by_definition(
        s.n, opens, s.ideal.carrier)
    assert star_topology(s).opens() == by_closed == by_psi
    assert set(opens) <= set(by_closed)
    assert all(psi(s, u) in opens for u in range(s.full + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_forms_match_definitional_oracles(n):
    for s in spaces(n):
        assert_closed_forms_match_oracles(s)


@st.composite
def preorder_spaces(draw):
    """A random preorder on 5-7 points with at most 14 nonempty opens, so the
    cover enumeration of the oracle stays bounded, and any carrier."""
    top = draw(preorders(5, 7))
    assume(len(top.opens()) - 1 <= 14)
    return IdealSpace(top, Ideal(top.n, draw(st.integers(0, full_mask(top.n)))))


@settings(max_examples=200)
@given(preorder_spaces())
def test_closed_forms_match_oracles_on_random_preorders(s):
    assert_closed_forms_match_oracles(s)


def test_closed_forms_read_no_opens(monkeypatch):
    # a Sierpinski space beside a 6-point chain: 3 * 7 opens, 20 nonempty
    chain = tuple(full_mask(8) & ~((1 << k) - 1) for k in range(2, 8))
    twenty = Topology(8, (0b11, 0b10) + chain)
    assert len(twenty.opens()) - 1 == 20
    sides = [IdealSpace(twenty, Ideal(8, 0b10010110)),
             IdealSpace(discrete(7), Ideal(7, 0))]
    calls = {"contains": 0, "opens": 0}
    contains, opens = Ideal.contains, Topology.opens

    def counted_contains(self, a):
        calls["contains"] += 1
        return contains(self, a)

    def counted_opens(self):
        calls["opens"] += 1
        return opens(self)

    monkeypatch.setattr(Ideal, "contains", counted_contains)
    monkeypatch.setattr(Topology, "opens", counted_opens)
    for s in sides:
        assert is_ideal_compact(s)
        assert calls == {"contains": 1, "opens": 0}
        assert is_compatible(s)
        assert calls == {"contains": 1, "opens": 0}
        calls["contains"] = 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_five_laws_hold_everywhere(n):
    for s in spaces(n):
        report = check_local_function_laws(s)
        assert all(law.holds for law in report), report


def test_law_report_names_and_shapes(sierp_space):
    report = check_local_function_laws(sierp_space)
    assert [law.name for law in report] == [
        "monotone", "closed_below_closure", "idempotence_bound", "union",
        "small_invariance"]
    assert all(law.witness is None for law in report)
