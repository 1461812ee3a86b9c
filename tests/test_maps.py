"""Images, preimages, and map classification."""

import random

import pytest

import oracles
from idealtop import (DimensionMismatch, FiniteMap, classify, compose,
                      constant_map, continuity_characterizations, discrete,
                      identity_map, image, image_table, preimage,
                      preimage_table, sierpinski)
from idealtop.search import enumerate_maps, enumerate_topologies


def test_tables_given_as_lists_are_their_tuple_twins():
    # a list table compared unequal to its tuple twin, and every cached
    # operation on it raised TypeError: unhashable type: 'list'
    from idealtop import (ALL_THEOREM_IDS, Ideal, IdealSpace, Instance,
                          Topology, check, star_topology)
    top, f = Topology(2, [3, 2]), FiniteMap(2, 2, [0, 1])
    assert top == Topology(2, (3, 2)) and hash(top) == hash(Topology(2, (3, 2)))
    assert f == identity_map(2) and hash(f) == hash(identity_map(2))
    assert top.opens() == (0, 2, 3)
    assert image_table(f) == image_table(identity_map(2))
    assert classify(f, top, top) == classify(identity_map(2), top, top)
    space = IdealSpace(top, Ideal(2, 2))
    assert star_topology(space).min_nbhd == (1, 2)
    inst = Instance(space, space, f)
    assert all(check(tid, inst).all_conclusions for tid in ALL_THEOREM_IDS)


def test_image_examples():
    assert image(identity_map(2), 0b11) == 0b11
    assert image(FiniteMap(2, 2, (0, 0)), 0b11) == 0b01
    assert image(FiniteMap(2, 2, (0, 0)), 0) == 0


def test_preimage_examples():
    assert preimage(identity_map(2), 0b10) == 0b10
    assert preimage(FiniteMap(2, 2, (0, 0)), 0b01) == 0b11
    assert preimage(FiniteMap(3, 2, (0, 1, 0)), 0b11) == 0b111


def test_tables_match_pointwise_ops():
    for f in enumerate_maps(3, 2):
        img, pre = image_table(f), preimage_table(f)
        assert all(img[a] == f.image(a) for a in range(8))
        assert all(pre[b] == f.preimage(b) for b in range(4))


def test_classify_identity_on_sierpinski(sierp):
    prof = classify(identity_map(2), sierp, sierp)
    assert prof.continuous and prof.open_map and prof.closed_map
    assert prof.homeomorphism


def test_classify_identity_into_finer_codomain(sierp):
    prof = classify(identity_map(2), sierp, discrete(2))
    assert not prof.continuous  # {0} opens up in the codomain only
    assert prof.open_map
    chars = continuity_characterizations(identity_map(2), sierp, discrete(2))
    assert not any(chars.values())


def test_classify_constant_map(sierp):
    prof = classify(constant_map(2, 2, 0), sierp, discrete(2))
    assert prof.continuous
    assert not prof.surjective


def test_classify_dimension_mismatch(sierp):
    with pytest.raises(DimensionMismatch):
        classify(identity_map(3), sierp, sierp)


def test_profile_derived_flags(sierp):
    prof = classify(identity_map(2), sierp, sierp)
    assert prof.bijective and prof.homeomorphism
    prof = classify(constant_map(2, 2, 1), sierp, sierp)
    assert not prof.bijective and not prof.homeomorphism


@pytest.mark.parametrize("n_dom,n_cod", [(1, 1), (1, 2), (2, 1), (2, 2),
                                         (2, 3), (3, 2), (3, 3)])
def test_five_continuity_characterizations_agree(n_dom, n_cod):
    for t_dom in enumerate_topologies(n_dom):
        for t_cod in enumerate_topologies(n_cod):
            for f in enumerate_maps(n_dom, n_cod):
                chars = continuity_characterizations(f, t_dom, t_cod)
                assert len(set(chars.values())) == 1, (t_dom, t_cod, f, chars)


def test_composition_preserves_continuity():
    for t1 in enumerate_topologies(2):
        for t2 in enumerate_topologies(2):
            for t3 in enumerate_topologies(2):
                for f in enumerate_maps(2, 2):
                    for g in enumerate_maps(2, 2):
                        if (classify(f, t1, t2).continuous
                                and classify(g, t2, t3).continuous):
                            assert classify(compose(g, f), t1, t3).continuous


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijections_open_iff_closed(n):
    for t_dom in enumerate_topologies(n):
        for t_cod in enumerate_topologies(n):
            for f in enumerate_maps(n, n):
                if not f.bijective:
                    continue
                prof = classify(f, t_dom, t_cod)
                assert prof.open_map == prof.closed_map


def test_classify_matches_the_validated_openness_tests():
    # every triple up to three points a side (24,872), then seeded 4-point
    # triples
    triples = [(f, t_dom, t_cod)
               for n_dom in (1, 2, 3) for n_cod in (1, 2, 3)
               for t_dom in enumerate_topologies(n_dom)
               for t_cod in enumerate_topologies(n_cod)
               for f in enumerate_maps(n_dom, n_cod)]
    assert len(triples) == 24_872
    rng = random.Random(4)
    tops, maps = list(enumerate_topologies(4)), list(enumerate_maps(4, 4))
    triples += [(rng.choice(maps), rng.choice(tops), rng.choice(tops))
                for _ in range(5_000)]
    for f, t_dom, t_cod in triples:
        assert classify(f, t_dom, t_cod) == oracles.classify_by_is_open(
            f, t_dom, t_cod), (f, t_dom, t_cod)
