"""Verdicts, the checker registry, and the counterexample constructions."""

import random
from types import SimpleNamespace

import pytest

import oracles
from idealtop import (ALL_THEOREM_IDS, BadPoint, CapExceeded, FiniteMap,
                      Ideal, IdealSpace, Instance, UnknownTheorem,
                      VARIANT_CONT, VARIANT_OPEN, add_generic_point_instance,
                      add_open_point_instance, check, collapse_point_instance,
                      ctor_add_generic_point, ctor_add_open_point,
                      ctor_collapse_point, discrete, identity_map, indiscrete,
                      local_function, point_space, sierpinski)
from idealtop.cli import _closed_twin_collapse_instance
from idealtop import theorems as thm
from idealtop.errors import DimensionMismatch
from idealtop.search import (SearchBounds, _side, _workspace,
                             enumerate_ideals, enumerate_maps,
                             enumerate_topologies, verify_exhaustive)
from idealtop.star import _Carriers


def seeds(n):
    for top in enumerate_topologies(n):
        for ideal in enumerate_ideals(n):
            yield IdealSpace(top, ideal)


def identity_instance(space):
    return Instance(space, space, identity_map(space.n))


def test_registry_contents():
    assert ALL_THEOREM_IDS == (
        "TC1", "TC2", "CONTPSI", "TO1", "OPEN_STAR", "OPENBIJ", "CLOSEDSUR",
        "HOMEO_COR", "HOMEO_HR", "SAMUELS", "JHCOMP", "HR34", "HR35")


def test_registry_is_consistent():
    # the members rule reads only plain conclusions, and the test oracle
    # reads the designated conclusion off the verdict's reported ones
    side = IdealSpace(sierpinski(), Ideal(2, 0b10))._side
    for spec in thm.THEOREMS.values():
        names = [c.name for c in spec.concls]
        info = [c.name for c in spec.concls if not c.report]
        assert len(set(names)) == len(names), spec.theorem_id
        assert len(set(info)) == len(info), spec.theorem_id
        assert len(set(spec.hypothesis_names)) == len(spec.hyps)
        assert spec.designated in names, spec.theorem_id
        assert spec.designated not in info, spec.theorem_id
        plain = set()
        for c in spec.concls:
            if c.members:
                assert c.fail is None and set(c.members) <= plain, c
                continue
            plain.add(c.name)
            if isinstance(c.fail, thm.Transport):
                assert c.fail.op in ("star", "cl_star", "psi"), c
                assert len(getattr(side, c.fail.op)) == side.full + 1
                assert c.fail.side in ("domain", "codomain"), c
                assert c.fail.rel in ("<=", ">=", "=="), c
            else:
                assert callable(c.fail), c


def instances_up_to(n):
    for nx in range(1, n + 1):
        for ny in range(1, n + 1):
            for x in seeds(nx):
                for y in seeds(ny):
                    for f in enumerate_maps(nx, ny):
                        yield Instance(x, y, f)


def test_quantified_conclusions_match_their_definitions():
    # each transport declaration, and star continuity and openness, holds
    # iff its definitional predicate holds at every subset of the
    # quantified side, and otherwise names the least subset where it fails
    transports = {c.fail for spec in thm.THEOREMS.values()
                  for c in spec.concls if isinstance(c.fail, thm.Transport)}
    assert len(transports) == 14
    sides = [(t, t.side) for t in sorted(transports, key=repr)]
    sides += [(oracles.STAR_CONT, "codomain"), (oracles.STAR_OPEN, "domain")]
    count = 0
    for inst in instances_up_to(2):
        ctx = inst._ctx
        X, Y, f = oracles.Ops(inst.X), oracles.Ops(inst.Y), inst.f
        for concl, side in sides:
            if side == "domain":
                holds, full = oracles.HOLDS_ON_DOMAIN[concl], inst.X.full
            else:
                holds, full = oracles.HOLDS_ON_CODOMAIN[concl], inst.Y.full
            failing = [s for s in range(full + 1) if not holds(X, Y, f, s)]
            w = concl(ctx)
            expected = (None if not failing
                        else thm.Witness("", side, "subset", mask=failing[0]))
            assert w == expected, (concl, inst)
            count += 1
    assert count == 1124 * 16


def walk_instances():
    """Every instance with at most two points a side, then 5,000 seeded
    ones with three or four points on both sides."""
    yield from instances_up_to(2)
    rng = random.Random(12)
    tops = {n: list(enumerate_topologies(n)) for n in (3, 4)}
    maps = {n: list(enumerate_maps(n, n)) for n in (3, 4)}
    for _ in range(5_000):
        n = rng.choice((3, 4))
        x, y = (IdealSpace(rng.choice(tops[n]), Ideal(n, rng.randrange(1 << n)))
                for _ in "xy")
        yield Instance(x, y, rng.choice(maps[n]))


def test_neighborhood_forms_match_the_open_set_walks():
    # every continuity, openness and homeomorphism declaration, decided on
    # minimal neighborhoods, with its witness and its flag, against the
    # walks over open families it replaced
    decls = {t for spec in thm.THEOREMS.values()
             for t in [h.test for h in spec.hyps]
             + [c.fail for c in spec.concls]
             if isinstance(t, (thm.Continuous, thm.Open, thm.Homeomorphism))}
    assert len(decls) == 9
    count = 0
    for inst in walk_instances():
        ctx = inst._ctx
        walked = oracles.predicates_by_walk(inst)
        assert walked.keys() == decls
        for decl, want in walked.items():
            assert decl(ctx) == want, (decl, inst)
            assert decl.holds(ctx) == (want is None), (decl, inst)
        count += 1
    assert count == 1124 + 5_000


def test_constant_hypotheses_hold_by_their_definitions():
    # no gate reads a level-0 hypothesis
    level0 = [(spec.theorem_id, h.name) for spec in thm.THEOREMS.values()
              for h in spec.hyps if h.level == 0]
    assert sorted(level0) == [("HR34", "codomain_compatible"),
                              ("HR35", "domain_compatible"),
                              ("JHCOMP", "ideal_compact")]
    for n in (1, 2, 3):
        for s in seeds(n):
            assert oracles.is_compatible_by_definition(s)
            assert oracles.is_ideal_compact_by_definition(s)
    for inst in instances_up_to(2):
        for tid, name in level0:
            assert check(tid, inst).hypothesis(name)


def test_check_all_classifies_the_map_once_per_instance(monkeypatch):
    calls = []
    classify = thm.classify

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(thm, "classify", counted)
    x = IdealSpace(sierpinski(), Ideal(2, 0b10))
    y = IdealSpace(discrete(2), Ideal(2, 0))
    for inst in (Instance(x, y, identity_map(2)),
                 Instance(y, x, FiniteMap(2, 2, (1, 1)))):
        for tid in ALL_THEOREM_IDS:
            check(tid, inst)
    # the hypotheses read the side and map tables, so no map is classified,
    # where each instance's map was classified once
    assert calls == []


def test_unknown_theorem():
    inst = identity_instance(IdealSpace(sierpinski(), Ideal(2, 0)))
    with pytest.raises(UnknownTheorem):
        check("NOPE", inst)


@pytest.mark.parametrize("theorem_id", [7, None, ("TC1",), b"TC1"])
def test_a_theorem_id_that_is_not_a_string_is_unknown(theorem_id):
    # 7 and None raised a bare AttributeError from ``upper``
    inst = identity_instance(IdealSpace(sierpinski(), Ideal(2, 0)))
    with pytest.raises(UnknownTheorem):
        check(theorem_id, inst)
    with pytest.raises(UnknownTheorem):
        verify_exhaustive(theorem_id, SearchBounds(1, 1))


def test_instance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Instance(IdealSpace(sierpinski(), Ideal(2, 0)),
                 IdealSpace(sierpinski(), Ideal(2, 0)),
                 FiniteMap(3, 2, (0, 0, 1)))


def test_tc1_identity_all_true(sierp_space):
    v = check("TC1", identity_instance(IdealSpace(sierpinski(), Ideal(2, 0))))
    assert v.all_hypotheses and v.all_conclusions
    assert not v.vacuous and v.witness is None


def test_tc1_improper_domain_ideal_vacuously_transports():
    # every local function dies on the improper ideal, so the transport
    # holds although the swap map is not continuous
    x = IdealSpace(sierpinski(), Ideal(2, 0b11))
    y = IdealSpace(sierpinski(), Ideal(2, 0b10))
    v = check("TC1", Instance(x, y, FiniteMap(2, 2, (1, 0))))
    assert not v.hypothesis("continuous")
    assert v.hypothesis("preimage_ok")
    assert v.conclusion("a") and v.vacuous


def test_checkers_evaluate_conclusions_when_vacuous(sierp_space):
    x = IdealSpace(sierpinski(), Ideal(2, 0))
    swap = FiniteMap(2, 2, (1, 0))
    v = check("TC2", Instance(x, x, swap))
    assert v.vacuous
    assert v.conclusions  # flags still present and boolean
    assert all(isinstance(val, bool) for _, val in v.conclusions)


def test_verdict_witness_iff_some_conclusion_false():
    for seed in seeds(2):
        for tid in ALL_THEOREM_IDS:
            v = check(tid, identity_instance(seed))
            assert (v.witness is not None) == (not v.all_conclusions)


def test_verdict_json_shape(sierp_space):
    v = check("TC1", identity_instance(sierp_space))
    doc = v.to_json()
    assert doc["theorem"] == "TC1"
    assert set(doc) == {"theorem", "hypotheses", "conclusions", "vacuous",
                        "witness", "info"}


# -- constructions -----------------------------------------------------------

def test_add_open_point_shapes():
    ext = ctor_add_open_point(IdealSpace(sierpinski(), Ideal(2, 0)))
    assert ext.new_point == 2
    assert set(ext.space.top.opens()) == {0b000, 0b100, 0b110, 0b111}
    assert ext.space.ideal.carrier == 0b100

    ext = ctor_add_open_point(IdealSpace(point_space(), Ideal(1, 0)))
    assert set(ext.space.top.opens()) == {0b00, 0b10, 0b11}

    ext = ctor_add_open_point(IdealSpace(indiscrete(2), Ideal(2, 0)))
    assert set(ext.space.top.opens()) == {0b000, 0b100, 0b111}


def test_add_generic_point_shapes():
    ext = ctor_add_generic_point(IdealSpace(sierpinski(), Ideal(2, 0)))
    assert set(ext.space.top.opens()) == {0b000, 0b010, 0b011, 0b111}
    assert ext.space.ideal.carrier == 0
    ext = ctor_add_generic_point(IdealSpace(point_space(), Ideal(1, 0)))
    assert set(ext.space.top.opens()) == {0b00, 0b01, 0b11}
    # only open set containing the new point is the whole space
    for e in (ext,):
        z = e.new_point
        opens_with_z = [u for u in e.space.top.opens() if (u >> z) & 1]
        assert opens_with_z == [e.space.full]


def test_collapse_shapes_on_sierpinski():
    seed = IdealSpace(sierpinski(), Ideal(2, 0b10))
    col = ctor_collapse_point(seed, 1, VARIANT_CONT)
    assert set(col.space.top.opens()) == {0b000, 0b110, 0b111}
    assert col.space.ideal.carrier == 0
    assert col.codomain_carrier == 0
    col = ctor_collapse_point(seed, 1, VARIANT_OPEN)
    assert set(col.space.top.opens()) == {0b000, 0b111}


def test_collapse_bad_point():
    seed = IdealSpace(sierpinski(), Ideal(2, 0))
    with pytest.raises(BadPoint):
        ctor_collapse_point(seed, 5, VARIANT_CONT)
    with pytest.raises(ValueError):
        ctor_collapse_point(seed, 0, "WAT")


def test_extension_cap():
    big = IdealSpace(discrete(16), Ideal(16, 0))
    with pytest.raises(CapExceeded):
        ctor_add_open_point(big)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_added_open_point_never_in_a_local_function(n):
    for seed in seeds(n):
        ext = ctor_add_open_point(seed)
        z = ext.new_point
        for a in range(ext.space.full + 1):
            assert not (local_function(ext.space, a) >> z) & 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_added_generic_point_in_every_nonsmall_local_function(n):
    for seed in seeds(n):
        ext = ctor_add_generic_point(seed)
        z = ext.new_point
        for a in range(ext.space.full + 1):
            if not ext.space.ideal.contains(a):
                assert (local_function(ext.space, a) >> z) & 1


def test_add_open_point_instance_breaks_psi_transport(sierp_space):
    v = check("CONTPSI", add_open_point_instance(sierp_space))
    assert v.hypothesis("continuous") and v.hypothesis("injective")
    assert v.hypothesis("preimage_ok") and not v.hypothesis("surjective")
    assert not v.conclusion("a")
    # the transport fails already at the empty set: psi always contains the
    # new point, images never do
    assert v.witness.conclusion == "a"
    assert v.witness.side == "domain" and v.witness.mask == 0
    # the walked-through witness, the whole old ground set, fails too
    from idealtop import psi
    inst = add_open_point_instance(sierp_space)
    a = inst.X.full
    assert psi(inst.Y, inst.f.image(a)) & ~inst.f.image(psi(inst.X, a))


def test_add_generic_point_instance_breaks_star_transport(sierp_space):
    v = check("OPENBIJ", add_generic_point_instance(sierp_space))
    assert v.hypothesis("open_map") and v.hypothesis("injective")
    assert v.hypothesis("image_ok") and not v.hypothesis("surjective")
    assert not v.conclusion("a")


def test_collapse_cont_instance_breaks_psi_transport():
    seed = IdealSpace(sierpinski(), Ideal(2, 0b10))
    v = check("CONTPSI", collapse_point_instance(seed, 1, VARIANT_CONT))
    assert v.hypothesis("continuous") and v.hypothesis("surjective")
    assert v.hypothesis("preimage_ok") and not v.hypothesis("injective")
    assert not v.conclusion("a")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_collapse_open_instances_never_break_star_transport(n):
    # the image-transfer hypothesis provably protects both containments on
    # this construction, whatever the seed; the demo documents this
    for seed in seeds(n):
        for x0 in range(n):
            v = check("OPENBIJ",
                      collapse_point_instance(seed, x0, VARIANT_OPEN))
            assert v.hypothesis("open_map") and v.hypothesis("surjective")
            assert v.hypothesis("image_ok")
            assert v.conclusion("a") and v.conclusion("b")


def test_closed_twin_collapse_breaks_star_transport_on_every_seed():
    # the collapse-open demo's construction, over every seed and point: it
    # keeps the hypotheses without injectivity, and breaks 'a' exactly when
    # another point's minimal neighborhood holds x0 (that point then lies in
    # the local function of the twin's image, but not in the image of the
    # twin's local function)
    total = broken = 0
    for n in (1, 2, 3):
        for seed in seeds(n):
            for x0 in range(n):
                v = check("OPENBIJ", _closed_twin_collapse_instance(seed, x0))
                assert v.hypothesis("open_map") and v.hypothesis("surjective")
                assert v.hypothesis("image_ok")
                assert not v.hypothesis("injective")
                shared = any((seed.top.min_nbhd[x] >> x0) & 1
                             for x in range(n) if x != x0)
                assert v.conclusion("a") != shared
                total += 1
                broken += shared
    assert (total, broken) == (730, 424)


def test_witness_prefers_domain_side_and_least_mask():
    # instance where only the codomain-quantified dual fails: the CLOSEDSUR
    # informational dual differs from the reported conclusion, so take
    # OPENBIJ with a dropped-hypothesis shape instead
    x = IdealSpace(point_space(), Ideal(1, 0))
    y = IdealSpace(sierpinski(), Ideal(2, 0))
    inst = Instance(x, y, FiniteMap(1, 2, (0,)))
    v = check("OPENBIJ", inst)  # not surjective: vacuous, but conclusions run
    if not v.all_conclusions:
        assert v.witness is not None


def test_homeo_hr_reports_equivalences_not_raw_flags(sierp_space):
    v = check("HOMEO_HR", identity_instance(sierp_space))
    names = [name for name, _ in v.conclusions]
    assert names == ["a_iff_b", "b_iff_c", "a_iff_c"]
    info_names = [name for name, _ in v.info]
    assert info_names == ["a", "b", "c"]


def fresh_columns():
    """Column tables of every (topology, carrier) on two points, built
    here, so that no plan on them is shared with the search's."""
    return _Carriers(2, [_side(2, iy, m) for iy in range(4)
                         for m in range(4)])


def kernel_ctx():
    """A context as the search's kernel builds it, with no codomain side:
    a two-point domain with a carrier, and a map onto two points."""
    ws = _workspace(2, 2)
    return thm._Ctx(_side(2, 1, 1), None, ws.imgs[1], ws.pres[1])


def bound_mask(decl, cv):
    """Bind the declaration's mask form to ``cv`` and check that it gives
    a mask of the columns on a kernel context."""
    mask = decl.bind(cv)(kernel_ctx())
    assert isinstance(mask, int) and not mask & ~cv.full, decl


def plan_gates(spec, dropped=frozenset()):
    """The level-1 and level-2 gates of the theorem's scan plan, as the
    declarations they were bound from, in evaluation order: while the plan
    is built, each bound form is one that returns its declaration."""
    with pytest.MonkeyPatch.context() as mp:
        for cls in (thm.Continuous, thm.Open, thm.Homeomorphism, thm.Gate):
            mp.setattr(cls, "bind", lambda self, cv: lambda ctx: self)
        plan = thm.Statement(spec.theorem_id, dropped).plan(fresh_columns())
    return [[gate(None) for gate in level] for level in plan[:2]]


def test_every_level2_hypothesis_has_a_mask_form():
    # the search gates a row's codomain columns through these alone
    cv = fresh_columns()
    for spec in thm.THEOREMS.values():
        gates = plan_gates(spec)[1]
        for h in spec.hyps:
            if h.level == 2:
                bound_mask(h.test, cv)
            assert (h.level == 2) == (h.test in gates), (
                spec.theorem_id, h.name)


def test_every_level1_hypothesis_has_a_mask_form():
    # the search decides the level-1 gate through these alone
    cv = fresh_columns()
    for spec in thm.THEOREMS.values():
        gates = plan_gates(spec)[0]
        for h in spec.hyps:
            if h.level == 1:
                bound_mask(h.test, cv)
            assert (h.level == 1) == (h.test in gates), (
                spec.theorem_id, h.name)


def test_every_conclusion_has_a_mask_form():
    # the search decides the conclusions through these alone
    cv = fresh_columns()
    for spec in thm.THEOREMS.values():
        for c in spec.concls:
            if not c.members:
                bound_mask(c.fail, cv)


class Held:
    """A conclusion whose mask form reads its mask off the context, a dict
    by name, and that records each binding."""

    def __init__(self, name, bound):
        self.name, self.bound = name, bound

    def bind(self, cv):
        self.bound.append(self.name)
        return lambda ctx: ctx[self.name]


def test_equivalences_that_share_a_member_are_decided_as_one_group():
    # (a, b) and (c, d) meet through (b, c), and (e, f) stands alone; the
    # joined mask is where some of the equivalences or the plain `p` fails,
    # on random masks over four columns, and each member is bound once
    bound = []
    plain = [thm.ConclSpec(n, Held(n, bound)) for n in "pabcdefq"]
    equivs = [thm.ConclSpec(m, members=tuple(m))
              for m in ("ab", "cd", "bc", "ef")]
    spec = thm.TheoremSpec("T", (), (*plain, *equivs), designated="p")
    full = 0b1111
    violated = thm._violations(spec, (plain[0], *equivs),
                               SimpleNamespace(full=full))
    assert sorted(bound) == list("abcdefp")
    rng = random.Random(0)
    for _ in range(500):
        ctx = {n: rng.randrange(full + 1) for n in "pabcdef"}
        live = rng.randrange(full + 1)
        expected = full & ~ctx["p"]
        for x, y in ("ab", "cd", "bc", "ef"):
            expected |= ctx[x] ^ ctx[y]
        assert violated(ctx, live) == live & expected, ctx


def test_level1_hypotheses_read_only_the_profile_and_the_codomain_topology():
    # the search decides the level-1 gate once per (row, map) for every
    # carrier, so no level-1 hypothesis may read the carriers: its scalar
    # form gives the same value for every pair of carriers, on every
    # (topology, topology, map) up to (3,2) and (2,3)
    level1 = {h.test for spec in thm.THEOREMS.values() for h in spec.hyps
              if h.level == 1}
    assert len(level1) == 8
    for n_dom, n_cod in SearchBounds(3, 3).size_pairs()[:-1]:
        ws = _workspace(n_dom, n_cod)
        for ix, tx in enumerate(ws.tops_x):
            for iy, ty in enumerate(ws.tops_y):
                for img, pre in zip(ws.imgs, ws.pres):
                    for test in level1:
                        assert len({test.holds(thm._Ctx(
                            _side(n_dom, ix, mx), _side(n_cod, iy, my),
                            img, pre))
                            for mx in range(1 << n_dom)
                            for my in range(1 << n_cod)}) == 1, (test, tx, ty)


# each theorem's level-1 and level-2 gates, by hypothesis name, in the
# order the search evaluates them: constants per column and flags of the
# domain and the map first, reads per point after
GATE_ORDER = {
    "TC1": (["continuous"], ["preimage_ok"]),
    "TC2": (["continuous"], ["preimage_ok"]),
    "CONTPSI": (["injective", "surjective", "continuous"], ["preimage_ok"]),
    "TO1": (["open_map"], ["image_ok"]),
    "OPEN_STAR": (["open_map"], ["image_ok"]),
    "OPENBIJ": (["injective", "surjective", "open_map"], ["image_ok"]),
    "CLOSEDSUR": (["injective", "closed_map"], ["image_ok"]),
    "HOMEO_COR": (["homeomorphism"], ["equivalence_ok"]),
    "HOMEO_HR": (["injective", "surjective"], ["image_ideal_equal"]),
    "SAMUELS": (["codomain_regular"], ["domain_star_full"]),
    "JHCOMP": (["codomain_hausdorff", "injective", "surjective"],
               ["image_ideal_equal", "star_to_base_continuous"]),
    "HR34": (["injective", "surjective"],
             ["preimage_ok", "psi_codomain_continuous"]),
    "HR35": (["injective", "surjective"], ["image_ok", "psi_domain_open"]),
}


@pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
def test_gates_keep_their_evaluation_order(tid):
    spec = thm.THEOREMS[tid]
    names = {h.test: h.name for h in spec.hyps if h.level}
    for drop in (None, *spec.hypothesis_names):
        dropped = frozenset() if drop is None else frozenset([drop])
        for level, order, gates in zip((1, 2), GATE_ORDER[tid],
                                       plan_gates(spec, dropped)):
            assert [names[g] for g in gates] == [
                name for name in order if name != drop], (tid, drop, level)
