"""Verdicts are invariant under relabeling the points of either side.

Relabeling the domain by a permutation s and the codomain by t carries an
instance (X, Y, f) to (sX, tY, t.f.s^-1).  Every statement is about ideal
spaces up to isomorphism, so each hypothesis, conclusion, vacuity and
informational flag must come out the same, and a witness carried along
must still break its conclusion.  The search's reduction to relabeling
representatives rests on this.
"""

from hypothesis import given, settings, strategies as st

import oracles
from idealtop import (ALL_THEOREM_IDS, FiniteMap, Ideal, IdealSpace, Instance,
                      Topology, check, full_mask)
from idealtop import theorems as thm
from strategies import preorders


def moved(mask: int, p) -> int:
    return sum(1 << p[x] for x in range(len(p)) if (mask >> x) & 1)


def relabel_space(s: IdealSpace, p) -> IdealSpace:
    table = [0] * s.n
    for x, nb in enumerate(s.top.min_nbhd):
        table[p[x]] = moved(nb, p)
    return IdealSpace(Topology(s.n, tuple(table)),
                      Ideal(s.n, moved(s.ideal.carrier, p)))


def relabel(inst: Instance, s, t) -> Instance:
    values = [0] * inst.X.n
    for x, y in enumerate(inst.f.values):
        values[s[x]] = t[y]
    return Instance(relabel_space(inst.X, s), relabel_space(inst.Y, t),
                    FiniteMap(inst.X.n, inst.Y.n, tuple(values)))


@st.composite
def relabeled_instances(draw):
    """An instance on up to 8 points a side, from random preorders and
    carriers, with a permutation of each side.  Half the draws map a space
    bijectively onto its own topology, so bijections, homeomorphisms and
    their hypotheses come up as well as arbitrary maps."""
    tx = draw(preorders(1, 8))
    X = IdealSpace(tx, Ideal(tx.n, draw(st.integers(0, full_mask(tx.n)))))
    if draw(st.booleans()):
        ty = tx
        values = draw(st.permutations(range(tx.n)))
    else:
        ty = draw(preorders(1, 8))
        values = draw(st.lists(st.integers(0, ty.n - 1),
                               min_size=tx.n, max_size=tx.n))
    Y = IdealSpace(ty, Ideal(ty.n, draw(st.integers(0, full_mask(ty.n)))))
    inst = Instance(X, Y, FiniteMap(tx.n, ty.n, tuple(values)))
    return (inst, draw(st.permutations(range(tx.n))),
            draw(st.permutations(range(ty.n))))


def witness_breaks(tid: str, inst: Instance, w: thm.Witness) -> bool:
    """Whether the witness's subset or point breaks its conclusion, or one
    member of it when the conclusion is an equivalence."""
    spec = thm.spec_for(tid)
    by_name = {c.name: c for c in spec.concls}
    concl = by_name[w.conclusion]
    fails = ([concl.fail] if concl.fail is not None
             else [by_name[m].fail for m in concl.members])
    X, Y, f = oracles.Ops(inst.X), oracles.Ops(inst.Y), inst.f
    if w.kind == "point":  # only the star homeomorphism has point witnesses
        return f.preimage(1 << w.point).bit_count() != 1
    holds = (oracles.HOLDS_ON_DOMAIN if w.side == "domain"
             else oracles.HOLDS_ON_CODOMAIN)
    return any(fn in holds and not holds[fn](X, Y, f, w.mask) for fn in fails)


def relabel_witness(w: thm.Witness, s, t) -> thm.Witness:
    p = s if w.side == "domain" else t
    if w.kind == "point":
        return thm.Witness(w.conclusion, w.side, w.kind, point=p[w.point])
    return thm.Witness(w.conclusion, w.side, w.kind, mask=moved(w.mask, p))


def flags(v: thm.Verdict):
    return v.hypotheses, v.conclusions, v.vacuous, v.info


@settings(max_examples=200)
@given(relabeled_instances())
def test_verdicts_are_invariant_under_relabeling(drawn):
    inst, s, t = drawn
    image = relabel(inst, s, t)
    for tid in ALL_THEOREM_IDS:
        v = check(tid, inst)
        u = check(tid, image)
        assert flags(u) == flags(v), (tid, inst, s, t)
        assert (u.witness is None) == (v.witness is None), tid
        if v.witness is not None:
            assert witness_breaks(tid, inst, v.witness), (tid, v.witness)
            moved_w = relabel_witness(v.witness, s, t)
            assert witness_breaks(tid, image, moved_w), (tid, moved_w)


def test_relabeling_composes_to_the_identity():
    # a relabeling followed by its inverse gives the instance back
    X = IdealSpace(Topology(3, (0b011, 0b010, 0b111)), Ideal(3, 0b100))
    Y = IdealSpace(Topology(2, (0b11, 0b10)), Ideal(2, 0b01))
    inst = Instance(X, Y, FiniteMap(3, 2, (1, 1, 0)))
    s, t = (2, 0, 1), (1, 0)
    s_inv = tuple(s.index(x) for x in range(3))
    t_inv = tuple(t.index(y) for y in range(2))
    assert relabel(relabel(inst, s, t), s_inv, t_inv) == inst
    assert relabel(inst, s, t) != inst
