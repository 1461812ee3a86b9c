"""Seeded random instances for the ``instances`` workload.

A side is drawn as ``random_side`` does: a point count from ``SIZES``, an
edge density from ``DENSITIES``, and the topology of a random preorder,
where each ordered pair of distinct points gets an edge with that
probability and the transitive closure gives the minimal-neighborhood
table.  Sparse draws have up to 2**n opens, dense ones a handful.  An
instance is two such sides with uniform carriers and a uniform map.

``is_ideal_compact`` enumerates every family of a side's k nonempty opens
when k is at most ``ENUM_CAP``, so that side costs about 2**k steps: 5 ms
at k = 11, 0.15 s at k = 15, 2.7 s at k = 19 and 5.3 s at k = 20 on a
2-vCPU Xeon VM.  An instance's exponent is the largest such k of its two
sides, 0 when neither side is enumerated; it sets the instance's cost
class.  ``census.py`` measured the share of freely drawn instances with
each exponent (``EXPONENT_SHARE``).  Drawn freely, how many instances of a
pass land in the costly classes would swing its wall time by seconds, and
its median between the classes, from seed to seed.  So a pass is
stratified instead: it holds ``COUNTS[e]`` instances with exponent e, the
measured share of ``INSTANCES`` rounded to the nearest whole number, and
at least one for every e in ``BAND``, the 2**15..2**20 tail.  Each is the
next free draw of that class.
"""

from __future__ import annotations

import random

from idealtop.ideal import Ideal
from idealtop.maps import FiniteMap
from idealtop.space import Topology
from idealtop.star import IdealSpace
from idealtop.theorems import Instance

INSTANCES = 130
SIZES = (4, 5, 6, 7)
DENSITIES = (0.05, 0.1, 0.2, 0.35, 0.6)
ENUM_CAP = 20  # is_ideal_compact enumerates covers up to this many nonempty opens
BAND = range(15, ENUM_CAP + 1)
# share of freely drawn instances with each exponent, from census.py
# (200,000 draws)
EXPONENT_SHARE = {
    0: 0.062895, 1: 0.14838, 2: 0.08151, 3: 0.053735, 4: 0.046935,
    5: 0.050995, 6: 0.031315, 7: 0.060625, 8: 0.02715, 9: 0.05154,
    10: 0.010115, 11: 0.11664, 12: 0.0073, 13: 0.02529, 14: 0.01032,
    15: 0.128685, 16: 0.003535, 17: 0.035795, 18: 0.00203, 19: 0.041035,
    20: 0.004175}
COUNTS = {e: max(int(e in BAND), round(share * INSTANCES))
          for e, share in EXPONENT_SHARE.items()}
PASS_SIZE = sum(COUNTS.values())


def random_topology(rng: random.Random, n: int, density: float) -> Topology:
    """Topology of a random preorder on ``n`` points."""
    up = [1 << x for x in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < density:
                up[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(n):
            m = up[x]
            rest = m
            while rest:
                y = (rest & -rest).bit_length() - 1
                m |= up[y]
                rest &= rest - 1
            if m != up[x]:
                up[x] = m
                changed = True
    return Topology(n, tuple(up))


def random_side(rng: random.Random) -> Topology:
    return random_topology(rng, rng.choice(SIZES), rng.choice(DENSITIES))


def exponent(*tops: Topology) -> int:
    """The largest nonempty-open count that is_ideal_compact enumerates
    over, among the given sides; 0 if none."""
    return max((k for k in (len(t.opens()) - 1 for t in tops)
                if k <= ENUM_CAP), default=0)


def _space(rng: random.Random, top: Topology) -> IdealSpace:
    return IdealSpace(top, Ideal(top.n, rng.getrandbits(top.n)))


def pass_instances(seed: int) -> list[tuple[Instance, int]]:
    """The instances of one pass, each with the subset its star op uses."""
    rng = random.Random(f"instances:{seed}")
    wanted = dict(COUNTS)
    out = []
    while len(out) < PASS_SIZE:
        tx, ty = random_side(rng), random_side(rng)
        e = exponent(tx, ty)
        if not wanted.get(e):
            continue
        wanted[e] -= 1
        x, y = _space(rng, tx), _space(rng, ty)
        f = FiniteMap(x.n, y.n, tuple(rng.randrange(y.n) for _ in range(x.n)))
        out.append((Instance(x, y, f), rng.getrandbits(x.n)))
    rng.shuffle(out)
    return out
