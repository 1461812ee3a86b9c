"""Finite topological spaces on ground sets {0, ..., n-1}.

Subsets are plain integers used as bitmasks: point ``i`` corresponds to bit
``i``, so set operations are bitwise ops and are exact.  A topology is stored
as its minimal-neighborhood table: ``min_nbhd[x]`` is the smallest open set
containing ``x``.  On a finite ground set every topology is determined by
this table (arbitrary intersections of opens are open), so the encoding is
lossless and makes closure/interior linear in the point count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BadMask, BadPoint, CapExceeded, NotATopology

MAX_POINTS = 16


# ---------------------------------------------------------------------------
# subset masks
# ---------------------------------------------------------------------------

def check_point_count(n: int) -> None:
    """Reject point counts outside 1..MAX_POINTS (the empty space is not a
    valid ground set here)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise CapExceeded(f"point count must be an integer, got {n!r}")
    if n < 1:
        raise CapExceeded(f"point count must be at least 1, got {n}")
    if n > MAX_POINTS:
        raise CapExceeded(f"point count {n} exceeds the cap of {MAX_POINTS}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_mask(mask: int, n: int) -> None:
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise BadMask(f"subset mask must be an integer, got {mask!r}")
    if mask < 0 or mask & ~full_mask(n):
        raise BadMask(f"mask {bin(mask)} has bits outside points 0..{n - 1}")


def mask_of(points: Iterable[int], n: int) -> int:
    """Build a mask from an iterable of point indices."""
    mask = 0
    for p in points:
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
            raise BadPoint(f"point {p!r} outside ground set 0..{n - 1}")
        mask |= 1 << p
    return mask


def points_of(mask: int) -> tuple[int, ...]:
    """Ascending point indices of a mask."""
    out = []
    x = 0
    while mask:
        if mask & 1:
            out.append(x)
        mask >>= 1
        x += 1
    return tuple(out)


def format_mask(mask: int) -> str:
    """Render a mask as a set of points, e.g. ``{0, 2}``."""
    return "{" + ", ".join(str(p) for p in points_of(mask)) + "}"


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` in ascending numeric order."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Topology:
    """A topology on ``n`` points, as its minimal-neighborhood table.

    Invariants enforced at construction: every ``min_nbhd[x]`` contains
    ``x`` and ``y in min_nbhd[x]`` implies ``min_nbhd[y] <= min_nbhd[x]``.
    A subset ``U`` is open iff ``min_nbhd[x] <= U`` for every ``x in U``.
    Its opens and closure table are kept once read, outside equality.
    """

    n: int
    min_nbhd: tuple[int, ...]

    def __post_init__(self) -> None:
        check_point_count(self.n)
        object.__setattr__(self, "min_nbhd", tuple(self.min_nbhd))
        if len(self.min_nbhd) != self.n:
            raise NotATopology(
                f"minimal-neighborhood table has {len(self.min_nbhd)} entries "
                f"for {self.n} points")
        for x, m in enumerate(self.min_nbhd):
            check_mask(m, self.n)
            if not (m >> x) & 1:
                raise NotATopology(f"minimal neighborhood of {x} does not contain {x}")
        for x, m in enumerate(self.min_nbhd):
            for y in points_of(m):
                if self.min_nbhd[y] & ~m:
                    raise NotATopology(
                        f"table not transitive: {y} in min_nbhd[{x}] but "
                        f"min_nbhd[{y}] is not contained in min_nbhd[{x}]")

    @property
    def full(self) -> int:
        return full_mask(self.n)

    def is_open(self, a: int) -> bool:
        check_mask(a, self.n)
        return _is_open_unchecked(self.min_nbhd, a)

    def is_closed(self, a: int) -> bool:
        check_mask(a, self.n)
        return _is_open_unchecked(self.min_nbhd, self.full & ~a)

    def opens(self) -> tuple[int, ...]:
        """All open sets, ascending by mask value."""
        return self._opens

    @cached_property
    def _opens(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.full + 1)
                     if _is_open_unchecked(self.min_nbhd, a))

    @cached_property
    def _closures(self) -> tuple[int, ...]:
        """The closure of every subset, by mask: closure is additive and
        ``cl{x}`` holds the points whose minimal neighborhood holds ``x``,
        so ``cl[a] = cl[a - {x}] | cl{x}`` for the least ``x`` in ``a``."""
        up = [sum(1 << y for y, nb in enumerate(self.min_nbhd) if nb >> x & 1)
              for x in range(self.n)]
        cl = [0] * (self.full + 1)
        for a in range(1, self.full + 1):
            low = a & -a
            cl[a] = cl[a ^ low] | up[low.bit_length() - 1]
        return tuple(cl)

    def closed_sets(self) -> tuple[int, ...]:
        """All closed sets, ascending by mask value."""
        return tuple(sorted(self.full & ~o for o in self.opens()))

    def closure(self, a: int) -> int:
        check_mask(a, self.n)
        out = 0
        for x, m in enumerate(self.min_nbhd):
            if m & a:
                out |= 1 << x
        return out

    def interior(self, a: int) -> int:
        check_mask(a, self.n)
        out = 0
        for x in points_of(a):
            if not self.min_nbhd[x] & ~a:
                out |= 1 << x
        return out

    def __repr__(self) -> str:  # compact, e.g. Topology(2, [{0, 1}, {1}])
        table = ", ".join(format_mask(m) for m in self.min_nbhd)
        return f"Topology({self.n}, [{table}])"


def _is_open_unchecked(min_nbhd: tuple[int, ...], a: int) -> bool:
    rest = a
    while rest:
        x = (rest & -rest).bit_length() - 1
        if min_nbhd[x] & ~a:
            return False
        rest &= rest - 1
    return True


# -- construction -----------------------------------------------------------

def make_topology(n: int, opens: Iterable[int]) -> Topology:
    """Canonicalize a topology given by its full open-set family.

    The family must already be a topology: contain the empty set and the
    whole space and be closed under pairwise union and intersection.  Use
    :func:`generate_topology` to close an arbitrary family instead.

    The opens of the topology the family generates are the unions of its
    minimal neighborhoods, and every member is among them, so the family
    is a topology iff it is closed under union with each minimal
    neighborhood; the check reads each member once per point.
    """
    check_point_count(n)
    family = set()
    for a in opens:
        check_mask(a, n)
        family.add(a)
    full = full_mask(n)
    if 0 not in family:
        raise NotATopology("family does not contain the empty set")
    if full not in family:
        raise NotATopology("family does not contain the whole space "
                           f"{format_mask(full)}")
    top = Topology(n, _min_nbhds(n, family))
    if any(a | m not in family for a in family for m in top.min_nbhd):
        missing = next(u for u in top.opens() if u not in family)
        raise NotATopology(
            "family not closed under union and intersection: "
            f"{format_mask(missing)} is missing")
    return top


def generate_topology(n: int, family: Iterable[int]) -> Topology:
    """Smallest topology containing every member of ``family``.

    The minimal neighborhood of ``x`` in the generated topology is the
    intersection of all family members containing ``x`` (the whole space if
    there are none); the generated opens are exactly the unions of such
    neighborhoods.
    """
    check_point_count(n)
    members = []
    for a in family:
        check_mask(a, n)
        members.append(a)
    return Topology(n, _min_nbhds(n, members))


def _min_nbhds(n: int, members: Iterable[int]) -> tuple[int, ...]:
    nbhds = [full_mask(n)] * n
    for a in members:
        for x in points_of(a):
            nbhds[x] &= a
    return tuple(nbhds)


def is_open(top: Topology, a: int) -> bool:
    return top.is_open(a)


def closure(top: Topology, a: int) -> int:
    return top.closure(a)


def interior(top: Topology, a: int) -> int:
    return top.interior(a)


# -- ready-made spaces ------------------------------------------------------

def discrete(n: int) -> Topology:
    check_point_count(n)
    return Topology(n, tuple(1 << x for x in range(n)))


def indiscrete(n: int) -> Topology:
    check_point_count(n)
    return Topology(n, (full_mask(n),) * n)


def sierpinski() -> Topology:
    """Two points with exactly one nontrivial open set, {1}."""
    return Topology(2, (0b11, 0b10))


def point_space() -> Topology:
    return discrete(1)


# ---------------------------------------------------------------------------
# separation axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationProfile:
    t0: bool
    t1: bool
    hausdorff: bool
    regular: bool


def separation_profile(top: Topology) -> SeparationProfile:
    """Separation facts about a topology.

    Each flag follows the textbook definition, decided over the minimal
    neighborhoods (which form a basis, so separating by opens and separating
    by minimal neighborhoods agree).  ``regular`` asks for a point and a
    disjoint closed set to be separated by disjoint opens; no T-axiom is
    folded in, so indiscrete spaces are regular.

    ``regular`` is evaluated as "every minimal neighborhood is closed", that
    is ``N(z)`` misses ``N(x)`` whenever ``z`` is outside ``N(x)``.  If the
    space is regular and ``z`` is outside ``N(x)``, then ``x`` is outside the
    closed set ``cl{z}``, so ``N(x)`` misses the least open set around
    ``cl{z}``, which holds ``N(z)``.  Conversely, if ``x`` is outside a
    closed ``C``, then ``N(x)`` misses ``C``, and for ``y`` in ``C`` the
    closed ``N(x)`` misses ``N(y)``; so ``N(x)`` and the union of those
    ``N(y)`` separate ``x`` from ``C``.
    """
    n, mn = top.n, top.min_nbhd
    t0 = all(mn[x] != mn[y] for x in range(n) for y in range(x + 1, n))
    t1 = all(mn[x] == 1 << x for x in range(n))
    hausdorff = all(not mn[x] & mn[y]
                    for x in range(n) for y in range(x + 1, n))
    regular = all(not mn[z] & mn[x]
                  for x in range(n) for z in range(n) if not (mn[x] >> z) & 1)
    return SeparationProfile(t0, t1, hausdorff, regular)


# ---------------------------------------------------------------------------
# JSON form: {"n": int, "opens": [[points...], ...]}
# ---------------------------------------------------------------------------

def topology_to_json(top: Topology) -> dict:
    """Emit the full open-set family, empty set and whole space included."""
    return {"n": top.n, "opens": [list(points_of(o)) for o in top.opens()]}


def topology_from_json(doc: object, where: str = "topology") -> Topology:
    """Parse the JSON form.  The empty set and the whole space may be
    omitted on input; they are adjoined before validation."""
    from .jsonio import parse_topology
    return parse_topology(doc, where)
