"""The operator core of an ideal topological space.

Given a topology and an ideal on the same points, the local function sends a
set ``A`` to the points all of whose neighborhoods meet ``A`` in a non-small
set.  It generalizes closure (with the trivial ideal it *is* closure) and
drives everything else here: the star closure ``A | A*``, the star topology
whose closed sets are the ``A* <= A`` sets, the dual operator
``psi(A) = X - (X - A)*`` (always open in the base topology), the topology
generated by the psi-images of opens, compatibility of ideal and topology,
and smallness-compactness.

Every ideal on a finite set is a carrier ideal: the power set of a carrier
``M``.  With it the local function collapses to ``closure(A - M)``; the
definitional quantifier over all open neighborhoods is kept as
:func:`local_function_by_definition` so tests can pin the shortcut to it.
Compatibility and smallness-compactness are constantly true on such spaces
and are evaluated in that closed form, with the proof in each docstring;
their definitional loops live in the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, InternalCheckError
from .ideal import Ideal
from .space import (Topology, check_mask, format_mask, make_topology,
                    generate_topology)


@dataclass(frozen=True)
class IdealSpace:
    """A topology and an ideal on the same finite ground set."""

    top: Topology
    ideal: Ideal

    def __post_init__(self) -> None:
        if self.top.n != self.ideal.n:
            raise DimensionMismatch(
                f"topology on {self.top.n} points, ideal on {self.ideal.n}")

    @property
    def n(self) -> int:
        return self.top.n

    @property
    def full(self) -> int:
        return self.top.full

    def __repr__(self) -> str:
        return f"IdealSpace({self.top!r}, carrier={format_mask(self.ideal.carrier)})"


# ---------------------------------------------------------------------------
# local function and friends
# ---------------------------------------------------------------------------

def local_function(s: IdealSpace, a: int) -> int:
    """Points whose every neighborhood meets ``a`` in a non-small set.

    Computed through minimal neighborhoods: x qualifies iff
    ``min_nbhd[x] & a`` is not in the ideal, equivalently iff
    ``closure(a - carrier)`` contains x.
    """
    check_mask(a, s.n)
    m = s.ideal.carrier
    out = 0
    for x, nb in enumerate(s.top.min_nbhd):
        if nb & a & ~m:
            out |= 1 << x
    return out


def local_function_by_definition(s: IdealSpace, a: int) -> int:
    """The same set by the raw definition: quantify over all open
    neighborhoods of each point.  Quadratically slower; used as an oracle."""
    check_mask(a, s.n)
    opens = s.top.opens()
    out = 0
    for x in range(s.n):
        if all(not s.ideal.contains(u & a)
               for u in opens if (u >> x) & 1):
            out |= 1 << x
    return out


def star_closure(s: IdealSpace, a: int) -> int:
    """``a`` together with its local function; a Kuratowski closure."""
    return a | local_function(s, a)


def psi(s: IdealSpace, a: int) -> int:
    """Complement of the local function of the complement.

    The result is always open in the base topology; that is asserted here
    because several checkers rely on it.
    """
    check_mask(a, s.n)
    out = s.full & ~local_function(s, s.full & ~a)
    if not s.top.is_open(out):
        raise InternalCheckError(
            f"psi({format_mask(a)}) = {format_mask(out)} is not open")
    return out


def star_topology(s: IdealSpace) -> Topology:
    """The finer topology whose closed sets are the ``A* <= A`` sets.

    Built from the star-closed sets and re-verified against the membership
    test ``U <= psi(U)``; a discrepancy between the two constructions is an
    internal error, never silently resolved.  The result always sits between
    the base topology and the discrete topology.
    """
    full = s.full
    opens_from_closed = []
    opens_from_psi = []
    for u in range(full + 1):
        c = full & ~u
        if not local_function(s, c) & ~c:
            opens_from_closed.append(u)
        if not u & ~psi(s, u):
            opens_from_psi.append(u)
    if opens_from_closed != opens_from_psi:
        raise InternalCheckError(
            "star topology mismatch: closed-set route gives "
            f"{[format_mask(u) for u in opens_from_closed]}, psi route gives "
            f"{[format_mask(u) for u in opens_from_psi]}")
    result = make_topology(s.n, opens_from_closed)
    base = set(s.top.opens())
    if not base.issubset(opens_from_closed):
        raise InternalCheckError("star topology is not finer than the base")
    return result


def psi_topology(s: IdealSpace) -> Topology:
    """Smallest topology containing the psi-image of every open set."""
    return generate_topology(s.n, {psi(s, u) for u in s.top.opens()})


def is_compatible(s: IdealSpace) -> bool:
    """Whether locally small sets are small; always true here.

    A set ``A`` is locally small when each ``x`` in ``A`` has an open ``U``
    with ``U & A`` small.  Every ideal on a finite set is the carrier ideal
    of its union ``M``, so that means ``x in U & A <= M`` for each ``x`` in
    ``A``: ``A <= M``, and ``A`` is small.  The check over all subsets is
    kept in the test oracles, pinned to this closed form.
    """
    return True


def is_ideal_compact(s: IdealSpace) -> bool:
    """Whether every open cover has a finite subfamily whose uncovered
    remainder is small.

    On a finite ground set every open cover is its own finite subfamily
    and leaves an empty remainder, which every ideal contains.  The
    enumeration of covers and subfamilies is kept in the test oracles,
    pinned to this closed form.
    """
    return s.ideal.contains(0)


# ---------------------------------------------------------------------------
# algebraic laws of the local function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawCheck:
    name: str
    holds: bool
    witness: tuple[int, ...] | None  # offending masks, if any


LAW_NAMES = (
    "monotone",              # A <= B  implies  A* <= B*
    "closed_below_closure",  # A* = closure(A*) <= closure(A)
    "idempotence_bound",     # (A*)* <= A*
    "union",                 # (A | B)* = A* | B*
    "small_invariance",      # (A | I)* = A* = (A - I)*  for small I
)


def check_local_function_laws(s: IdealSpace) -> tuple[LawCheck, ...]:
    """Exhaustively test the five algebraic laws on one space.

    Returns one entry per law with the first offending masks on failure;
    every law is expected to hold on every space.
    """
    full = s.full
    star = [local_function(s, a) for a in range(full + 1)]
    cl = [s.top.closure(a) for a in range(full + 1)]

    def first(pairs):
        for w in pairs:
            return w
        return None

    w1 = first((a, b) for a in range(full + 1) for b in range(full + 1)
               if not a & ~b and star[a] & ~star[b])
    w2 = first((a,) for a in range(full + 1)
               if star[a] != cl[star[a]] or star[a] & ~cl[a])
    w3 = first((a,) for a in range(full + 1) if star[star[a]] & ~star[a])
    w4 = first((a, b) for a in range(full + 1) for b in range(full + 1)
               if star[a | b] != star[a] | star[b])
    w5 = first((a, i) for a in range(full + 1) for i in s.ideal.members()
               if star[a | i] != star[a] or star[a & ~i] != star[a])

    witnesses = (w1, w2, w3, w4, w5)
    return tuple(LawCheck(name, w is None, w)
                 for name, w in zip(LAW_NAMES, witnesses))
