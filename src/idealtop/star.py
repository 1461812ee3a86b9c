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

Each (topology, carrier) pair has one set of tables (:class:`_Side`): the
local function, star closure and psi of every subset, and the minimal
neighborhoods of the star and psi topologies.  An :class:`IdealSpace` keeps
its side once read (``IdealSpace._side``), and the search keeps its sides
by topology index (``search._side``).  The operators below read those
tables, and so do the theorem checkers and the search, so every operator
has exactly one implementation.  The search's column tables
(:class:`_Carriers`) are built from them too.
A finite space is Alexandrov, so a topology is its minimal-neighborhood
table and nothing else: the star and psi topologies are built from theirs
in closed form (see :class:`_Side`), and no open-set family is enumerated.
Compatibility and smallness-compactness are constantly true on such spaces
and are evaluated in that closed form, with the proof in each docstring;
their definitional loops, like the second routes to the star topology and
psi, live in the test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch
from .ideal import Ideal
from .space import Topology, check_mask, format_mask, separation_profile


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

    @cached_property
    def _side(self) -> "_Side":
        """The space's tables (:class:`_Side`), kept once read."""
        return _Side(self.top, self.ideal.carrier)

    def __repr__(self) -> str:
        return f"IdealSpace({self.top!r}, carrier={format_mask(self.ideal.carrier)})"


# ---------------------------------------------------------------------------
# per-(topology, carrier) tables
# ---------------------------------------------------------------------------

class _Side:
    """Per-(topology, carrier) tables: local function, star closure and psi
    of every subset, the minimal neighborhoods of the star and psi
    topologies, and the flag for the whole space being its own local
    function; with the topology's minimal neighborhoods, closure table and
    separation flags (``min_nbhd``, ``cl``, ``regular``, ``hausdorff``),
    so that every table has one name on a side.

    ``U`` is star-open iff its complement ``C`` holds its own local function
    ``closure(C - M)``, that is iff no point of ``U`` has a minimal
    neighborhood meeting ``C - M``: iff ``N(x) - M <= U`` for every ``x`` in
    ``U``.  So ``star_nbhd[x] = (N(x) - M) | {x}`` is the minimal star
    neighborhood of ``x``: Jankovic and Hamlett's basis set ``V - I`` of the
    star topology with ``V = N(x)`` and ``I = M - {x}``.  The table is
    transitive: ``y`` in ``N(x) - M`` gives ``N(y) <= N(x)``, hence
    ``N(y) - M <= N(x) - M``.

    ``psi_nbhd[x] = psi(N(x))`` is the minimal neighborhood of ``x`` in the
    topology generated by the psi-images of opens.  A point ``y`` lies in
    ``psi(U)`` iff ``N(y) - M <= U``.  So ``x`` lies in ``psi(N(x))``, and
    if ``x`` lies in ``psi(U)``, then ``U`` holds ``N(x) - M``, and
    ``psi(N(x)) = psi(N(x) - M) <= psi(U)``.
    """

    __slots__ = ("n", "full", "carrier", "min_nbhd", "cl", "regular",
                 "hausdorff", "star", "cl_star", "psi", "star_nbhd",
                 "psi_nbhd", "star_full")

    def __init__(self, top: Topology, carrier: int) -> None:
        self.n = top.n
        self.full = full = top.full
        self.carrier = carrier
        self.min_nbhd = top.min_nbhd
        self.cl = cl = top._closures
        prof = separation_profile(top)
        self.regular, self.hausdorff = prof.regular, prof.hausdorff
        not_m = full & ~carrier
        self.star = star = tuple(cl[a & not_m] for a in range(full + 1))
        self.cl_star = tuple(a | star[a] for a in range(full + 1))
        self.psi = tuple(full ^ star[full ^ a] for a in range(full + 1))
        self.star_nbhd = tuple((nb & not_m) | 1 << x
                               for x, nb in enumerate(top.min_nbhd))
        self.psi_nbhd = tuple(self.psi[nb] for nb in top.min_nbhd)
        self.star_full = star[full] == full


_TESTS = {"sub": lambda u, v: not u & ~v, "sup": lambda u, v: not v & ~u,
          "eq": lambda u, v: u == v, "disj": lambda u, v: not u & v}


class _Carriers(dict):
    """The tables of the codomain columns of one scan row of the search,
    every (topology, carrier) on ``n`` points it pairs the domain with, one
    bit position each, so that a mask over the positions decides every
    column at once (the mask forms in ``theorems`` read them).

    ``self[op, test][b][u]``, for codomain subsets ``b`` and ``u``, is the
    mask of the positions whose column has ``u <= op(b)`` ("sub"),
    ``op(b) <= u`` ("sup"), ``u == op(b)`` ("eq") or ``u`` disjoint from
    ``op(b)`` ("disj").  ``op`` names a table of the column's side.
    ``self["carrier", test][u]`` tests ``u`` against the carrier itself.
    For a per-point table ``op``, such as "psi_nbhd", ``b`` is a point.
    ``self["regular"]`` and ``self["hausdorff"]`` are the masks of the
    positions whose topology has the property.  Each table is built on
    first read.
    """

    __slots__ = ("sides", "n", "full", "full_y", "plans")

    def __init__(self, n: int, sides: list[_Side]) -> None:
        super().__init__()
        self.sides = sides
        self.n = n
        self.full = (1 << len(sides)) - 1
        self.full_y = (1 << n) - 1
        self.plans = {}

    def __missing__(self, key):
        if key in ("regular", "hausdorff"):  # flags of the side's topology
            tab = sum(1 << j for j, s in enumerate(self.sides)
                      if getattr(s, key))
        elif key[0] == "carrier":
            tab = self._row([s.carrier for s in self.sides], _TESTS[key[1]])
        else:
            op, test = key
            ops = [getattr(s, op) for s in self.sides]
            tab = tuple(self._row([o[b] for o in ops], _TESTS[test])
                        for b in range(len(ops[0])))
        self[key] = tab
        return tab

    def _row(self, values: list[int], test) -> tuple[int, ...]:
        """For each subset ``u``, the positions ``j`` with
        ``test(u, values[j])``."""
        at: dict[int, int] = {}  # each value with the positions that have it
        for j, v in enumerate(values):
            at[v] = at.get(v, 0) | 1 << j
        return tuple(sum(pos for v, pos in at.items() if test(u, v))
                     for u in range(1 << self.n))


# ---------------------------------------------------------------------------
# local function and friends
# ---------------------------------------------------------------------------

def local_function(s: IdealSpace, a: int) -> int:
    """Points whose every neighborhood meets ``a`` in a non-small set.

    Read from the side tables, where it is ``closure(a - carrier)``:
    x qualifies iff ``min_nbhd[x] & a`` is not in the ideal.
    """
    check_mask(a, s.n)
    return s._side.star[a]


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
    check_mask(a, s.n)
    return s._side.cl_star[a]


def psi(s: IdealSpace, a: int) -> int:
    """Complement of the local function of the complement; always open in
    the base topology, being the complement of a closure."""
    check_mask(a, s.n)
    return s._side.psi[a]


def star_topology(s: IdealSpace) -> Topology:
    """The finer topology whose closed sets are the ``A* <= A`` sets, with
    minimal neighborhoods ``(N(x) - M) | {x}`` (see :class:`_Side`).  It
    always sits between the base topology and the discrete topology."""
    return Topology(s.n, s._side.star_nbhd)


def psi_topology(s: IdealSpace) -> Topology:
    """Smallest topology containing the psi-image of every open set, with
    minimal neighborhoods ``psi(N(x))`` (see :class:`_Side`)."""
    return Topology(s.n, s._side.psi_nbhd)


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
