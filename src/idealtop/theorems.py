"""Checkers for the preservation theorems and the counterexample constructions.

Every checker consumes an :class:`Instance` (domain ideal space, codomain
ideal space, total map) and produces a :class:`Verdict`: named hypothesis
booleans, named conclusion booleans, a vacuity flag, and a witness when some
conclusion fails.  Conclusions are always evaluated, even under failed
hypotheses, because the counterexample search needs conclusion truth under
weakened hypotheses.

Registry of checkers (hypotheses => conclusions; * is the local function,
psi its open dual, star the induced finer topology):

  TC1        continuous + small preimages      => f[A*] <= (f[A])*  (a),
                                                  (f^-1 B)* <= f^-1[B*]  (b), a<=>b
  TC2        same                              => star closures transport (a, b),
                                                  f star-to-star continuous (c), equiv
  CONTPSI    continuous bijection + small pre  => psi(f[A]) <= f[psi(A)] (a), dual (b)
  TO1        open + small images               => f[psi(A)] <= psi(f[A]) (a), dual (b)
  OPEN_STAR  open + small images               => f star-to-star open
  OPENBIJ    open bijection + small images     => (f[A])* <= f[A*] (a), dual (b)
  CLOSEDSUR  closed injection + small images   => (f[A])* <= f[A*] (a); the
                                                  dual is informational only,
                                                  it needs surjectivity
  HOMEO_COR  homeomorphism + smallness equiv   => star homeomorphism (a),
                                                  *-exchange (b, c), psi-exchange (d, e),
                                                  all equivalent
  HOMEO_HR   bijection + exact image ideal     => star homeomorphism (a),
                                                  *-exchange (b), psi-exchange (c)
                                                  are pairwise equivalent
  SAMUELS    X = X* + regular codomain         => base continuity iff star continuity
  JHCOMP     bijection, smallness-compact domain, Hausdorff codomain,
             exact image ideal, star-to-base continuous
                                                => star-to-star homeomorphism
  HR34       continuous into psi-topology, bijective, compatible codomain,
             small preimages                   => psi(f[A]) <= f[psi(A)]
  HR35       open from psi-topology, bijective, compatible domain,
             small images                      => f[psi(A)] <= psi(f[A])

Fourteen of the quantified conclusions are declared as data, one
:class:`Transport` ``(op, side, rel)`` each, read by a single evaluator.
``op`` is a per-subset table of the side: ``star``, ``cl_star`` (the star
closure ``A | A*``) or ``psi``.  On the ``domain`` side it compares
``f[op_X(A)]`` with ``op_Y(f[A])`` for every ``A``; on the ``codomain``
side, ``op_X(f^-1 B)`` with ``f^-1[op_Y(B)]`` for every ``B``.  ``rel`` is
``<=``, ``>=`` or ``==``.  TC1 (a) is ``(star, domain, <=)``, CONTPSI (b) is
``(psi, codomain, >=)``, and the HOMEO exchanges are the ``==``
declarations.  Continuity and openness between the base, star and psi
topologies are declared the same way, on minimal neighborhoods:
:class:`Continuous` ``(nb_x, nb_y)`` names a neighborhood table of each
side (``maps._continuous``), :class:`Open` ``(nb_x, cl_y)`` one of the
domain and the codomain's closure table (``maps._open``; ``cl_star`` for
the star topology), and :class:`Homeomorphism` pairs one of each with
bijectivity.  A witness, the least failing open set, is searched for only
once one has failed.  An equivalence is true when its members all hold or
all fail.

Every declaration, and every other hypothesis (:class:`Gate`), has two
forms: ``check`` and sampling call ``holds`` on one instance, and a scan
calls ``bind(cv)`` once per column tables ``cv`` (:class:`star._Carriers`)
for the mask form, which decides every codomain (topology, carrier) column
of a scan row at once, as a bitmask over them.  A mask form reads the
codomain, its topology included, from the column tables only, and the
same tables as its scalar form; the tests pin the two to each other.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Optional

from .errors import (BadPoint, BadSearchOption, CapExceeded,
                     DimensionMismatch, UnknownHypothesisName, UnknownTheorem)
from .ideal import Ideal
from .maps import (FiniteMap, _closed, _continuous, _open, image_table,
                   preimage_table)
from .space import MAX_POINTS, Topology, _is_open_unchecked, full_mask, points_of
from .star import IdealSpace, _Carriers, _Side
# unused here; perfbench/tracer.py wraps these attributes of this module by name
from .maps import classify
from .star import is_compatible, is_ideal_compact
from . import jsonio
from . import ideal as ideal_mod
from . import maps as maps_mod
from . import space as space_mod


# ---------------------------------------------------------------------------
# instances and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One unit of theorem checking: two ideal spaces and a map between them."""

    X: IdealSpace
    Y: IdealSpace
    f: FiniteMap

    def __post_init__(self) -> None:
        if self.f.n_dom != self.X.n or self.f.n_cod != self.Y.n:
            raise DimensionMismatch(
                f"map is {self.f.n_dom}->{self.f.n_cod} but spaces have "
                f"{self.X.n} and {self.Y.n} points")

    def to_json(self) -> dict:
        return {
            "X": {"topology": space_mod.topology_to_json(self.X.top),
                  "ideal": ideal_mod.ideal_to_json(self.X.ideal)},
            "Y": {"topology": space_mod.topology_to_json(self.Y.top),
                  "ideal": ideal_mod.ideal_to_json(self.Y.ideal)},
            "f": maps_mod.map_to_json(self.f),
        }

    @staticmethod
    def from_json(doc: object) -> "Instance":
        return jsonio.parse_instance(doc)

    @cached_property
    def _ctx(self) -> "_Ctx":
        """What a check reads, kept once read: ``check ... all`` builds the
        tables of the two sides and the map once for its 13 checks."""
        return _Ctx(self.X._side, self.Y._side, image_table(self.f),
                    preimage_table(self.f))


@dataclass(frozen=True)
class Witness:
    """What broke a conclusion: a subset (as points of the domain or codomain
    ground set) or a single point."""

    conclusion: str
    side: str            # "domain" | "codomain"
    kind: str            # "subset" | "point"
    mask: Optional[int] = None
    point: Optional[int] = None

    def to_json(self) -> dict:
        out = {"conclusion": self.conclusion, "side": self.side}
        if self.kind == "subset":
            out["subset"] = list(points_of(self.mask))
        else:
            out["point"] = self.point
        return out


@dataclass(frozen=True)
class Verdict:
    theorem_id: str
    hypotheses: tuple[tuple[str, bool], ...]
    conclusions: tuple[tuple[str, bool], ...]
    vacuous: bool
    witness: Optional[Witness]
    info: tuple[tuple[str, bool], ...] = ()

    def hypothesis(self, name: str) -> bool:
        return dict(self.hypotheses)[name]

    def conclusion(self, name: str) -> bool:
        return dict(self.conclusions)[name]

    @property
    def all_hypotheses(self) -> bool:
        return all(v for _, v in self.hypotheses)

    @property
    def all_conclusions(self) -> bool:
        return all(v for _, v in self.conclusions)

    @property
    def violates(self) -> bool:
        """Hypotheses all hold yet some conclusion fails."""
        return self.all_hypotheses and not self.all_conclusions

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "hypotheses": dict(self.hypotheses),
            "conclusions": dict(self.conclusions),
            "vacuous": self.vacuous,
            "witness": self.witness.to_json() if self.witness else None,
            "info": dict(self.info),
        }


# ---------------------------------------------------------------------------
# what a checker reads; the per-side tables live with the operators in
# ``star``, the per-map tables in ``maps``
# ---------------------------------------------------------------------------

class _Ctx:
    """Everything a checker reads: domain side, codomain side, and the
    map's image and preimage tables.  The mask forms take the codomain from
    the column tables they are bound to and never read its side, so the
    search's kernel context holds None there."""

    __slots__ = ("sx", "sy", "img", "pre")

    def __init__(self, sx: _Side, sy: _Side, img: tuple[int, ...],
                 pre: tuple[int, ...]) -> None:
        self.sx = sx
        self.sy = sy
        self.img = img
        self.pre = pre


# ---------------------------------------------------------------------------
# declarations: each is decided on one context (``holds``, and called, the
# least subset or point where it fails, or None) and, bound to the codomain
# columns of a scan row (``bind``; see :class:`star._Carriers`), as a mask
# over them, with the domain side and the map fixed in the context
# ---------------------------------------------------------------------------

def _witness(side: str, table: tuple[int, ...], nb_src: tuple[int, ...],
             is_open_dst: Callable[[int], bool]) -> Witness:
    """The least set open under the minimal neighborhoods ``nb_src`` whose
    entry in ``table``, a map's image or preimage table, is not open on the
    other side, as a witness on ``side``; there must be one."""
    return Witness("", side, "subset", mask=next(
        s for s in range(len(table)) if _is_open_unchecked(nb_src, s)
        and not is_open_dst(table[s])))


@dataclass(frozen=True)
class Continuous:
    """Continuity from the domain topology whose minimal neighborhoods are
    the side table ``nb_x`` ("min_nbhd", "star_nbhd" or "psi_nbhd") to the
    codomain topology of ``nb_y``: ``f[N(x)] <= N_Y(f(x))`` for every
    ``x`` (``maps._continuous``).  Called on a context, it returns the least
    ``nb_y``-open set whose preimage is not ``nb_x``-open, or None."""

    nb_x: str
    nb_y: str
    cost = 2  # one read per point (see :class:`Gate`)

    def holds(self, ctx: _Ctx) -> bool:
        return _continuous(ctx.img, getattr(ctx.sx, self.nb_x),
                           getattr(ctx.sy, self.nb_y))

    def __call__(self, ctx: _Ctx) -> Optional[Witness]:
        if self.holds(ctx):
            return None
        nb_x = getattr(ctx.sx, self.nb_x)
        return _witness("codomain", ctx.pre, getattr(ctx.sy, self.nb_y),
                        lambda a: _is_open_unchecked(nb_x, a))

    def bind(self, cv: _Carriers) -> Callable[[_Ctx], int]:
        nb_x, rows, full = self.nb_x, cv[self.nb_y, "sub"], cv.full
        def mask(ctx):
            img, hold = ctx.img, full
            for x, a in enumerate(getattr(ctx.sx, nb_x)):
                hold &= rows[img[1 << x].bit_length() - 1][img[a]]
            return hold
        return mask


@dataclass(frozen=True)
class Open:
    """Openness from the domain topology of the side table ``nb_x`` to the
    codomain topology whose closure table is ``cl_y`` ("cl", or "cl_star"
    for the star topology): every ``f[N(x)]`` is open, where ``V`` is open
    iff ``cl(Y - V) = Y - V`` (``maps._open``).  Called on a context, it
    returns the least ``nb_x``-open set whose image is not open, or None."""

    nb_x: str
    cl_y: str
    cost = 2

    def holds(self, ctx: _Ctx) -> bool:
        return _open(ctx.img, getattr(ctx.sx, self.nb_x),
                     getattr(ctx.sy, self.cl_y))

    def __call__(self, ctx: _Ctx) -> Optional[Witness]:
        if self.holds(ctx):
            return None
        cl_y = getattr(ctx.sy, self.cl_y)
        full = ctx.sy.full
        return _witness("domain", ctx.img, getattr(ctx.sx, self.nb_x),
                        lambda v: cl_y[full ^ v] == full ^ v)

    def bind(self, cv: _Carriers) -> Callable[[_Ctx], int]:
        rows, full, full_y = cv[self.cl_y, "eq"], cv.full, cv.full_y
        def mask(ctx):
            img, hold = ctx.img, full
            for a in getattr(ctx.sx, self.nb_x):
                closed = full_y ^ img[a]
                hold &= rows[closed][closed]
            return hold
        return mask


@dataclass(frozen=True)
class Homeomorphism:
    """A bijection that is ``cont`` and ``opens``, between the topologies
    they name.  Its witness is the least point breaking bijectivity, or the
    least open set breaking continuity, then openness."""

    cont: Continuous
    opens: Open
    cost = 2

    def holds(self, ctx: _Ctx) -> bool:
        return (_bijective(ctx) and self.cont.holds(ctx)
                and self.opens.holds(ctx))

    def __call__(self, ctx: _Ctx) -> Optional[Witness]:
        if not _bijective(ctx):
            return Witness("", "codomain", "point", point=next(
                y for y in range(ctx.sy.n)
                if ctx.pre[1 << y].bit_count() != 1))
        return self.cont(ctx) or self.opens(ctx)

    def bind(self, cv: _Carriers) -> Callable[[_Ctx], int]:
        cont, opens = self.cont.bind(cv), self.opens.bind(cv)
        return lambda ctx: cont(ctx) & opens(ctx) if _bijective(ctx) else 0


def _bijective(ctx: _Ctx) -> bool:
    # a map between equal point counts is bijective iff it is onto
    return len(ctx.img) == len(ctx.pre) and _surjective(ctx)


def _surjective(ctx: _Ctx) -> bool:
    return ctx.img[ctx.sx.full] == len(ctx.pre) - 1  # len(pre) is 2 ** |Y|


_BASE_CONT = Continuous("min_nbhd", "min_nbhd")
_BASE_OPEN = Open("min_nbhd", "cl")
_STAR_CONT = Continuous("star_nbhd", "star_nbhd")
_STAR_OPEN = Open("star_nbhd", "cl_star")
_STAR_TO_BASE = Continuous("star_nbhd", "min_nbhd")
_STAR_HOMEO = Homeomorphism(_STAR_CONT, _STAR_OPEN)


@dataclass(frozen=True)
class Transport:
    """A quantified conclusion: the operator ``op`` carried along the map.

    ``op`` names one of the per-subset tables of :class:`_Side`: "star"
    (the local function), "cl_star" (the star closure) or "psi".  With
    ``side`` "domain" it compares ``f[op_X(A)]`` with ``op_Y(f[A])`` for
    every subset ``A`` of the domain; with "codomain" it compares
    ``op_X(f^-1 B)`` with ``f^-1[op_Y(B)]`` for every subset ``B`` of the
    codomain.  ``rel`` ("<=", ">=" or "==") is the required relation of the
    left set to the right one.  Called on a context, it returns the least
    subset where the relation fails, or None.
    """

    op: str
    side: str
    rel: str

    def __call__(self, ctx: _Ctx) -> Optional[Witness]:
        domain = self.side == "domain"
        src, dst = (ctx.sx, ctx.sy) if domain else (ctx.sy, ctx.sx)
        f = ctx.img if domain else ctx.pre
        op_src, op_dst = getattr(src, self.op), getattr(dst, self.op)
        exact = self.rel == "=="
        # carried = f[op(S)] is the left set on the domain side and the
        # right set on the codomain side, so it must lie inside
        # applied = op(f[S]) for "<=" on the domain and ">=" on the codomain
        carried_inside = (self.rel == "<=") == domain
        for s in range(src.full + 1):
            carried, applied = f[op_src[s]], op_dst[f[s]]
            if carried != applied and (
                    exact or (carried & ~applied if carried_inside
                              else applied & ~carried)):
                return Witness("", self.side, "subset", mask=s)
        return None

    def holds(self, ctx: _Ctx) -> bool:
        return self(ctx) is None

    def bind(self, cv: _Carriers) -> Callable[[_Ctx], int]:
        """The positions of ``cv`` whose codomain side makes the
        declaration hold, with the domain side and the map from a context.

        On the domain side each ``A`` reads row ``f[A]``, column
        ``f[op_X(A)]`` of a table.  On the codomain side, with
        ``L = op_X(f^-1 B)`` and ``R = op_Y(B)``, ``L <= f^-1 R`` iff
        ``f[L] <= R``, and ``f^-1 R <= L`` iff ``R`` misses ``f[X - L]``.
        """
        op, full = self.op, cv.full
        if self.side == "domain":
            rows = cv[self.op, _DOMAIN_TESTS[self.rel]]
            def mask(ctx):
                img, hold = ctx.img, full
                for op_a, img_a in zip(getattr(ctx.sx, op), img):
                    hold &= rows[img_a][img[op_a]]
                return hold
            return mask
        sub = cv[self.op, "sub"] if self.rel != ">=" else ()
        disj = cv[self.op, "disj"] if self.rel != "<=" else ()
        def mask(ctx):
            img, op_x, hold = ctx.img, getattr(ctx.sx, op), full
            for row, p in zip(sub, ctx.pre):
                hold &= row[img[op_x[p]]]
            for row, p in zip(disj, ctx.pre):
                hold &= row[img[ctx.sx.full ^ op_x[p]]]
            return hold
        return mask


# the relation of f[op_X(A)] to op_Y(f[A]) as a carrier-table test
_DOMAIN_TESTS = {"<=": "sub", ">=": "sup", "==": "eq"}


# ---------------------------------------------------------------------------
# the other hypotheses
#
# level 1 hypotheses read the map and the two topologies; level 2 also
# read the carriers; level 0 ones are true on every finite carrier-ideal
# space.  The search decides level 1 once per (row, map), for every
# carrier of the row's domain and columns at once.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """A hypothesis: ``holds``, and ``form``, which binds its mask form, or
    None when ``holds`` reads only the domain side and the map.  ``cost``
    orders the gates of one level: 0 for one read of the column tables, 1
    for a flag of the domain and the map, 2 for one read per point."""

    cost: int
    holds: Callable[[_Ctx], bool]
    form: Optional[Callable[[_Carriers], Callable[[_Ctx], int]]] = None

    def bind(self, cv: _Carriers) -> Callable[[_Ctx], int]:
        full, holds = cv.full, self.holds
        return self.form(cv) if self.form else (
            lambda ctx: full if holds(ctx) else 0)


def _injective(ctx):
    return ctx.img[ctx.sx.full].bit_count() == ctx.sx.n


def _constant(mask):
    return lambda ctx: mask


def _closed_form(cv):
    # the mask form of maps._closed: every f[cl{x}] is its own closure
    rows, full = cv["cl", "eq"], cv.full
    def mask(ctx):
        img, cl, hold = ctx.img, ctx.sx.cl, full
        for x in range(ctx.sx.n):
            image = img[cl[1 << x]]
            hold &= rows[image][image]
        return hold
    return mask


def _h_preimage_ok(ctx):
    return not ctx.pre[ctx.sy.carrier] & ~ctx.sx.carrier


def _h_image_ok(ctx):
    return not ctx.img[ctx.sx.carrier] & ~ctx.sy.carrier


def _carrier_form(test, outside=False):
    # the form of a gate testing f[M], or f[X - M] with ``outside``, against
    # the columns' carriers; f^-1 N <= M iff N misses f[X - M]
    def form(cv):
        row = cv["carrier", test]
        if outside:
            return lambda ctx: row[ctx.img[ctx.sx.full ^ ctx.sx.carrier]]
        return lambda ctx: row[ctx.img[ctx.sx.carrier]]
    return form


def _equivalence_ok_form(cv):
    pre, img = _carrier_form("disj", True)(cv), _carrier_form("sub")(cv)
    return lambda ctx: pre(ctx) & img(ctx)


_INJECTIVE = Gate(1, _injective)
_SURJECTIVE = Gate(1, _surjective)
_CLOSED = Gate(2, lambda ctx: _closed(ctx.img, ctx.sx.cl, ctx.sy.cl),
               _closed_form)
_PREIMAGE_OK = Gate(0, _h_preimage_ok, _carrier_form("disj", True))
_IMAGE_OK = Gate(0, _h_image_ok, _carrier_form("sub"))
_IMAGE_IDEAL_EQUAL = Gate(
    0, lambda ctx: ctx.img[ctx.sx.carrier] == ctx.sy.carrier,
    _carrier_form("eq"))
# compatibility and smallness-compactness; for the proofs, see
# ``star.is_compatible`` and ``star.is_ideal_compact``
_ALWAYS = Gate(0, lambda ctx: True)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypSpec:
    name: str
    level: int  # 1: the map and the topologies; 2: carriers too; 0: constant
    test: Gate | Continuous | Open | Homeomorphism


@dataclass(frozen=True)
class ConclSpec:
    name: str
    fail: Optional[Continuous | Open | Homeomorphism | Transport] = None
    members: tuple[str, ...] = ()  # equivalence flag over earlier conclusions
    report: bool = True            # False: evaluated but informational only


@dataclass(frozen=True)
class TheoremSpec:
    theorem_id: str
    hyps: tuple[HypSpec, ...]
    concls: tuple[ConclSpec, ...]
    designated: str  # conclusion mined by the counterexample search

    @property
    def hypothesis_names(self) -> tuple[str, ...]:
        return tuple(h.name for h in self.hyps)


_SPECS = (
    TheoremSpec(
        "TC1",
        (HypSpec("continuous", 1, _BASE_CONT),
         HypSpec("preimage_ok", 2, _PREIMAGE_OK)),
        (ConclSpec("a", Transport("star", "domain", "<=")),
         ConclSpec("b", Transport("star", "codomain", "<=")),
         ConclSpec("equiv_ab", members=("a", "b"))),
        designated="a"),
    TheoremSpec(
        "TC2",
        (HypSpec("continuous", 1, _BASE_CONT),
         HypSpec("preimage_ok", 2, _PREIMAGE_OK)),
        (ConclSpec("a", Transport("cl_star", "domain", "<=")),
         ConclSpec("b", Transport("cl_star", "codomain", "<=")),
         ConclSpec("c", _STAR_CONT),
         ConclSpec("equiv_abc", members=("a", "b", "c"))),
        designated="a"),
    TheoremSpec(
        "CONTPSI",
        (HypSpec("continuous", 1, _BASE_CONT),
         HypSpec("injective", 1, _INJECTIVE),
         HypSpec("surjective", 1, _SURJECTIVE),
         HypSpec("preimage_ok", 2, _PREIMAGE_OK)),
        (ConclSpec("a", Transport("psi", "domain", ">=")),
         ConclSpec("b", Transport("psi", "codomain", ">=")),
         ConclSpec("equiv_ab", members=("a", "b"))),
        designated="a"),
    TheoremSpec(
        "TO1",
        (HypSpec("open_map", 1, _BASE_OPEN),
         HypSpec("image_ok", 2, _IMAGE_OK)),
        (ConclSpec("a", Transport("psi", "domain", "<=")),
         ConclSpec("b", Transport("psi", "codomain", "<=")),
         ConclSpec("equiv_ab", members=("a", "b"))),
        designated="a"),
    TheoremSpec(
        "OPEN_STAR",
        (HypSpec("open_map", 1, _BASE_OPEN),
         HypSpec("image_ok", 2, _IMAGE_OK)),
        (ConclSpec("star_open", _STAR_OPEN),),
        designated="star_open"),
    TheoremSpec(
        "OPENBIJ",
        (HypSpec("open_map", 1, _BASE_OPEN),
         HypSpec("injective", 1, _INJECTIVE),
         HypSpec("surjective", 1, _SURJECTIVE),
         HypSpec("image_ok", 2, _IMAGE_OK)),
        (ConclSpec("a", Transport("star", "domain", ">=")),
         ConclSpec("b", Transport("star", "codomain", ">=")),
         ConclSpec("equiv_ab", members=("a", "b"))),
        designated="a"),
    # For a closed injection only the forward containment is a theorem: its
    # proof restricts to the image, and the pullback dual genuinely needs
    # surjectivity (counterexample: a point mapped to the closed point of a
    # two-point space with trivial ideals fails the dual).
    TheoremSpec(
        "CLOSEDSUR",
        (HypSpec("closed_map", 1, _CLOSED),
         HypSpec("injective", 1, _INJECTIVE),
         HypSpec("image_ok", 2, _IMAGE_OK)),
        (ConclSpec("a", Transport("star", "domain", ">=")),
         ConclSpec("b", Transport("star", "codomain", ">="), report=False)),
        designated="a"),
    TheoremSpec(
        "HOMEO_COR",
        (HypSpec("homeomorphism", 1, Homeomorphism(_BASE_CONT, _BASE_OPEN)),
         HypSpec("equivalence_ok", 2, Gate(
             0, lambda ctx: _h_preimage_ok(ctx) and _h_image_ok(ctx),
             _equivalence_ok_form))),
        (ConclSpec("a", _STAR_HOMEO),
         ConclSpec("b", Transport("star", "domain", "==")),
         ConclSpec("c", Transport("star", "codomain", "==")),
         ConclSpec("d", Transport("psi", "domain", "==")),
         ConclSpec("e", Transport("psi", "codomain", "==")),
         ConclSpec("all_equiv", members=("a", "b", "c", "d", "e"))),
        designated="a"),
    TheoremSpec(
        "HOMEO_HR",
        (HypSpec("injective", 1, _INJECTIVE),
         HypSpec("surjective", 1, _SURJECTIVE),
         HypSpec("image_ideal_equal", 2, _IMAGE_IDEAL_EQUAL)),
        # `c` follows `a_iff_b`, so mining `a_iff_b` evaluates `a` and `b` only
        (ConclSpec("a", _STAR_HOMEO, report=False),
         ConclSpec("b", Transport("star", "domain", "=="), report=False),
         ConclSpec("a_iff_b", members=("a", "b")),
         ConclSpec("c", Transport("psi", "domain", "=="), report=False),
         ConclSpec("b_iff_c", members=("b", "c")),
         ConclSpec("a_iff_c", members=("a", "c"))),
        designated="a_iff_b"),
    # base continuity implies star-to-base continuity, so the equivalence
    # fails only with base continuity, at its least unpulled open set
    TheoremSpec(
        "SAMUELS",
        (HypSpec("domain_star_full", 2, Gate(
            1, lambda ctx: ctx.sx.star_full)),
         HypSpec("codomain_regular", 1, Gate(
             0, lambda ctx: ctx.sy.regular,
             lambda cv: _constant(cv["regular"])))),
        (ConclSpec("continuous_base", _BASE_CONT, report=False),
         ConclSpec("continuous_star", _STAR_TO_BASE, report=False),
         ConclSpec("cont_iff",
                   members=("continuous_base", "continuous_star"))),
        designated="cont_iff"),
    TheoremSpec(
        "JHCOMP",
        (HypSpec("injective", 1, _INJECTIVE),
         HypSpec("surjective", 1, _SURJECTIVE),
         HypSpec("ideal_compact", 0, _ALWAYS),
         HypSpec("codomain_hausdorff", 1, Gate(
             0, lambda ctx: ctx.sy.hausdorff,
             lambda cv: _constant(cv["hausdorff"]))),
         HypSpec("image_ideal_equal", 2, _IMAGE_IDEAL_EQUAL),
         HypSpec("star_to_base_continuous", 2, _STAR_TO_BASE)),
        (ConclSpec("star_homeomorphism", _STAR_HOMEO),),
        designated="star_homeomorphism"),
    # By exhaustive search up to three points a side, dropping `injective`
    # or `surjective` here yields a counterexample.  The open dual HR35
    # below needs neither, since x lies in psi(A) iff N(x) - A <= M.  So
    # psi(A) is open in the psi topology: for x in psi(A), N(x) - M <= A,
    # hence psi(N(x)) = psi(N(x) - M) <= psi(A).  By `psi_domain_open`,
    # f[psi(A)] is open in Y.  Take y = f(x) with x in psi(A); then
    # N(y) <= f[psi(A)], so every z in N(y) - f[A] is f(w) for some w in
    # psi(A) - A.  Then w lies in N(w) - A <= M, so z lies in f[M] <= N by
    # `image_ok`.  Hence N(y) - f[A] <= N, that is, y lies in psi(f[A]).
    # Bijectivity is never used.
    TheoremSpec(
        "HR34",
        (HypSpec("psi_codomain_continuous", 2,
                 Continuous("min_nbhd", "psi_nbhd")),
         HypSpec("injective", 1, _INJECTIVE),
         HypSpec("surjective", 1, _SURJECTIVE),
         HypSpec("codomain_compatible", 0, _ALWAYS),
         HypSpec("preimage_ok", 2, _PREIMAGE_OK)),
        (ConclSpec("a", Transport("psi", "domain", ">=")),),
        designated="a"),
    TheoremSpec(
        "HR35",
        (HypSpec("psi_domain_open", 2, Open("psi_nbhd", "cl")),
         HypSpec("injective", 1, _INJECTIVE),
         HypSpec("surjective", 1, _SURJECTIVE),
         HypSpec("domain_compatible", 0, _ALWAYS),
         HypSpec("image_ok", 2, _IMAGE_OK)),
        (ConclSpec("a", Transport("psi", "domain", "<=")),),
        designated="a"),
)

THEOREMS: dict[str, TheoremSpec] = {s.theorem_id: s for s in _SPECS}
ALL_THEOREM_IDS: tuple[str, ...] = tuple(s.theorem_id for s in _SPECS)


def spec_for(theorem_id: str) -> TheoremSpec:
    """The theorem's spec, by case-insensitive id; refuses anything else,
    a non-string included, with :class:`UnknownTheorem`."""
    spec = (THEOREMS.get(theorem_id.upper())
            if isinstance(theorem_id, str) else None)
    if spec is None:
        raise UnknownTheorem(
            f"unknown theorem {theorem_id!r}; known: {', '.join(ALL_THEOREM_IDS)}")
    return spec


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _concl_results(spec: TheoremSpec, ctx: _Ctx
                   ) -> Iterator[tuple[ConclSpec, Optional[Witness]]]:
    """Each conclusion with its witness (None when it holds), in
    declaration order.  An equivalence holds when its members all hold or
    all fail, and otherwise takes the witness of its first failing member.
    An unreported conclusion is only decided, and yields itself when it
    fails: its witness is searched for when an equivalence takes it."""
    fails: dict[str, object] = {}
    for c in spec.concls:
        if c.members:
            bad = [m for m in c.members if fails[m] is not None]
            w = None
            if 0 < len(bad) < len(c.members):
                w = fails[bad[0]]
                if isinstance(w, ConclSpec):
                    w = fails[bad[0]] = w.fail(ctx)
        elif c.report:
            w = fails[c.name] = c.fail(ctx)
        else:
            w = fails[c.name] = None if c.fail.holds(ctx) else c
        yield c, w


def _select_witness(results) -> Optional[Witness]:
    """Deterministic tie-break: domain-side subsets first, then codomain
    subsets, then point witnesses; least mask/point wins, then declaration
    order."""
    candidates = []
    for idx, (c, w) in enumerate(results):
        if not c.report or w is None:
            continue
        side_rank = 0 if w.side == "domain" else 1
        kind_rank = 0 if w.kind == "subset" else 1
        value = w.mask if w.kind == "subset" else w.point
        candidates.append(((kind_rank, side_rank, value, idx), c.name, w))
    if not candidates:
        return None
    _, name, w = min(candidates, key=lambda kv: kv[0])
    return Witness(name, w.side, w.kind, w.mask, w.point)


def check(theorem_id: str, inst: Instance) -> Verdict:
    """Evaluate one theorem on one instance."""
    return check_with_ctx(spec_for(theorem_id), inst._ctx)


def check_with_ctx(spec: TheoremSpec, ctx: _Ctx) -> Verdict:
    hyp_flags = tuple((h.name, h.test.holds(ctx)) for h in spec.hyps)
    results = list(_concl_results(spec, ctx))
    conclusions = tuple((c.name, w is None) for c, w in results if c.report)
    info = tuple((c.name, w is None) for c, w in results if not c.report)
    witness = _select_witness(results)
    return Verdict(
        theorem_id=spec.theorem_id,
        hypotheses=hyp_flags,
        conclusions=conclusions,
        vacuous=not all(v for _, v in hyp_flags),
        witness=witness,
        info=info,
    )


# one instance at a time, for sampling, the test oracles and the tracer

def hypotheses_pass(spec: TheoremSpec, ctx: _Ctx, dropped: Collection[str],
                    level: int) -> bool:
    return all(h.test.holds(ctx) for h in spec.hyps
               if h.level == level and h.name not in dropped)


def conclusions_violated(spec: TheoremSpec, ctx: _Ctx) -> bool:
    return Statement(spec.theorem_id).violated(ctx)


@dataclass(frozen=True)
class Statement:
    """A theorem with some hypotheses dropped, and the mode a search decides
    it in: ``decides`` holds the designated conclusion for "find", and for
    "verify" each reported one but an equivalence whose members are all
    reported, which fails only where one of them does.  Refuses a
    ``dropped`` other than a collection of the theorem's hypothesis names (a
    bare string would read as letters) and any other mode.  Equal statements
    compare and hash equal, as ``dropped`` is sorted without repeats;
    ``given`` keeps the caller's order for the report, sorted for a set."""

    theorem_id: str
    dropped: tuple[str, ...] = ()
    mode: str = "verify"
    given: tuple[str, ...] = field(init=False, repr=False, compare=False)
    decides: tuple[ConclSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = (tuple(self.dropped) if isinstance(self.dropped, Iterable)
                 else (None,))
        if isinstance(self.dropped, str) or not all(
                isinstance(n, str) for n in names):
            raise BadSearchOption(f"dropped hypotheses must be a sequence "
                                  f"of names, got {self.dropped!r}")
        spec = spec_for(self.theorem_id)
        unknown = set(names) - set(spec.hypothesis_names)
        if unknown:
            raise UnknownHypothesisName(
                f"{sorted(unknown)} not among hypotheses of {spec.theorem_id}: "
                f"{list(spec.hypothesis_names)}")
        if self.mode not in ("find", "verify"):
            raise BadSearchOption(
                f"mode must be 'find' or 'verify', got {self.mode!r}")
        given = tuple(sorted(names) if isinstance(self.dropped, Set)
                      else dict.fromkeys(names))
        reported = {c.name for c in spec.concls if c.report}
        object.__setattr__(self, "theorem_id", spec.theorem_id)
        object.__setattr__(self, "dropped", tuple(sorted(given)))
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "decides", tuple(c for c in spec.concls if (
            c.name == spec.designated if self.mode == "find" else c.report
            and not (c.members and reported.issuperset(c.members)))))

    @property
    def spec(self) -> TheoremSpec:
        return THEOREMS[self.theorem_id]

    def violated(self, ctx: _Ctx) -> bool:
        """Whether a conclusion of ``decides`` fails on one context; none
        after the last of them is evaluated."""
        for c, w in _concl_results(self.spec, ctx):
            if w is not None and c in self.decides:
                return True
            if c == self.decides[-1]:
                return False

    def plan(self, cv: _Carriers) -> tuple:
        """What a scan evaluates, bound once to the columns ``cv`` and kept
        in ``cv.plans``: the level-1 and level-2 gates not dropped, the
        cheaper first, and the mask form of :meth:`violated` over ``live``."""
        plan = cv.plans.get(self)
        if plan is None:
            spec = self.spec
            plan = cv.plans[self] = (*(tuple(h.test.bind(cv) for h in sorted(
                (h for h in spec.hyps if h.level == level
                 and h.name not in self.dropped), key=lambda h: h.test.cost))
                for level in (1, 2)), _violations(spec, self.decides, cv))
        return plan


def _violations(spec: TheoremSpec, decides: tuple, cv: _Carriers):
    # where not all of a group hold and some do: the plain conclusions of
    # ``decides``, and the members of its equivalences, those sharing one
    # joined, as they fail together where the joined members disagree
    joined = []
    for group in (set(c.members) for c in decides if c.members):
        meet = [g for g in joined if g & group]
        joined = [g for g in joined if g not in meet] + [group.union(*meet)]
    plain = {c.name for c in decides if not c.members}
    forms = {c.name: c.fail.bind(cv) for c in spec.concls
             if c.name in plain.union(*joined)}
    full = cv.full
    groups = [(some, [f for m, f in forms.items() if m in g])
              for some, g in [(full, plain)] + [(0, g) for g in joined]]
    def violated(ctx, live):
        bad = 0
        for some, members in groups:
            every = full
            for form in members:
                every &= (held := form(ctx))
                some |= held
            bad |= some & ~every
        return live & bad
    return violated


# ---------------------------------------------------------------------------
# the counterexample constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Extension:
    """A seed space extended by one fresh point."""

    space: IdealSpace
    new_point: int


@dataclass(frozen=True)
class Collapse:
    """A seed space extended by a twin of ``collapsed_point``; the canonical
    map sends both twin and original to the original, and the codomain ideal
    carrier drops that point."""

    space: IdealSpace
    new_point: int
    collapsed_point: int
    codomain_carrier: int


def ctor_add_open_point(seed: IdealSpace) -> Extension:
    """Adjoin a fresh point that belongs to every nonempty open set.

    Opens of the result: every seed open with the new point added, plus the
    empty set.  The new point is small (it joins the ideal carrier), so it
    never lands in any local function.
    """
    n = seed.n
    if n + 1 > MAX_POINTS:
        raise CapExceeded(f"cannot extend a {n}-point space beyond {MAX_POINTS}")
    z = n
    zbit = 1 << z
    min_nbhd = tuple(m | zbit for m in seed.top.min_nbhd) + (zbit,)
    top = Topology(n + 1, min_nbhd)
    idl = Ideal(n + 1, seed.ideal.carrier | zbit)
    return Extension(IdealSpace(top, idl), z)


def ctor_add_generic_point(seed: IdealSpace) -> Extension:
    """Adjoin a fresh point whose only neighborhood is the whole space.

    Opens of the result: the seed opens plus the new whole space.  The
    carrier is unchanged, so the new point is not small and lands in the
    local function of every non-small set.
    """
    n = seed.n
    if n + 1 > MAX_POINTS:
        raise CapExceeded(f"cannot extend a {n}-point space beyond {MAX_POINTS}")
    z = n
    full = full_mask(n + 1)
    min_nbhd = tuple(seed.top.min_nbhd) + (full,)
    top = Topology(n + 1, min_nbhd)
    idl = Ideal(n + 1, seed.ideal.carrier)
    return Extension(IdealSpace(top, idl), z)


VARIANT_CONT = "CONT"
VARIANT_OPEN = "OPEN"


def ctor_collapse_point(seed: IdealSpace, x0: int, variant: str) -> Collapse:
    """Adjoin a twin of ``x0`` so the collapse map stops being injective.

    CONT variant: opens avoiding ``x0`` survive; opens containing ``x0``
    gain the twin (the collapse map stays continuous).  OPEN variant: opens
    avoiding ``x0`` survive and only the whole space contains ``x0`` and the
    twin (the collapse map stays open).  In both, the domain carrier drops
    ``x0`` and the returned codomain carrier drops it as well.
    """
    n = seed.n
    if n + 1 > MAX_POINTS:
        raise CapExceeded(f"cannot extend a {n}-point space beyond {MAX_POINTS}")
    if not 0 <= x0 < n:
        raise BadPoint(f"point {x0} outside ground set 0..{n - 1}")
    if variant not in (VARIANT_CONT, VARIANT_OPEN):
        raise ValueError(f"variant must be {VARIANT_CONT!r} or {VARIANT_OPEN!r}")
    z = n
    zbit = 1 << z
    full = full_mask(n + 1)
    x0bit = 1 << x0
    min_nbhd = []
    for x in range(n):
        m = seed.top.min_nbhd[x]
        if m & x0bit:
            min_nbhd.append((m | zbit) if variant == VARIANT_CONT else full)
        else:
            min_nbhd.append(m)
    min_nbhd.append((seed.top.min_nbhd[x0] | zbit)
                    if variant == VARIANT_CONT else full)
    top = Topology(n + 1, tuple(min_nbhd))
    carrier = seed.ideal.carrier & ~x0bit
    idl = Ideal(n + 1, carrier)
    return Collapse(IdealSpace(top, idl), z, x0, seed.ideal.carrier & ~x0bit)


# canonical demo instances over a seed --------------------------------------

def add_open_point_instance(seed: IdealSpace) -> Instance:
    """Seed mapped identically into its open-point extension."""
    ext = ctor_add_open_point(seed)
    f = FiniteMap(seed.n, seed.n + 1, tuple(range(seed.n)))
    return Instance(seed, ext.space, f)


def add_generic_point_instance(seed: IdealSpace) -> Instance:
    """Seed mapped identically into its generic-point extension."""
    ext = ctor_add_generic_point(seed)
    f = FiniteMap(seed.n, seed.n + 1, tuple(range(seed.n)))
    return Instance(seed, ext.space, f)


def collapse_point_instance(seed: IdealSpace, x0: int, variant: str) -> Instance:
    """The collapse extension mapped onto the seed, twin and original both
    landing on ``x0``; the codomain carrier drops ``x0``."""
    col = ctor_collapse_point(seed, x0, variant)
    values = tuple(range(seed.n)) + (x0,)
    f = FiniteMap(seed.n + 1, seed.n, values)
    codomain = IdealSpace(seed.top, Ideal(seed.n, col.codomain_carrier))
    return Instance(col.space, codomain, f)
