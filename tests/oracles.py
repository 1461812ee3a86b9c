"""Independent brute-force implementations used as test oracles.

Nothing here reuses package logic beyond raw data (ground-set sizes, masks,
minimal-neighborhood tables); each oracle recomputes its answer from first
principles so that agreement with the package is meaningful.  The
conclusion tables at the end are keyed by the package's declarations, but
their predicates read only the definitions.  The map classification, the
open-set walks and the block scan the package replaced with faster forms
are kept here as they were, to pin the new forms to.
"""

from functools import lru_cache
from itertools import combinations

from idealtop import search, theorems as thm
from idealtop.maps import MapProfile, _check_dims, image_table, preimage_table
from idealtop.theorems import (Continuous, Homeomorphism, Open, Transport,
                               Witness)

# the star topology's continuity, openness and homeomorphism declarations
STAR_CONT = Continuous("star_nbhd", "star_nbhd")
STAR_OPEN = Open("star_nbhd", "cl_star")
STAR_HOMEO = Homeomorphism(STAR_CONT, STAR_OPEN)


def full(n: int) -> int:
    return (1 << n) - 1


def subsets(n: int):
    return range(1 << n)


# -- set-family filters ------------------------------------------------------

def family_filter_topologies(n: int) -> list[frozenset[int]]:
    """Every topology on n labeled points as an explicit open-set family,
    found by filtering all families that contain the empty and full sets for
    closure under pairwise union and intersection."""
    f = full(n)
    middle = [a for a in subsets(n) if a not in (0, f)]
    out = []
    for pick in range(1 << len(middle)):
        fam = {0, f}
        for i, a in enumerate(middle):
            if (pick >> i) & 1:
                fam.add(a)
        if all(x | y in fam and x & y in fam
               for x, y in combinations(fam, 2)):
            out.append(frozenset(fam))
    return out


def family_filter_ideals(n: int) -> list[frozenset[int]]:
    """Every family satisfying the three ideal axioms: contains the empty
    set, closed downward, closed under pairwise union."""
    nonempty = [a for a in subsets(n) if a]
    out = []
    for pick in range(1 << len(nonempty)):
        fam = {0}
        for i, a in enumerate(nonempty):
            if (pick >> i) & 1:
                fam.add(a)
        downward = all(b in fam
                       for a in fam for b in subsets(n) if b & ~a == 0)
        unions = all(a | b in fam for a, b in combinations(fam, 2))
        if downward and unions:
            out.append(frozenset(fam))
    return out


def min_table_from_family(n: int, family: frozenset[int]) -> tuple[int, ...]:
    """Canonical minimal-neighborhood table of an explicit topology."""
    table = []
    for x in range(n):
        m = full(n)
        for a in family:
            if (a >> x) & 1:
                m &= a
        table.append(m)
    return tuple(table)


# -- openness and separation from an explicit family -------------------------

def alexandrov_opens(n: int, min_nbhd) -> frozenset[int]:
    """Opens as all unions of minimal neighborhoods (plus the empty set);
    independent of the package's per-point openness test."""
    fam = {0}
    for pick in subsets(n):
        u = 0
        for x in range(n):
            if (pick >> x) & 1:
                u |= min_nbhd[x]
        fam.add(u)
    return frozenset(fam)


def separation_by_definition(n: int, opens) -> dict[str, bool]:
    points = range(n)
    has = lambda u, x: (u >> x) & 1

    def sep_t0(x, y):
        return any(has(u, x) != has(u, y) for u in opens)

    def sep_t1(x, y):
        return any(has(u, x) and not has(u, y) for u in opens)

    def sep_h(x, y):
        return any(has(u, x) and has(v, y) and not u & v
                   for u in opens for v in opens)

    closed = [full(n) & ~u for u in opens]

    def sep_reg(x, c):
        return any(has(u, x) and not c & ~v and not u & v
                   for u in opens for v in opens)

    return {
        "t0": all(sep_t0(x, y) for x in points for y in points if x != y),
        "t1": all(sep_t1(x, y) for x in points for y in points if x != y),
        "hausdorff": all(sep_h(x, y) for x in points for y in points if x != y),
        "regular": all(sep_reg(x, c)
                       for c in closed for x in points if not has(c, x)),
    }


# -- ideal-space operators from the definitions -------------------------------

def local_function_definitional(n: int, opens, carrier: int, a: int) -> int:
    """Points x with U & a not small for every open U containing x."""
    out = 0
    for x in range(n):
        nbhds = [u for u in opens if (u >> x) & 1]
        if all(u & a & ~carrier for u in nbhds):
            out |= 1 << x
    return out


def star_opens_by_definition(n: int, opens, carrier: int):
    """The star topology's opens by its two definitions, as a pair of
    ascending tuples: complements of the sets C with C* <= C, and the sets
    U with U <= psi(U) = X - (X - U)*."""
    local = [local_function_definitional(n, opens, carrier, a)
             for a in subsets(n)]
    f = full(n)
    by_closed = tuple(u for u in subsets(n) if not local[f & ~u] & ~(f & ~u))
    by_psi = tuple(u for u in subsets(n) if not u & ~(f & ~local[f & ~u]))
    return by_closed, by_psi


def closure_definitional(n: int, opens, a: int) -> int:
    """Smallest superset of ``a`` whose complement is open."""
    closed_supersets = [full(n) & ~u for u in opens
                        if a & ~(full(n) & ~u) == 0]
    out = full(n)
    for c in closed_supersets:
        out &= c
    return out


# -- predicates the package evaluates in closed form ---------------------------
# These are the package's former library bodies, kept unchanged; they take
# the package's objects and read only their raw data: opens, minimal
# neighborhoods, ideal membership, images and preimages.

def transfer_conditions_by_definition(f, dom, cod) -> tuple[bool, bool, bool]:
    """(preimage_ok, image_ok, equivalence_ok) by quantifying over ideal
    members and over all domain subsets."""
    pre_q = all(dom.contains(f.preimage(i)) for i in cod.members())
    img_q = all(cod.contains(f.image(i)) for i in dom.members())
    eq_q = all(dom.contains(i) == cod.contains(f.image(i))
               for i in range(1 << dom.n))
    return pre_q, img_q, eq_q


def regular_by_definition(top) -> bool:
    """Whether every closed set and every point outside it have disjoint
    neighborhoods: the union of the closed set's minimal neighborhoods must
    miss the point's, for every closed set."""
    mn = top.min_nbhd
    regular = True
    for c in top.closed_sets():
        hull = 0
        for y in _points(c):
            hull |= mn[y]
        for x in _points(top.full & ~c):
            if mn[x] & hull:
                regular = False
                break
        if not regular:
            break
    return regular


def _points(mask: int):
    return [x for x in range(mask.bit_length()) if (mask >> x) & 1]


def is_compatible_by_definition(s) -> bool:
    """Whether locally small sets are small.

    A set is locally small when every one of its points has a neighborhood
    meeting it in a small set; compatibility demands all such sets belong to
    the ideal.  Checked over all subsets.
    """
    m = s.ideal.carrier
    mn = s.top.min_nbhd
    for a in range(s.full + 1):
        locally_small = True
        rest = a
        while rest:
            x = (rest & -rest).bit_length() - 1
            if mn[x] & a & ~m:
                locally_small = False
                break
            rest &= rest - 1
        if locally_small and a & ~m:
            return False
    return True


def is_ideal_compact_by_definition(s) -> bool:
    """Whether every open cover has a finite subfamily whose uncovered
    remainder is small.

    Enumerates every family of nonempty opens that covers the space, then
    its subfamilies.  The cover enumeration is capped; above the cap the
    finite-cover argument (a finite cover is its own subfamily, with empty
    remainder) stands in.
    """
    opens = [u for u in s.top.opens() if u]
    if len(opens) > 20:
        return s.ideal.contains(0)
    full = s.full
    for pick in range(1 << len(opens)):
        union = 0
        members = []
        rest = pick
        while rest:
            i = (rest & -rest).bit_length() - 1
            union |= opens[i]
            members.append(opens[i])
            rest &= rest - 1
        if union != full:
            continue
        if not any(s.ideal.contains(full & ~sub_union)
                   for sub_union in _subfamily_unions(members)):
            return False
    return True


def _subfamily_unions(members: list[int]):
    # the full union comes first, so the search above exits immediately
    yield _union(members)
    for pick in range(1 << len(members)):
        yield _union([m for i, m in enumerate(members) if (pick >> i) & 1])


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


# -- each conclusion at one subset or point, from the definitions -------------

class Ops:
    """A side's local function, psi and star-openness by the definitions."""

    def __init__(self, s) -> None:
        self.n, self.full, self.m = s.n, s.full, s.ideal.carrier
        self.opens = frozenset(s.top.opens())

    def star(self, a: int) -> int:
        return local_function_definitional(self.n, self.opens, self.m, a)

    def psi(self, a: int) -> int:
        return self.full & ~self.star(self.full & ~a)

    def star_open(self, u: int) -> bool:
        c = self.full & ~u
        return not self.star(c) & ~c


def sub(a: int, b: int) -> bool:
    return not a & ~b


# holds-at predicates (X, Y, f, subset) with X, Y the sides' Ops, keyed by
# the declaration they mirror
HOLDS_ON_DOMAIN = {
    Transport("star", "domain", "<="): lambda X, Y, f, a: sub(
        f.image(X.star(a)), Y.star(f.image(a))),
    Transport("cl_star", "domain", "<="): lambda X, Y, f, a: sub(
        f.image(a | X.star(a)), f.image(a) | Y.star(f.image(a))),
    Transport("psi", "domain", ">="): lambda X, Y, f, a: sub(
        Y.psi(f.image(a)), f.image(X.psi(a))),
    Transport("psi", "domain", "<="): lambda X, Y, f, a: sub(
        f.image(X.psi(a)), Y.psi(f.image(a))),
    Transport("star", "domain", ">="): lambda X, Y, f, a: sub(
        Y.star(f.image(a)), f.image(X.star(a))),
    Transport("star", "domain", "=="): lambda X, Y, f, a: (
        f.image(X.star(a)) == Y.star(f.image(a))),
    Transport("psi", "domain", "=="): lambda X, Y, f, a: (
        Y.psi(f.image(a)) == f.image(X.psi(a))),
    STAR_OPEN: lambda X, Y, f, u: (not X.star_open(u)
                                   or Y.star_open(f.image(u))),
    STAR_HOMEO: lambda X, Y, f, u: (not X.star_open(u)
                                    or Y.star_open(f.image(u))),
}
HOLDS_ON_CODOMAIN = {
    Transport("star", "codomain", "<="): lambda X, Y, f, b: sub(
        X.star(f.preimage(b)), f.preimage(Y.star(b))),
    Transport("cl_star", "codomain", "<="): lambda X, Y, f, b: sub(
        f.preimage(b) | X.star(f.preimage(b)), f.preimage(b | Y.star(b))),
    Transport("psi", "codomain", ">="): lambda X, Y, f, b: sub(
        f.preimage(Y.psi(b)), X.psi(f.preimage(b))),
    Transport("psi", "codomain", "<="): lambda X, Y, f, b: sub(
        X.psi(f.preimage(b)), f.preimage(Y.psi(b))),
    Transport("star", "codomain", ">="): lambda X, Y, f, b: sub(
        f.preimage(Y.star(b)), X.star(f.preimage(b))),
    Transport("star", "codomain", "=="): lambda X, Y, f, b: (
        f.preimage(Y.star(b)) == X.star(f.preimage(b))),
    Transport("psi", "codomain", "=="): lambda X, Y, f, b: (
        f.preimage(Y.psi(b)) == X.psi(f.preimage(b))),
    STAR_CONT: lambda X, Y, f, o: (not Y.star_open(o)
                                   or X.star_open(f.preimage(o))),
    STAR_HOMEO: lambda X, Y, f, o: (not Y.star_open(o)
                                    or X.star_open(f.preimage(o))),
    # base continuity, and star-to-base continuity, fail at o
    Continuous("min_nbhd", "min_nbhd"): lambda X, Y, f, o: (
        o not in Y.opens or f.preimage(o) in X.opens),
    Continuous("star_nbhd", "min_nbhd"): lambda X, Y, f, o: (
        o not in Y.opens or X.star_open(f.preimage(o))),
}


# -- the map classification and block scan the package replaced ------------

def classify_by_is_open(f, t_dom, t_cod):
    """The package's former map classification: each preimage and image
    tested with the validated ``is_open`` and ``is_closed`` of its
    topology."""
    _check_dims(f, t_dom, t_cod)
    pre = preimage_table(f)
    img = image_table(f)
    continuous = all(t_dom.is_open(pre[o]) for o in t_cod.opens())
    open_map = all(t_cod.is_open(img[u]) for u in t_dom.opens())
    full = t_dom.full
    closed_map = all(t_cod.is_closed(img[full & ~u]) for u in t_dom.opens())
    return MapProfile(continuous, open_map, closed_map, f.injective,
                      f.surjective)


@lru_cache(maxsize=None)
def walked_families(min_nbhd: tuple[int, ...], carrier: int):
    """A side's base, star and psi open families, ascending, as the
    package's side tables once listed them: the base opens as unions of
    minimal neighborhoods, the star opens by their definition, and the
    topology generated by the psi-images of the base opens."""
    n, f = len(min_nbhd), full(len(min_nbhd))
    base = tuple(sorted(alexandrov_opens(n, min_nbhd)))
    star = star_opens_by_definition(n, base, carrier)[0]
    images = frozenset(f & ~local_function_definitional(n, base, carrier, f & ~u)
                       for u in base)
    psi = tuple(sorted(alexandrov_opens(n, min_table_from_family(n, images))))
    return base, star, psi


def _unpulled(opens, targets, table):
    """The first of ``opens`` whose entry in ``table`` (a map's preimage or
    image table) is not among ``targets``, or None."""
    return next((o for o in opens if table[o] not in targets), None)


def predicates_by_walk(inst) -> dict:
    """Each continuity, openness and homeomorphism declaration of the
    registry, with its witness or None by the open-set walks the package
    replaced: a continuity witness is the least codomain open set whose
    preimage is not open, an openness witness the least domain open set
    whose image is not open."""
    f = inst.f
    img, pre = image_table(f), preimage_table(f)
    names = ("min_nbhd", "star_nbhd", "psi_nbhd")
    xo = dict(zip(names, walked_families(inst.X.top.min_nbhd,
                                         inst.X.ideal.carrier)))
    yo = dict(zip(names, walked_families(inst.Y.top.min_nbhd,
                                         inst.Y.ideal.carrier)))
    # an open family by the name of a topology's closure table
    xo["cl"], xo["cl_star"] = xo["min_nbhd"], xo["star_nbhd"]
    yo["cl"], yo["cl_star"] = yo["min_nbhd"], yo["star_nbhd"]

    def witness(side, mask):
        return None if mask is None else Witness("", side, "subset", mask=mask)

    def cont(nb_x, nb_y):
        return witness("codomain", _unpulled(yo[nb_y], set(xo[nb_x]), pre))

    def opens(nb_x, cl_y):
        return witness("domain", _unpulled(xo[nb_x], set(yo[cl_y]), img))

    out = {Continuous(a, b): cont(a, b)
           for a, b in (("min_nbhd", "min_nbhd"), ("star_nbhd", "star_nbhd"),
                        ("star_nbhd", "min_nbhd"), ("min_nbhd", "psi_nbhd"))}
    out |= {Open(a, b): opens(a, b)
            for a, b in (("min_nbhd", "cl"), ("star_nbhd", "cl_star"),
                         ("psi_nbhd", "cl"))}
    unhit = None if f.bijective else Witness(
        "", "codomain", "point",
        point=next(y for y in range(f.n_cod) if pre[1 << y].bit_count() != 1))
    for c, o in ((Continuous("min_nbhd", "min_nbhd"), Open("min_nbhd", "cl")),
                 (STAR_CONT, STAR_OPEN)):
        out[Homeomorphism(c, o)] = unhit or out[c] or out[o]
    return out


def scan_block_by_instance(stmt, ws, ix, iy, mx_range, my_range):
    """The search's former block scan of a statement, one instance at a
    time through the scalar gates and the verdict of ``check``: the least
    (m_x, m_y, f_index) violating candidate in one topology-pair block,
    over the given domain and codomain carriers, or None.  A violation is
    a reported conclusion failing in verify mode, and the designated one
    in find mode, decided here from the verdict, not by the statement."""
    n_dom, n_cod = ws.tops_x[ix].n, ws.tops_y[iy].n
    ctx = thm._Ctx(search._side(n_dom, ix, 0), search._side(n_cod, iy, 0),
                   None, None)
    spec, dropped = stmt.spec, stmt.dropped
    if stmt.mode == "verify":
        violated = lambda verdict: not verdict.all_conclusions
    else:
        violated = lambda verdict: not verdict.conclusion(spec.designated)
    best = None
    for fi in range(len(ws.maps)):
        ctx.img, ctx.pre = ws.imgs[fi], ws.pres[fi]
        if not thm.hypotheses_pass(spec, ctx, dropped, level=1):
            continue
        for mx in mx_range:
            ctx.sx = search._side(n_dom, ix, mx)
            for my in my_range:
                ctx.sy = search._side(n_cod, iy, my)
                if not thm.hypotheses_pass(spec, ctx, dropped, level=2):
                    continue
                if violated(thm.check_with_ctx(spec, ctx)):
                    key = (mx, my, fi)
                    if best is None or key < best:
                        best = key
    return best
