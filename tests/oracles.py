"""Independent brute-force implementations used as test oracles.

Nothing here reuses package logic beyond raw data (ground-set sizes, masks,
minimal-neighborhood tables); each oracle recomputes its answer from first
principles so that agreement with the package is meaningful.
"""

from itertools import combinations


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


def closure_definitional(n: int, opens, a: int) -> int:
    """Smallest superset of ``a`` whose complement is open."""
    closed_supersets = [full(n) & ~u for u in opens
                        if a & ~(full(n) & ~u) == 0]
    out = full(n)
    for c in closed_supersets:
        out &= c
    return out


# -- predicates the package evaluates in closed form ---------------------------
# These are the package's former library bodies, kept unchanged; they take an
# IdealSpace and read its opens, minimal neighborhoods and ideal membership.

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
