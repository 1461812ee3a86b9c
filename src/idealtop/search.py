"""Exhaustive enumeration and counterexample mining at desk scale.

Instances are enumerated in a fixed canonical order: size pairs
(n_dom, n_cod) ascending lexicographically, then domain topology, domain
ideal carrier, codomain topology, codomain carrier, map (value table
lexicographic).  Work is partitioned into rows, one domain topology with
its carriers each, against every codomain (topology, carrier) column; a
row reports the least candidate of each topology-pair block by the
canonical key, and the aggregator takes the overall minimum, so the result
is identical for any worker count.

Hypothesis evaluation is staged, and each stage decides every column of
a row at once, as a bitmask over them (see :func:`_run_row`): the
topology-level hypotheses once per (row, map), then the carrier-level
gates and the conclusions once per (map, domain carrier), by mask forms
bound once per scan: the 13-theorem certification takes under a tenth of
a second at three points and a few seconds at four, on one core.

Every statement is invariant under relabeling the points, so an unrestricted
scan walks one (topology, carrier) per relabeling class on each side, paired
with every map: the least labeled counterexample is such a representative
(see :func:`_search`).  Carrier-restricted scans and sampling are labeled.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BadMask, BadSearchOption, CapExceeded
from .ideal import Ideal
from .maps import FiniteMap, image_table, preimage_table
from .space import Topology, check_point_count, full_mask
from .star import IdealSpace, _Carriers, _Side
from . import theorems as thm

TOPOLOGY_ENUM_CAP = 5  # labeled topologies on 6+ points are out of reach here


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_topologies(n: int) -> Iterator[Topology]:
    """Every topology on ``n`` labeled points, exactly once, ordered by the
    minimal-neighborhood table read as a tuple.

    Tables are grown point by point; a partial table is extended only while
    the transitivity constraints among the assigned rows hold, which prunes
    most of the candidate space.  Counts: 1, 4, 29, 355, 6942 for n = 1..5.
    Refuses a point count outside 1..5 at the call.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CapExceeded(f"point count must be a positive integer, got {n!r}")
    if n > TOPOLOGY_ENUM_CAP:
        raise CapExceeded(
            f"topology enumeration capped at {TOPOLOGY_ENUM_CAP} points, got {n}")
    full = full_mask(n)
    rows: list[int] = []

    def consistent(x: int, m: int) -> bool:
        # transitivity against rows already placed
        for y in range(x):
            if (m >> y) & 1 and rows[y] & ~m:
                return False
            if (rows[y] >> x) & 1 and m & ~rows[y]:
                return False
        return True

    def build(x: int) -> Iterator[Topology]:
        if x == n:
            yield Topology(n, tuple(rows))
            return
        bit = 1 << x
        for m in range(full + 1):
            if not m & bit:
                continue
            if consistent(x, m):
                rows.append(m)
                yield from build(x + 1)
                rows.pop()

    return build(0)


def enumerate_ideals(n: int) -> Iterator[Ideal]:
    """All 2**n ideals on ``n`` points, ascending by carrier mask.  Refuses
    a point count outside the cap at the call."""
    check_point_count(n)
    return (Ideal(n, carrier) for carrier in range(1 << n))


def enumerate_maps(n_dom: int, n_cod: int) -> Iterator[FiniteMap]:
    """All n_cod**n_dom total maps, lexicographic by value table.  Refuses
    a point count outside the cap at the call."""
    check_point_count(n_dom)
    check_point_count(n_cod)
    return (FiniteMap(n_dom, n_cod, values)
            for values in product(range(n_cod), repeat=n_dom))


# ---------------------------------------------------------------------------
# bounds and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBounds:
    """Point-count caps for both sides; exhaustive mode supports up to 4."""

    max_n_dom: int = 3
    max_n_cod: int = 3

    def __post_init__(self) -> None:
        for cap in (self.max_n_dom, self.max_n_cod):
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
                raise CapExceeded(f"bound must be a positive integer, got {cap!r}")
            if cap > 4:
                raise CapExceeded(f"search bound {cap} exceeds the cap of 4")

    def size_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j)
                     for i in range(1, self.max_n_dom + 1)
                     for j in range(1, self.max_n_cod + 1))


@dataclass(frozen=True)
class Counterexample:
    instance: thm.Instance
    verdict: thm.Verdict

    def to_json(self) -> dict:
        return {"instance": self.instance.to_json(),
                "verdict": self.verdict.to_json()}


@dataclass(frozen=True)
class SearchReport:
    theorem_id: str
    dropped_hypotheses: tuple[str, ...]
    bounds: SearchBounds
    instances_checked: int
    certified: bool
    exhaustive: bool
    counterexample: Optional[Counterexample]
    elapsed_seconds: float
    sampled: bool = False
    seed: Optional[int] = None
    ideal_carriers: Optional[tuple[int, ...]] = None
    # how the result was reached: ``instances_scanned``, the instances in
    # the blocks actually walked (or drawn), and of these
    # ``level1_passed`` and ``level2_passed``, those that pass the level-1
    # gate and both gates
    stats: dict = field(default_factory=dict, compare=False)

    def same_result(self, other: "SearchReport") -> bool:
        """Equality up to wall-clock time and scan statistics."""
        keep = lambda r: (r.theorem_id, r.dropped_hypotheses, r.bounds,
                          r.instances_checked, r.certified, r.exhaustive,
                          r.sampled, r.seed, r.ideal_carriers,
                          None if r.counterexample is None
                          else r.counterexample.to_json())
        return keep(self) == keep(other)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "dropped_hypotheses": list(self.dropped_hypotheses),
            "max_n_dom": self.bounds.max_n_dom,
            "max_n_cod": self.bounds.max_n_cod,
            "instances_checked": self.instances_checked,
            "certified": self.certified,
            "exhaustive": self.exhaustive,
            "sampled": self.sampled,
            "seed": self.seed,
            "ideal_carriers": (None if self.ideal_carriers is None
                               else list(self.ideal_carriers)),
            "counterexample": (None if self.counterexample is None
                               else self.counterexample.to_json()),
            "elapsed_seconds": self.elapsed_seconds,
            "stats": dict(self.stats),
        }


# ---------------------------------------------------------------------------
# per-size workspace, cached per process
# ---------------------------------------------------------------------------

def _orbit_reps(tops: list[Topology]) -> list[tuple[int, tuple[int, ...]]]:
    """The relabeling classes of the (topology, carrier) pairs on ``n``
    points, given every topology on ``n`` points in enumeration order.

    Returns one entry per class: the least index ``ix`` of a topology in the
    class under the permutations of the points, with the least carrier of
    each orbit of the automorphism group of ``tops[ix]`` on carriers.  So
    every representative pair is the least (index, carrier) of its orbit.
    """
    n = tops[0].n
    index = {t.min_nbhd: i for i, t in enumerate(tops)}
    # each permutation p of the points, with the image of every subset under p
    moved = [(p, [sum(1 << p[x] for x in range(n) if (a >> x) & 1)
                  for a in range(1 << n)])
             for p in permutations(range(n))]
    seen: set[int] = set()
    reps = []
    for ix, t in enumerate(tops):
        if ix in seen:
            continue
        automorphisms = []
        for p, mv in moved:
            table = [0] * n
            for x, nb in enumerate(t.min_nbhd):
                table[p[x]] = mv[nb]
            j = index[tuple(table)]
            seen.add(j)
            if j == ix:
                automorphisms.append(mv)
        carriers = {min(mv[c] for mv in automorphisms) for c in range(1 << n)}
        reps.append((ix, tuple(sorted(carriers))))
    return reps


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[Topology, ...],
                              tuple[tuple[int, tuple[int, ...]], ...]]:
    """The topologies on ``n`` points in enumeration order, with their
    relabeling classes (:func:`_orbit_reps`)."""
    tops = tuple(enumerate_topologies(n))
    return tops, tuple(_orbit_reps(tops))


def _blocks(n: int, carriers: Optional[tuple[int, ...]]
            ) -> Sequence[tuple[int, Sequence[int]]]:
    """The codomain blocks of a scan row on ``n`` points, as (topology
    index, carriers) pairs: each class representative with its carriers
    (:func:`_classes`), or, with ``carriers``, every topology with those of
    them that fit, and none when none fits."""
    tops, orbits = _classes(n)
    if carriers is None:
        return orbits
    ys = _carrier_range(n, carriers)
    return [(iy, ys) for iy in range(len(tops))] if ys else []


@lru_cache(maxsize=None)
def _side(n: int, ix: int, carrier: int) -> _Side:
    """The tables of topology ``ix`` of :func:`_classes` with ``carrier``."""
    return _Side(_classes(n)[0][ix], carrier)


@lru_cache(maxsize=None)
def _columns(n: int, carriers: Optional[tuple[int, ...]]) -> _Carriers:
    """The columns of every scan row on ``n`` codomain points, one bit
    position per (topology, carrier) of :func:`_blocks`, block by block,
    with their tables (:class:`star._Carriers`)."""
    return _Carriers(n, [[_side(n, iy, my) for my in ys]
                         for iy, ys in _blocks(n, carriers)])


class _Workspace:
    """The tables one size pair's scan reads besides the side and column
    tables: the topologies of each side size with their classes
    (:func:`_classes`), and the maps with their image and preimage
    tables."""

    def __init__(self, n_dom: int, n_cod: int) -> None:
        self.tops_x, self.orbits_x = _classes(n_dom)
        self.tops_y = _classes(n_cod)[0]
        self.maps = list(enumerate_maps(n_dom, n_cod))
        self.imgs = [image_table(f) for f in self.maps]
        self.pres = [preimage_table(f) for f in self.maps]


@lru_cache(maxsize=None)
def _workspace(n_dom: int, n_cod: int) -> _Workspace:
    return _Workspace(n_dom, n_cod)


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

# one row: the domain topology with its carriers
_Row = tuple[int, Sequence[int]]


def _run_row(args) -> tuple[list[tuple], int, int]:
    """Worker task: scan one row against every column of :func:`_columns`.

    Returns the least candidate of each block that has one, as
    [(iy, mx, my, fi), ...] in block order, with the row's instances that
    pass the level-1 gate and both gates.  Every stage decides all columns
    at once, as a mask over the positions, by the statement's plan bound to
    the columns (:meth:`theorems.Statement.plan`): the level-1 gates, which
    read no carrier, once per map, then the level-2 gates and the violations
    once per (map, m_x).  Within a block the lowest set bit of the violation mask is
    the least m_y.  A block's positions leave the violation masks, never
    the gates, once its candidate has a smaller m_x, since no later map can
    beat it there.
    Workspaces, columns and plans are built lazily per process, so the
    function is safe under any multiprocessing start method.
    """
    stmt, n_dom, n_cod, carriers, (ix, mx_range) = args
    blocks = _blocks(n_cod, carriers)
    if not mx_range or not blocks:
        return [], 0, 0
    ws = _workspace(n_dom, n_cod)
    cv = _columns(n_cod, carriers)
    sides_x = [_side(n_dom, ix, mx) for mx in mx_range]
    gates1, gates2, violated = stmt.plan(cv)
    ctx = thm._Ctx(sides_x[0], None, None, None)
    # each block's least candidate as (index of m_x, position, fi), and
    # for each index of m_x the positions of the blocks whose candidate
    # has a smaller one
    best: dict[int, tuple[int, int, int]] = {}
    settled = [0] * len(mx_range)
    level1 = level2 = 0
    for fi in range(len(ws.maps)):
        ctx.img, ctx.pre = ws.imgs[fi], ws.pres[fi]
        # any domain side of the row serves the level-1 gate
        passing = cv.full
        for gate in gates1:
            passing &= gate(ctx)
            if not passing:
                break
        if not passing:
            continue
        level1 += passing.bit_count() * len(mx_range)
        for j, sx in enumerate(sides_x):
            ctx.sx = sx
            live = passing
            for gate in gates2:
                live &= gate(ctx)
                if not live:
                    break
            if not live:
                continue
            level2 += live.bit_count()
            live &= ~settled[j]
            if not live:
                continue
            bad = violated(ctx, live)
            while bad:
                pos = (bad & -bad).bit_length() - 1
                k = bisect_right(cv.starts, pos) - 1
                bad &= ~cv.spans[k]
                if k not in best or (j, pos) < best[k][:2]:
                    best[k] = (j, pos, fi)
                    for later in range(j + 1, len(settled)):
                        settled[later] |= cv.spans[k]
    hits = []
    for k in sorted(best):
        j, pos, fi = best[k]
        iy, ys = blocks[k]
        hits.append((iy, mx_range[j], ys[pos - cv.starts[k]], fi))
    return hits, level1, level2


def _scan_rows(stmt: thm.Statement, n_dom: int, n_cod: int,
               carriers: Optional[tuple[int, ...]], rows: Sequence[_Row],
               workers: int) -> Iterator[tuple[list[tuple], int, int]]:
    """Scan the rows, in a process pool when more than one worker is asked
    for, and yield the result of each row (see :func:`_run_row`) in row
    order as the rows finish.  The pool has at most one process per row
    and per CPU, and the pool's module is imported only then."""
    tasks = [(stmt, n_dom, n_cod, carriers, row) for row in rows]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_row, tasks)
    else:
        yield from map(_run_row, tasks)


def _carrier_range(n: int, carriers: Optional[tuple[int, ...]]
                   ) -> Sequence[int]:
    """The carriers on ``n`` points that a scan walks: all, or those given."""
    if carriers is None:
        return range(1 << n)
    return tuple(c for c in carriers if c < 1 << n)


def _instance_from_key(ws: _Workspace, ix: int, mx: int, iy: int, my: int,
                       fi: int) -> thm.Instance:
    return thm.Instance(
        IdealSpace(ws.tops_x[ix], Ideal(ws.tops_x[ix].n, mx)),
        IdealSpace(ws.tops_y[iy], Ideal(ws.tops_y[iy].n, my)),
        ws.maps[fi])


ProgressFn = Callable[[str, int, int], None]  # row id, scanned, hit blocks


def _search(stmt: thm.Statement, bounds: SearchBounds, workers: Optional[int],
            progress: Optional[ProgressFn],
            carriers: Optional[tuple[int, ...]]
            ) -> tuple[int, Optional[tuple], dict]:
    """Scan everything within bounds.  Returns (nominal instances checked,
    least global key or None, stats), and calls ``progress`` with the
    instances scanned and the blocks with a candidate so far as each row
    finishes.

    Without ``carriers`` each size pair is scanned over its relabeling
    representatives (:func:`_orbit_reps`) with every map.  Permutations s
    of the domain and t of the codomain carry (T, M, S, N, f) to
    (sT, sM, tS, tN, t.f.s^-1), which every hypothesis and conclusion reads
    alike, and t is independent of s.  So in the least labeled key
    (ix, mx, iy, my, fi) with a candidate, ``ix`` is the least index of its
    class, ``mx`` the least carrier of its Aut(T) orbit, and ``iy``, ``my``
    likewise: the reduced scan walks that key, and it walks only labeled
    instances, so its least key is the labeled one.
    """
    instances = scanned = hit_blocks = level1 = level2 = 0
    keys: list[tuple] = []

    for size_idx, (n_dom, n_cod) in enumerate(bounds.size_pairs()):
        ws = _workspace(n_dom, n_cod)
        mx_range = _carrier_range(n_dom, carriers)
        my_range = _carrier_range(n_cod, carriers)
        instances += (len(ws.tops_x) * len(mx_range) * len(ws.tops_y)
                      * len(my_range) * len(ws.maps))
        rows = (ws.orbits_x if carriers is None
                else [(ix, mx_range) for ix in range(len(ws.tops_x))])
        columns = sum(len(ys) for _, ys in _blocks(n_cod, carriers))
        for (ix, xs), (hits, l1, l2) in zip(rows, _scan_rows(
                stmt, n_dom, n_cod, carriers, rows, workers or 1)):
            scanned += len(ws.maps) * len(xs) * columns
            level1 += l1
            level2 += l2
            hit_blocks += len(hits)
            keys += [(size_idx, ix, mx, iy, my, fi)
                     for iy, mx, my, fi in hits]
            if progress is not None:
                progress(f"n=({n_dom},{n_cod}) domain={ix}", scanned,
                         hit_blocks)
    return instances, min(keys, default=None), {
        "instances_scanned": scanned, "level1_passed": level1,
        "level2_passed": level2}


def _exhaustive(stmt: thm.Statement, bounds: SearchBounds,
                workers: Optional[int], progress: Optional[ProgressFn],
                carriers: Optional[tuple[int, ...]]) -> SearchReport:
    """Run :func:`_search` over the sorted distinct ``carriers`` and report
    its least instance.  Refuses ``bounds`` other than a SearchBounds,
    ``workers`` other than None or an integer of at least 1, no carriers,
    and a carrier with a point beyond the larger bound."""
    if not isinstance(bounds, SearchBounds):
        raise BadSearchOption(f"bounds must be a SearchBounds, got {bounds!r}")
    if workers is not None and (not isinstance(workers, int)
                                or isinstance(workers, bool) or workers < 1):
        raise BadSearchOption(
            f"workers must be None or an integer of at least 1, "
            f"got {workers!r}")
    if carriers is not None:
        masks = tuple(carriers) if isinstance(carriers, Iterable) else ()
        if not masks:
            raise BadMask(f"carriers must name some mask, got {carriers!r}")
        n = max(bounds.max_n_dom, bounds.max_n_cod)
        for c in masks:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise BadMask(
                    f"carrier must be a non-negative integer mask, got {c!r}")
            if c >> n:
                raise BadMask(f"carrier {c} has a point beyond the {n} "
                              f"points of the bounds")
        carriers = tuple(sorted(set(masks)))
    start = time.perf_counter()
    instances, best, stats = _search(stmt, bounds, workers, progress,
                                     carriers)
    found = None
    if best is not None:
        size_idx, ix, mx, iy, my, fi = best
        ws = _workspace(*bounds.size_pairs()[size_idx])
        found = _instance_from_key(ws, ix, mx, iy, my, fi)
    return _finish(stmt, bounds, instances, found,
                   time.perf_counter() - start, stats,
                   exhaustive=(carriers is None), carriers=carriers)


def _finish(stmt: thm.Statement, bounds: SearchBounds, instances: int,
            found: Optional[thm.Instance], elapsed: float, stats: dict,
            exhaustive: bool, sampled: bool = False,
            seed: Optional[int] = None,
            carriers: Optional[tuple[int, ...]] = None) -> SearchReport:
    ce = None if found is None else Counterexample(
        found, thm.check(stmt.theorem_id, found))
    return SearchReport(
        theorem_id=stmt.theorem_id,
        dropped_hypotheses=stmt.given,
        bounds=bounds,
        instances_checked=instances,
        certified=(ce is None and exhaustive),
        exhaustive=exhaustive,
        counterexample=ce,
        elapsed_seconds=elapsed,
        sampled=sampled,
        seed=seed,
        ideal_carriers=carriers,
        stats=stats,
    )


def default_workers() -> int:
    """``IDEALTOP_WORKERS``, or 1 when it is unset.  Refuses a value that is
    not an integer of at least 1."""
    env = os.environ.get("IDEALTOP_WORKERS", "1")
    if not env.strip().isdecimal() or int(env) < 1:
        raise BadSearchOption(f"IDEALTOP_WORKERS must be an integer of at "
                              f"least 1, got {env!r}")
    return int(env)


def verify_exhaustive(theorem_id: str, bounds: SearchBounds = SearchBounds(),
                      *, workers: Optional[int] = None,
                      progress: Optional[ProgressFn] = None,
                      carriers: Optional[tuple[int, ...]] = None) -> SearchReport:
    """Scan every instance within bounds for hypotheses-true /
    some-conclusion-false violations.

    Certifies (no counterexample) or reports the canonically least violator.
    Restricting ``carriers`` makes the run non-certifying and is labeled so
    in the report.
    """
    return _exhaustive(thm.Statement(theorem_id), bounds, workers, progress,
                       carriers)


def find_counterexample(theorem_id: str, dropped_hypotheses=(),
                        bounds: SearchBounds = SearchBounds(),
                        *, workers: Optional[int] = None,
                        progress: Optional[ProgressFn] = None,
                        carriers: Optional[tuple[int, ...]] = None) -> SearchReport:
    """Search for an instance satisfying every non-dropped hypothesis while
    the theorem's designated conclusion fails.  Refuses a bare string of
    dropped hypotheses."""
    return _exhaustive(thm.Statement(theorem_id, dropped_hypotheses, "find"),
                       bounds, workers, progress, carriers)


def sample_search(theorem_id: str, dropped_hypotheses=(), *,
                  bounds: SearchBounds = SearchBounds(4, 4),
                  sample: int, seed: int,
                  mode: str = "find") -> SearchReport:
    """Deterministic seeded sampling for bounds too large to exhaust.

    Never certifies; the report is labeled sampled.  Refuses a ``mode``
    other than "find" and "verify", a ``sample`` other than an integer of
    at least 1, a ``seed`` other than an integer, ``bounds`` other than a
    SearchBounds, and dropped hypotheses other than a sequence of names.
    """
    if not isinstance(bounds, SearchBounds):
        raise BadSearchOption(f"bounds must be a SearchBounds, got {bounds!r}")
    if not isinstance(sample, int) or isinstance(sample, bool) or sample < 1:
        raise BadSearchOption(
            f"sample must be an integer of at least 1, got {sample!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadSearchOption(f"seed must be an integer, got {seed!r}")
    stmt = thm.Statement(theorem_id, dropped_hypotheses, mode)
    spec, dropped = stmt.spec, stmt.dropped
    rng = random.Random(seed)
    start = time.perf_counter()
    pairs = bounds.size_pairs()
    found: Optional[thm.Instance] = None
    level1 = level2 = 0
    for visited in range(1, sample + 1):
        n_dom, n_cod = pairs[rng.randrange(len(pairs))]
        ws = _workspace(n_dom, n_cod)
        ix = rng.randrange(len(ws.tops_x))
        iy = rng.randrange(len(ws.tops_y))
        mx = rng.randrange(1 << n_dom)
        my = rng.randrange(1 << n_cod)
        fi = rng.randrange(len(ws.maps))
        ctx = thm._Ctx(_side(n_dom, ix, mx), _side(n_cod, iy, my),
                       ws.imgs[fi], ws.pres[fi])
        if not thm.hypotheses_pass(spec, ctx, dropped, 1):
            continue
        level1 += 1
        if not thm.hypotheses_pass(spec, ctx, dropped, 2):
            continue
        level2 += 1
        if stmt.violated(ctx):
            found = _instance_from_key(ws, ix, mx, iy, my, fi)
            break
    stats = {"instances_scanned": visited, "level1_passed": level1,
             "level2_passed": level2}
    return _finish(stmt, bounds, visited, found,
                   time.perf_counter() - start, stats,
                   exhaustive=False, sampled=True, seed=seed)
