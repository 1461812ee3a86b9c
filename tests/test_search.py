"""Enumeration, certification, and counterexample mining."""

import collections
import dataclasses
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from itertools import permutations

import pytest

import oracles
from idealtop import (BadMask, BadSearchOption, CapExceeded, SearchBounds,
                      Topology, UnknownHypothesisName,
                      enumerate_ideals, enumerate_maps, enumerate_topologies,
                      find_counterexample, sample_search, verify_exhaustive)
from idealtop import search
from idealtop.maps import MapProfile
from idealtop.search import _orbit_reps, _search
from idealtop.theorems import ALL_THEOREM_IDS, THEOREMS, Statement


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_topology_counts(n, count):
    assert sum(1 for _ in enumerate_topologies(n)) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_topologies_match_family_filter_oracle(n):
    families = oracles.family_filter_topologies(n)
    from_filter = sorted(oracles.min_table_from_family(n, fam)
                         for fam in families)
    from_enum = sorted(t.min_nbhd for t in enumerate_topologies(n))
    assert from_filter == from_enum


def test_topology_enumeration_is_ordered_and_capped():
    tables = [t.min_nbhd for t in enumerate_topologies(3)]
    assert tables == sorted(tables)
    with pytest.raises(CapExceeded):
        next(enumerate_topologies(6))


def test_ideal_enumeration():
    ideals = list(enumerate_ideals(3))
    assert len(ideals) == 8
    assert [i.carrier for i in ideals] == list(range(8))


@pytest.mark.parametrize("dims,count", [((1, 1), 1), ((2, 2), 4), ((3, 3), 27)])
def test_map_enumeration_counts(dims, count):
    maps = list(enumerate_maps(*dims))
    assert len(maps) == count
    tables = [m.values for m in maps]
    assert tables == sorted(tables)


@pytest.mark.parametrize("call", [lambda: enumerate_topologies(-1),
                                  lambda: enumerate_topologies(6),
                                  lambda: enumerate_ideals(-2),
                                  lambda: enumerate_ideals(0),
                                  lambda: enumerate_maps(-1, -1),
                                  lambda: enumerate_maps(2, 0),
                                  lambda: enumerate_maps(0, 2)])
def test_enumeration_refuses_a_bad_size_at_the_call(call):
    with pytest.raises(CapExceeded):
        call()


def test_bounds_validation():
    with pytest.raises(CapExceeded):
        SearchBounds(9, 9)
    with pytest.raises(CapExceeded):
        SearchBounds(0, 1)
    assert SearchBounds(2, 3).size_pairs() == (
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def test_verify_tc1_small_bounds_certifies_with_exact_count():
    r = verify_exhaustive("TC1", SearchBounds(2, 2))
    assert r.certified and r.exhaustive
    assert r.counterexample is None
    # sizes (1,1): 1*2*1*2*1; (1,2): 1*2*4*4*2; (2,1): 4*4*1*2*1; (2,2): 4^5
    assert r.instances_checked == 4 + 64 + 32 + 1024


def test_verify_at_one_point():
    r = verify_exhaustive("TC1", SearchBounds(1, 1))
    assert r.certified and r.instances_checked == 4


def test_find_with_no_drops_equals_verification():
    r = find_counterexample("OPENBIJ", (), SearchBounds(2, 2))
    assert r.certified
    assert r.instances_checked == verify_exhaustive(
        "OPENBIJ", SearchBounds(2, 2)).instances_checked


def test_unknown_dropped_hypothesis():
    with pytest.raises(UnknownHypothesisName):
        find_counterexample("TC1", ("flux",), SearchBounds(1, 1))
    with pytest.raises(UnknownHypothesisName):
        sample_search("TC1", ("flux",), bounds=SearchBounds(1, 1), sample=1,
                      seed=0)


def test_drop_surjective_finds_witness_with_expected_pattern():
    r = find_counterexample("CONTPSI", ("surjective",), SearchBounds(2, 2))
    assert not r.certified and r.counterexample is not None
    v = r.counterexample.verdict
    for name, value in v.hypotheses:
        if name != "surjective":
            assert value, (name, v)
    assert not v.conclusion("a")


def test_reports_identical_across_worker_counts():
    a = verify_exhaustive("TO1", SearchBounds(2, 2), workers=1)
    b = verify_exhaustive("TO1", SearchBounds(2, 2), workers=3)
    assert a.same_result(b)
    c = find_counterexample("OPENBIJ", ("surjective",), SearchBounds(2, 2),
                            workers=1)
    d = find_counterexample("OPENBIJ", ("surjective",), SearchBounds(2, 2),
                            workers=2)
    assert c.same_result(d)


@pytest.mark.parametrize("cpus,expected", [(4, [3, 3, 3, 4, 4, 4]),
                                           (64, [3, 3, 3, 9, 9, 9]),
                                           (None, [])])
def test_process_pool_is_bounded_by_rows_and_cpus(monkeypatch, cpus,
                                                  expected):
    # a stand-in pool records its size and maps in this process, so no
    # process starts however many workers are asked for
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # the scan imports the pool class from its module when it needs one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    pooled = verify_exhaustive("TC1", SearchBounds(3, 3), workers=5000)
    # 1, 3 and 9 rows (domain topology classes) for 1, 2 and 3 points
    assert sizes == expected
    assert pooled.same_result(verify_exhaustive("TC1", SearchBounds(3, 3),
                                                workers=1))


def test_importing_the_package_imports_no_process_pool():
    # only a scan with more than one worker needs multiprocessing
    code = ("import sys, idealtop; "
            "print(sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             sys.path)})
    assert out.stdout.strip() == "[]"


def test_a_row_task_is_self_contained():
    # as a spawn-started pool worker runs it: unpickled in a fresh
    # interpreter, which has built no workspace, column or plan; the row
    # has candidates without `continuous`, and none without `surjective`,
    # which an injection between equal sizes implies
    row = search._workspace(3, 3).orbits_x[1]
    tasks = [(Statement("CONTPSI", (drop,), "find"), 3, 3, None, row)
             for drop in ("surjective", "continuous")]
    code = ("import pickle, sys; from idealtop import search; "
            "tasks = pickle.load(sys.stdin.buffer); "
            "pickle.dump([search._run_row(t) for t in tasks], "
            "sys.stdout.buffer)")
    out = subprocess.run([sys.executable, "-c", code],
                         input=pickle.dumps(tasks), capture_output=True,
                         check=True, env={**os.environ, "PYTHONPATH":
                                          os.pathsep.join(sys.path)})
    alone = pickle.loads(out.stdout)
    assert alone == [search._run_row(task) for task in tasks]
    assert not alone[0][0] and alone[1][0]


def test_progress_lines_cover_all_blocks():
    runs = []
    for workers in (1, 2):
        lines = []
        r = find_counterexample("CONTPSI", ("surjective",), SearchBounds(2, 2),
                                workers=workers,
                                progress=lambda *line: lines.append(line))
        runs.append(lines)
    # one line per scanned row, a domain topology class per size pair:
    # 1 + 1 + 3 + 3, in row order, whatever the worker count
    assert [row for row, _, _ in lines] == [
        "n=(1,1) domain=0", "n=(1,2) domain=0", "n=(2,1) domain=0",
        "n=(2,1) domain=1", "n=(2,1) domain=3", "n=(2,2) domain=0",
        "n=(2,2) domain=1", "n=(2,2) domain=3"]
    assert runs[0] == runs[1]
    scanned = [done for _, done, _ in lines]
    assert scanned == sorted(scanned)
    assert scanned[-1] == r.stats["instances_scanned"]
    assert lines[-1][2] > 0


def test_progress_reports_each_row_before_the_next_is_scanned(monkeypatch):
    events = []
    run_row = search._run_row

    def recorded(task):
        events.append("scan")
        return run_row(task)

    monkeypatch.setattr(search, "_run_row", recorded)
    verify_exhaustive("TC1", SearchBounds(3, 3), workers=1,
                      progress=lambda *line: events.append("line"))
    # rows per size pair: 1, 3 and 9 domain classes, three codomain sizes each
    assert events == ["scan", "line"] * (3 * (1 + 3 + 9))


def test_carrier_restriction_is_labeled_noncertifying():
    r = verify_exhaustive("TC1", SearchBounds(2, 2), carriers=(0,))
    assert not r.exhaustive and not r.certified
    assert r.counterexample is None
    assert r.ideal_carriers == (0,)


def test_carriers_are_sorted_distinct_masks():
    r = verify_exhaustive("TC1", SearchBounds(2, 2), carriers=(3, 0, 0))
    assert r.ideal_carriers == (0, 3)
    assert r.instances_checked == verify_exhaustive(
        "TC1", SearchBounds(2, 2), carriers=(0, 3)).instances_checked
    one = verify_exhaustive("TC1", SearchBounds(2, 2), carriers=(0,))
    assert one.same_result(
        verify_exhaustive("TC1", SearchBounds(2, 2), carriers=(0, 0)))
    assert one.instances_checked == 77


@pytest.mark.parametrize("carrier", [-1, 1.0, True, "0"])
def test_carriers_must_be_nonnegative_integer_masks(monkeypatch, carrier):
    def no_scan(*args):
        raise AssertionError("scanned before the carriers were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    with pytest.raises(BadMask):
        verify_exhaustive("TC1", SearchBounds(2, 2), carriers=(0, carrier))
    with pytest.raises(BadMask):
        find_counterexample("CONTPSI", ("surjective",), SearchBounds(2, 2),
                            carriers=(carrier,))


def test_carrier_scan_keeps_only_representative_blocks():
    search._workspace.cache_clear()
    verify_exhaustive("TC1", SearchBounds(3, 3), carriers=(0,))
    ws = search._workspace(3, 3)
    # every one of the 29 * 29 blocks is read, and the workspace keeps
    # tables per side size and per map only, none per topology pair
    assert vars(ws).keys() == {"tops_x", "orbits_x", "tops_y", "maps",
                               "imgs", "pres"}
    assert [len(ws.tops_x), len(ws.orbits_x)] == [29, 9]
    assert [len(ws.maps), len(ws.imgs), len(ws.pres)] == [27, 27, 27]


# each flag of a map's classification with the level-1 hypothesis whose
# mask form decides it
PROFILE_MASKS = {"continuous": search.thm._BASE_CONT,
                 "open_map": search.thm._BASE_OPEN,
                 "closed_map": search.thm._CLOSED,
                 "injective": search.thm._INJECTIVE,
                 "surjective": search.thm._SURJECTIVE}


def mask_profiles_match_classify(ws, blocks):
    # with a column per codomain topology (the carriers play no part), the
    # mask forms decide every map's flags against all of them at once
    cv = search._columns(ws.tops_y[0].n, (0,))
    masks = {name: test.bind(cv) for name, test in PROFILE_MASKS.items()}
    for ix, iy in blocks:
        tx, ty = ws.tops_x[ix], ws.tops_y[iy]
        ctx = search.thm._Ctx(search._side(tx.n, ix, 0), None, None, None)
        for f, img, pre in zip(ws.maps, ws.imgs, ws.pres):
            ctx.img, ctx.pre = img, pre
            flags = {name: bool(mask(ctx) >> iy & 1)
                     for name, mask in masks.items()}
            assert (MapProfile(**flags)
                    == search.thm.classify(f, tx, ty)), (ix, iy, f)


@pytest.mark.parametrize("pair", SearchBounds(3, 3).size_pairs())
def test_relabeled_profiles_are_the_classification_of_every_block(pair):
    search._workspace.cache_clear()
    ws = search._workspace(*pair)
    mask_profiles_match_classify(
        ws, [(ix, iy) for ix in range(len(ws.tops_x))
             for iy in range(len(ws.tops_y))])


def test_relabeled_profiles_match_classify_on_sampled_four_point_blocks():
    search._workspace.cache_clear()
    ws = search._workspace(4, 4)
    rng = random.Random(14)
    mask_profiles_match_classify(
        ws, [(rng.randrange(355), rng.randrange(355)) for _ in range(40)])


def test_carrier_scan_classifies_representative_blocks_only(monkeypatch):
    clear_table_caches()
    calls = []
    classify = search.thm.classify
    monkeypatch.setattr(search.thm, "classify",
                        lambda *args: calls.append(args) or classify(*args))
    verify_exhaustive("TC1", SearchBounds(3, 3), carriers=(0,))
    # the level-1 gate reads the column tables, so no map is classified,
    # where classifying every map between each pair of class
    # representatives made 2,728 calls and between every labeled pair
    # 24,872
    assert calls == []


# SHA-256 prefixes of the report JSON, less ``elapsed_seconds``, of the
# labeled scans with carriers (0, 1, 5) at (2, 3): verification, and a
# search with the first hypothesis dropped, as recorded before labeled
# blocks were relabeled from their representatives
LABELED_REPORTS = {
    "TC1": ("fed3ee824cb0", "f030e40b38ea"),
    "TC2": ("4cdf5c79e5d0", "99c24f198887"),
    "CONTPSI": ("b9c91c76620f", "f446e5c46511"),
    "TO1": ("072d09af714f", "397d29ac8813"),
    "OPEN_STAR": ("c39d360f37ce", "2df868838b12"),
    "OPENBIJ": ("49de351522a2", "945850cda628"),
    "CLOSEDSUR": ("9bff784f9ce2", "88d327ffa355"),
    "HOMEO_COR": ("736e49286d72", "841c575687db"),
    "HOMEO_HR": ("4306b745a1db", "527a83db68eb"),
    "SAMUELS": ("253eec0813e0", "70597800e058"),
    "JHCOMP": ("3e8d96bd819b", "61aca96b5350"),
    "HR34": ("43882d641334", "a7b359fa70f6"),
    "HR35": ("ac098c37058a", "81e06d32d69f"),
}


@pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
def test_labeled_carrier_scans_keep_their_reports(tid):
    def digest(report):
        doc = report.to_json()
        del doc["elapsed_seconds"]
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]

    bounds, carriers = SearchBounds(2, 3), (0, 1, 5)
    drop = THEOREMS[tid].hypothesis_names[:1]
    assert (digest(verify_exhaustive(tid, bounds, carriers=carriers)),
            digest(find_counterexample(tid, drop, bounds,
                                       carriers=carriers))
            ) == LABELED_REPORTS[tid]


def test_column_tables_are_keyed_by_codomain_size_and_carriers():
    columns = search._columns
    columns.cache_clear()
    verify_exhaustive("TC1", SearchBounds(3, 3), carriers=(0,))
    # one table per codomain size, with a column per topology on 1, 2 and
    # 3 points, though the scan walks (1 + 4 + 29) ** 2 = 1,156 labeled
    # blocks
    assert columns.cache_info().currsize == 3
    assert [len(columns(n, (0,)).sides) for n in (1, 2, 3)] == [1, 4, 29]
    verify_exhaustive("TC1", SearchBounds(3, 3))
    # and one per codomain size with the representatives, whatever the
    # domain size: 2, 10 and 54 columns in 1, 3 and 9 blocks
    assert columns.cache_info().currsize == 6
    tables = [columns(n, None) for n in (1, 2, 3)]
    assert columns.cache_info().currsize == 6
    assert [len(cv.sides) for cv in tables] == [2, 10, 54]
    assert [len(cv.spans) for cv in tables] == [1, 3, 9]
    for n, cv in zip((1, 2, 3), tables):
        # block k holds one position per carrier from starts[k] on, and
        # the blocks cover the positions
        assert [span >> start for span, start in zip(cv.spans, cv.starts)
                ] == [(1 << len(ys)) - 1 for _, ys in search._blocks(n, None)]
        assert sum(cv.spans) == cv.full


def clear_table_caches():
    for cached in (search._side, search._workspace, search._classes,
                   search._columns):
        cached.cache_clear()


def test_unrestricted_scan_builds_the_sides_of_class_representatives_only():
    clear_table_caches()
    assert verify_exhaustive("TC1", SearchBounds(3, 3)).certified
    # one side per representative (topology, carrier) of each side size,
    # where every labeled pair, 2 + 16 + 232 = 250, would be
    reps = sum(len(ms) for n in (1, 2, 3) for _, ms in search._classes(n)[1])
    assert search._side.cache_info().currsize == reps == 66


def test_carrier_scan_builds_the_sides_of_its_carriers_only():
    clear_table_caches()
    verify_exhaustive("TC1", SearchBounds(3, 3), carriers=(0,))
    # one side per topology on 1, 2 and 3 points, with the empty carrier
    assert search._side.cache_info().currsize == 1 + 4 + 29


def test_sampling_is_deterministic_and_noncertifying():
    a = sample_search("CONTPSI", ("surjective",), bounds=SearchBounds(3, 3),
                      sample=500, seed=7)
    b = sample_search("CONTPSI", ("surjective",), bounds=SearchBounds(3, 3),
                      sample=500, seed=7)
    assert a.sampled and not a.certified
    assert a.same_result(b)
    assert a.stats == b.stats


@pytest.mark.parametrize("bad", [{"mode": "verfy"}, {"sample": 0},
                                 {"sample": -5}])
def test_sampling_refuses_a_bad_mode_or_sample_size(bad):
    with pytest.raises(BadSearchOption):
        sample_search("TC1", **{"sample": 50, "seed": 1, **bad})


@pytest.mark.parametrize("bad", [{"sample": True}, {"sample": 2.5},
                                 {"sample": "3"}, {"seed": None},
                                 {"seed": 1.5}, {"seed": "x"},
                                 {"seed": True}])
def test_sampling_refuses_a_sample_or_seed_that_is_not_an_integer(
        monkeypatch, bad):
    # True ran one sample, 2.5 and "3" raised a bare TypeError, and the
    # seeds were taken, None sampling unreproducibly
    def no_draw(*args):
        raise AssertionError("sampled before the options were checked")

    monkeypatch.setattr(search, "_workspace", no_draw)
    with pytest.raises(BadSearchOption):
        sample_search("TC1", **{"sample": 50, "seed": 1, **bad})


@pytest.mark.parametrize("dropped", ["continuous", ""])
def test_a_string_of_dropped_hypotheses_is_refused(monkeypatch, dropped):
    # "continuous" was read as its letters and refused as unknown names
    def no_scan(*args):
        raise AssertionError("scanned before the names were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    monkeypatch.setattr(search, "_workspace", no_scan)
    with pytest.raises(BadSearchOption):
        find_counterexample("TC1", dropped, SearchBounds(2, 2))
    with pytest.raises(BadSearchOption):
        sample_search("TC1", dropped, sample=5, seed=0)


def test_sampling_reports_its_gate_funnel():
    r = sample_search("TC1", bounds=SearchBounds(3, 3), sample=300, seed=0,
                      mode="verify")
    assert r.counterexample is None
    st = r.stats
    assert st["instances_scanned"] == 300
    assert 0 < st["level2_passed"] < st["level1_passed"] < 300


def test_sampling_at_four_points_classifies_once_per_draw(monkeypatch):
    # the scalar hypotheses read the side and map tables, so no draw
    # classifies its map, where each draw classified its own
    calls = []
    classify = search.thm.classify

    def counted(*args):
        calls.append(args)
        if len(calls) > 200:
            raise AssertionError("more classifications than draws")
        return classify(*args)

    monkeypatch.setattr(search.thm, "classify", counted)
    r = sample_search("TC1", bounds=SearchBounds(4, 4), sample=200, seed=7)
    assert r.sampled and r.instances_checked == 200
    assert calls == []


def test_counterexample_is_canonically_least():
    # rerunning must reproduce the identical witness instance
    r1 = find_counterexample("CONTPSI", ("injective",), SearchBounds(2, 2))
    r2 = find_counterexample("CONTPSI", ("injective",), SearchBounds(2, 2))
    assert r1.counterexample is not None
    assert r1.counterexample.instance == r2.counterexample.instance


def test_every_registered_theorem_certifies_at_two_points():
    for tid in THEOREMS:
        assert verify_exhaustive(tid, SearchBounds(2, 2)).certified, tid


# -- certification over relabeling representatives ----------------------------

@pytest.mark.parametrize("n,classes,pairs",
                         [(1, 1, 2), (2, 3, 10), (3, 9, 54), (4, 33, 359)])
def test_orbit_representatives_are_the_orbit_minima(n, classes, pairs):
    tops = list(enumerate_topologies(n))
    reps = _orbit_reps(tops)
    assert len(reps) == classes
    assert sum(len(carriers) for _, carriers in reps) == pairs
    # by brute force: the (index, carrier) pairs least in their orbit under
    # the permutations of the points
    index = {t.min_nbhd: i for i, t in enumerate(tops)}

    def moved(mask, p):
        return sum(1 << p[x] for x in range(n) if (mask >> x) & 1)

    least = set()
    for ix, t in enumerate(tops):
        for m in range(1 << n):
            orbit = set()
            for p in permutations(range(n)):
                table = [0] * n
                for x, nb in enumerate(t.min_nbhd):
                    table[p[x]] = moved(nb, p)
                orbit.add((index[tuple(table)], moved(m, p)))
            if min(orbit) == (ix, m):
                least.add((ix, m))
    assert {(ix, m) for ix, carriers in reps for m in carriers} == least


def all_carriers(bounds):
    """Every carrier within the bounds; naming them forces the labeled
    scan."""
    return tuple(range(1 << max(bounds.max_n_dom, bounds.max_n_cod)))


def reduced_and_labeled(tid, dropped, mode, bounds, progress=None):
    """(nominal instances, least key) of the reduced and of the labeled scan,
    with the reduced scan's progress."""
    return [_search(Statement(tid, dropped, mode), bounds, 1,
                    progress if carriers is None else None, carriers)[:2]
            for carriers in (None, all_carriers(bounds))]


@pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
def test_reduced_scan_finds_the_labeled_least_key_for_every_drop(tid):
    for h in THEOREMS[tid].hypothesis_names:
        for mode in ("find", "verify"):
            reduced, labeled = reduced_and_labeled(tid, {h}, mode,
                                                   SearchBounds(2, 2))
            assert reduced == labeled, (tid, h, mode)


# both drops have candidate blocks in size pairs with three points on a side,
# where one representative block stands for up to 36 labeled ones; OPENBIJ's
# least witness is there too, at (3,2)
@pytest.mark.parametrize("tid,dropped", [("CONTPSI", "continuous"),
                                         ("OPENBIJ", "injective")])
def test_reduced_scan_finds_the_labeled_least_key_at_three_points(tid,
                                                                  dropped):
    lines = []
    reduced, labeled = reduced_and_labeled(tid, {dropped}, "find",
                                           SearchBounds(3, 3),
                                           lambda *line: lines.append(line))
    ces = [0] + [line[2] for line in lines]
    assert sum(ces[i + 1] - ces[i] for i, (row, _, _) in enumerate(lines)
               if "3" in row.split()[0]) > 0
    assert reduced == labeled


@pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
def test_reduced_certification_matches_the_labeled_scan(tid):
    reduced = verify_exhaustive(tid, SearchBounds(2, 3))
    labeled = verify_exhaustive(tid, SearchBounds(2, 3),
                                carriers=all_carriers(SearchBounds(2, 3)))
    assert reduced.certified and reduced.counterexample is None
    assert labeled.counterexample is None
    assert reduced.instances_checked == labeled.instances_checked
    assert labeled.stats["instances_scanned"] == labeled.instances_checked


def test_search_stats_count_the_instances_walked():
    r = verify_exhaustive("JHCOMP", SearchBounds(3, 3))
    assert r.certified and r.instances_checked == 1_519_332
    # representative pairs per size: 2, 10, 54; maps n_cod ** n_dom; of
    # these, 1,360 pass the level-1 gate (bijections into Hausdorff
    # codomains) and 94 both gates
    assert r.stats == {"instances_scanned": 88_808, "level1_passed": 1_360,
                       "level2_passed": 94}
    assert r.to_json()["stats"] == r.stats
    found = find_counterexample("CONTPSI", ("surjective",), SearchBounds(2, 2))
    assert found.counterexample is not None
    # (1,1): 2*2*1, (1,2): 2*10*2, (2,1): 10*2*1, (2,2): 10*10*4, and no
    # labeled block walked on top
    assert found.stats == {"instances_scanned": 464, "level1_passed": 162,
                           "level2_passed": 103}
    assert found.same_result(dataclasses.replace(found, stats={}))


# Single drops at (3,3) that find no counterexample, and HR34's two bijection
# drops, which do; each walks only the 88,808 representative instances.  The
# gate funnel counts those that pass the level-1 gate and both gates; the
# compatibility drops leave it as it is, since compatibility always holds.
DROP_FUNNEL = {
    ("HR34", "codomain_compatible"): (17_700, 3_449),
    ("HR35", "domain_compatible"): (17_700, 3_449),
    ("HR35", "injective"): (21_068, 4_598),
    ("HR35", "surjective"): (21_304, 4_153),
    ("JHCOMP", "ideal_compact"): (1_360, 94),
    ("JHCOMP", "image_ideal_equal"): (1_360, 544),
    ("CLOSEDSUR", "injective"): (25_542, 13_255),
    ("HR34", "injective"): (21_068, 4_551),
    ("HR34", "surjective"): (21_304, 4_953),
}


@pytest.mark.parametrize("tid,dropped,found", [
    ("HR34", "codomain_compatible", False),
    ("HR35", "domain_compatible", False),
    ("HR35", "injective", False),
    ("HR35", "surjective", False),
    ("JHCOMP", "ideal_compact", False),
    ("JHCOMP", "image_ideal_equal", False),
    ("CLOSEDSUR", "injective", False),
    ("HR34", "injective", True),
    ("HR34", "surjective", True),
])
def test_single_drops_at_three_points(tid, dropped, found):
    r = find_counterexample(tid, (dropped,), SearchBounds(3, 3))
    assert (r.counterexample is not None) == found
    assert r.certified == (not found)
    level1, level2 = DROP_FUNNEL[tid, dropped]
    assert r.stats == {"instances_scanned": 88_808, "level1_passed": level1,
                       "level2_passed": level2}


# -- the carrier-vector kernel against the per-instance scan -------------------

def scans(tid):
    """The theorem's verification and its single drops in find mode, as
    statements."""
    return [Statement(tid)] + [
        Statement(tid, (h,), "find") for h in THEOREMS[tid].hypothesis_names]


def rows(ws, carriers):
    """(ix, mx_range) for every scan row of a workspace: the
    representative ones, or with ``carriers`` every labeled one."""
    if carriers is None:
        return ws.orbits_x
    every = search._carrier_range(ws.tops_x[0].n, carriers)
    return [(ix, every) for ix in range(len(ws.tops_x))]


@pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
@pytest.mark.parametrize("bounds,labeled", [(SearchBounds(3, 3), False),
                                            (SearchBounds(2, 2), True)])
def test_kernel_finds_the_per_instance_least_key_in_every_block(
        tid, bounds, labeled):
    # each row's hits are the least key of every block of the row, in
    # block order, on every representative row up to (3,3) and every
    # labeled row with all carriers up to (2,2)
    carriers = all_carriers(bounds) if labeled else None
    for stmt in scans(tid):
        for pair in bounds.size_pairs():
            ws = search._workspace(*pair)
            for ix, xs in rows(ws, carriers):
                hits = search._run_row((stmt, *pair, carriers, (ix, xs)))[0]
                expected = []
                for iy, ys in search._blocks(pair[1], carriers):
                    best = oracles.scan_block_by_instance(
                        stmt, ws, ix, iy, xs, ys)
                    if best is not None:
                        expected.append((iy, *best))
                assert hits == expected, (stmt, pair, ix)


def contexts_of_rows(bounds, carriers):
    """Every (kernel context, columns, scalar context of each column) of
    the rows within ``bounds``, one per (map, domain carrier)."""
    for pair in bounds.size_pairs():
        ws = search._workspace(*pair)
        cv = search._columns(pair[1], carriers)
        for ix, xs in rows(ws, carriers):
            for fi in range(len(ws.maps)):
                for mx in xs:
                    sx = search._side(pair[0], ix, mx)
                    ctx = search.thm._Ctx(sx, None, ws.imgs[fi], ws.pres[fi])
                    yield ctx, cv, [
                        search.thm._Ctx(sx, sy, ws.imgs[fi], ws.pres[fi])
                        for sy in cv.sides]


# the continuity, openness and homeomorphism declarations of the registry,
# whose mask forms read the codomain topology
TOPOLOGY_MASKS = sorted(
    {t for spec in THEOREMS.values()
     for t in [h.test for h in spec.hyps] + [c.fail for c in spec.concls]
     if isinstance(t, (search.thm.Continuous, search.thm.Open,
                       search.thm.Homeomorphism))}, key=repr)


@pytest.mark.parametrize("bounds,labeled", [(SearchBounds(3, 3), False),
                                            (SearchBounds(2, 2), True)])
def test_topology_mask_forms_match_their_scalar_predicates(bounds, labeled):
    carriers = all_carriers(bounds) if labeled else None
    checked = 0
    for ctx, cv, scalars in contexts_of_rows(bounds, carriers):
        for decl in TOPOLOGY_MASKS:
            assert decl.bind(cv)(ctx) == sum(
                1 << pos for pos, one in enumerate(scalars)
                if decl.holds(one)), decl
        checked += len(scalars)
    # every representative instance up to (3,3), and every labeled one up
    # to (2,2)
    assert checked == (88_808 if not labeled else 1_124)


# each level-1 hypothesis of the registry, in its two forms
LEVEL1_MASKS = sorted({h.test for spec in THEOREMS.values() for h in spec.hyps
                       if h.level == 1}, key=repr)


@pytest.mark.parametrize("bounds,labeled", [(SearchBounds(3, 3), False),
                                            (SearchBounds(2, 2), True)])
def test_level1_mask_forms_match_their_scalar_predicates(bounds, labeled):
    carriers = all_carriers(bounds) if labeled else None
    checked = 0
    for ctx, cv, scalars in contexts_of_rows(bounds, carriers):
        for test in LEVEL1_MASKS:
            assert test.bind(cv)(ctx) == sum(
                1 << pos for pos, one in enumerate(scalars)
                if test.holds(one)), test
        checked += len(scalars)
    # every representative instance up to (3,3), and every labeled one up
    # to (2,2)
    assert checked == (88_808 if not labeled else 1_124)


def test_certification_evaluates_no_instance_one_at_a_time(monkeypatch):
    levels, transports = [], []
    gate = search.thm.hypotheses_pass
    monkeypatch.setattr(search.thm, "hypotheses_pass",
                        lambda spec, ctx, dropped, level: (
                            levels.append(level)
                            or gate(spec, ctx, dropped, level)))
    call = search.thm.Transport.__call__
    monkeypatch.setattr(search.thm.Transport, "__call__",
                        lambda self, ctx: transports.append(self)
                        or call(self, ctx))
    r = verify_exhaustive("TC1", SearchBounds(3, 3))
    assert r.certified
    # no scalar gate at any level, where one level-1 gate per distinct map
    # profile of each representative block made 663, and no per-instance
    # declaration
    assert levels == []
    assert transports == []


def test_certification_binds_each_declaration_once_per_theorem_and_size(
        monkeypatch):
    # a scan binds its mask forms to the column tables once per (theorem,
    # codomain size) and keeps them there, not once per row or per
    # (map, domain carrier): 13 rows per codomain size at (3,3)
    binds = collections.Counter()
    for cls in (search.thm.Continuous, search.thm.Open,
                search.thm.Homeomorphism, search.thm.Transport,
                search.thm.Gate):
        monkeypatch.setattr(cls, "bind", lambda self, cv, bind=cls.bind: (
            binds.update([(self, cv.n)]) or bind(self, cv)))
    search._columns.cache_clear()
    for tid in ALL_THEOREM_IDS:
        assert verify_exhaustive(tid, SearchBounds(3, 3)).certified
    search._columns.cache_clear()
    per_size = collections.Counter()
    for (decl, n), count in binds.items():
        per_size[n] += count
        # a declaration is bound once per theorem whose scan reads it
        assert count <= len(ALL_THEOREM_IDS), decl
    # per theorem, its level-1 and level-2 hypotheses and the conclusions
    # a verification reads (65), plus the continuity and openness that
    # four homeomorphisms bind (8)
    assert per_size == {1: 73, 2: 73, 3: 73}


def violations_with_every_equivalence(spec, forms, ctx, live):
    """The positions of ``live`` where a reported conclusion fails, each
    equivalence decided from its members, skipped or not by the plan."""
    fails, out = {}, 0
    for c in spec.concls:
        if c.members:
            every = some = fails[c.members[0]]
            for m in c.members[1:]:
                some |= fails[m]
                every &= fails[m]
            bad = some & ~every
        else:
            bad = fails[c.name] = live & ~forms[c.name](ctx)
        if c.report:
            out |= bad
    return out


@pytest.mark.parametrize("tid", ALL_THEOREM_IDS)
def test_verification_skips_only_equivalences_it_cannot_miss(tid):
    # skipping an equivalence whose members are all reported leaves the
    # violation mask as it is, on every (map, domain carrier) of every
    # representative row up to (3,3), with every column live
    spec = THEOREMS[tid]
    for ctx, cv, _ in contexts_of_rows(SearchBounds(3, 3), None):
        violated = Statement(tid).plan(cv)[2]
        forms = {c.name: c.fail.bind(cv) for c in spec.concls
                 if not c.members}
        assert violated(ctx, cv.full) == violations_with_every_equivalence(
            spec, forms, ctx, cv.full)


def test_statements_decide_as_the_check_verdict_does():
    # verify mode where a reported conclusion of the verdict fails, find
    # mode where the designated one does, on every labeled instance up to
    # (2,2)
    stmts = [(THEOREMS[tid], Statement(tid), Statement(tid, (), "find"))
             for tid in ALL_THEOREM_IDS]
    checked = 0
    for _, _, scalars in contexts_of_rows(SearchBounds(2, 2),
                                          all_carriers(SearchBounds(2, 2))):
        for one in scalars:
            for spec, verify, find in stmts:
                verdict = search.thm.check_with_ctx(spec, one)
                assert verify.violated(one) is not verdict.all_conclusions
                assert find.violated(one) is not verdict.conclusion(
                    spec.designated)
        checked += len(scalars)
    assert checked == 1_124


# each codomain psi transport with the star transport of the reversed
# relation: psi(B) = Y - (Y - B)* and f^-1 commutes with complements, so
# psi_X(f^-1 B) <= f^-1[psi_Y(B)] iff (f^-1 C)* >= f^-1[C*] for C = Y - B
PSI_STAR_DUALS = [(search.thm.Transport("psi", "codomain", rel),
                   search.thm.Transport("star", "codomain", rev))
                  for rel, rev in (("<=", ">="), (">=", "<="), ("==", "=="))]


def test_codomain_psi_transports_are_the_reversed_star_transports():
    # per instance on every labeled instance up to (2,2), and as masks on
    # every (map, domain carrier) of every representative row up to (3,3)
    bounds = SearchBounds(2, 2)
    checked = 0
    for _, _, scalars in contexts_of_rows(bounds, all_carriers(bounds)):
        for one in scalars:
            for psi_t, star_t in PSI_STAR_DUALS:
                assert psi_t.holds(one) == star_t.holds(one), (psi_t, one)
        checked += len(scalars)
    assert checked == 1_124
    forms = {}
    for ctx, cv, _ in contexts_of_rows(SearchBounds(3, 3), None):
        if cv.n not in forms:
            forms[cv.n] = [(p.bind(cv), s.bind(cv)) for p, s in PSI_STAR_DUALS]
        for psi_mask, star_mask in forms[cv.n]:
            assert psi_mask(ctx) == star_mask(ctx)


def test_verify_sampling_never_evaluates_an_unreported_conclusion(
        monkeypatch):
    # CLOSEDSUR's `b` is informational, and follows `a`, the last
    # conclusion a verification decides
    calls = collections.Counter()
    for name in ("__call__", "holds"):
        def counted(self, ctx, name=name,
                    fn=getattr(search.thm.Transport, name)):
            calls[self, name] += 1
            return fn(self, ctx)
        monkeypatch.setattr(search.thm.Transport, name, counted)
    r = sample_search("CLOSEDSUR", bounds=SearchBounds(4, 4), sample=3000,
                      seed=7, mode="verify")
    a, b = (c.fail for c in THEOREMS["CLOSEDSUR"].concls)
    assert r.counterexample is None and r.stats["level2_passed"] > 0
    assert calls[a, "__call__"] > 0
    assert calls[b, "__call__"] == calls[b, "holds"] == 0


def test_certification_enumerates_no_open_set_and_no_carrier_one_by_one(
        monkeypatch):
    # from empty caches; a scalar checker could only decide another
    # codomain carrier of a block by switching the context's codomain side
    clear_table_caches()
    enumerated = []
    opens = Topology.opens
    monkeypatch.setattr(Topology, "opens",
                        lambda top: enumerated.append(top) or opens(top))
    contexts, codomains = [], []

    class Ctx(search.thm._Ctx):
        __slots__ = ()

        def __init__(self, *args):
            contexts.append(self)
            super().__init__(*args)

        def __setattr__(self, name, value):
            if name == "sy":
                codomains.append(value)
            super().__setattr__(name, value)

    monkeypatch.setattr(search.thm, "_Ctx", Ctx)
    for tid in ALL_THEOREM_IDS:
        assert verify_exhaustive(tid, SearchBounds(3, 3)).certified, tid
    assert enumerated == []
    assert len(codomains) == len(contexts) > 0


def test_gate_funnel_is_the_same_for_any_worker_count():
    a = find_counterexample("HR34", ("injective",), SearchBounds(3, 3),
                            workers=1)
    b = find_counterexample("HR34", ("injective",), SearchBounds(3, 3),
                            workers=2)
    assert a.stats == b.stats
    assert a.same_result(b)
    assert a.same_result(dataclasses.replace(a, stats={}))


@pytest.mark.parametrize("carriers", [(), (100,), (3, 100), (0, 4)])
def test_carriers_must_fit_the_bounds(monkeypatch, carriers):
    def no_scan(*args):
        raise AssertionError("scanned before the carriers were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    with pytest.raises(BadMask):
        verify_exhaustive("TC1", SearchBounds(2, 2), carriers=carriers)
    with pytest.raises(BadMask):
        find_counterexample("CONTPSI", ("surjective",), SearchBounds(1, 2),
                            carriers=carriers)


def test_carrier_within_the_larger_bound_is_accepted():
    # 4 = {2} fits the three codomain points, not the one domain point
    r = verify_exhaustive("TC1", SearchBounds(1, 3), carriers=(0, 4))
    assert r.ideal_carriers == (0, 4) and r.instances_checked > 0


@pytest.mark.parametrize("workers", [-3, 0, 2.5, True, "2"])
def test_workers_must_be_none_or_a_positive_integer(monkeypatch, workers):
    def no_scan(*args):
        raise AssertionError("scanned before the workers were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    with pytest.raises(BadSearchOption):
        verify_exhaustive("TC1", SearchBounds(2, 2), workers=workers)
    with pytest.raises(BadSearchOption):
        find_counterexample("CONTPSI", ("surjective",), SearchBounds(2, 2),
                            workers=workers)


@pytest.mark.parametrize("bounds", [(2, 2), 3, None])
def test_bounds_must_be_search_bounds(monkeypatch, bounds):
    # a tuple raised a bare AttributeError ('size_pairs')
    def no_scan(*args):
        raise AssertionError("scanned before the bounds were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    monkeypatch.setattr(search, "_workspace", no_scan)
    with pytest.raises(BadSearchOption):
        verify_exhaustive("TC1", bounds)
    with pytest.raises(BadSearchOption):
        find_counterexample("TC1", (), bounds)
    with pytest.raises(BadSearchOption):
        sample_search("TC1", bounds=bounds, sample=5, seed=0)


@pytest.mark.parametrize("carriers", [5, 0, 2.5])
def test_carriers_must_be_a_sequence(monkeypatch, carriers):
    # 5 raised a bare TypeError, and 0 read as an empty sequence
    def no_scan(*args):
        raise AssertionError("scanned before the carriers were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    with pytest.raises(BadMask, match="must name some mask"):
        verify_exhaustive("TC1", SearchBounds(2, 2), carriers=carriers)
    with pytest.raises(BadMask, match="must name some mask"):
        find_counterexample("TC1", (), SearchBounds(2, 2), carriers=carriers)


def test_carriers_from_a_generator_are_all_scanned():
    assert (verify_exhaustive("TC1", SearchBounds(2, 2),
                              carriers=(c for c in (0, 3))).ideal_carriers
            == (0, 3))


def test_statements_are_canonical_and_reports_keep_the_callers_order():
    one = Statement("tc1", ["continuous", "continuous"], "find")
    assert one == Statement("TC1", ("continuous",), "find")
    assert hash(one) == hash(Statement("TC1", ("continuous",), "find"))
    names = ("surjective", "injective", "surjective")
    assert Statement("CONTPSI", names) == Statement(
        "CONTPSI", ("injective", "surjective"))
    found = find_counterexample("contpsi", iter(names), SearchBounds(2, 2))
    drawn = sample_search("contpsi", names, bounds=SearchBounds(2, 2),
                          sample=5, seed=0)
    for r in (found, drawn):
        assert r.theorem_id == "CONTPSI"
        assert r.dropped_hypotheses == ("surjective", "injective")


def test_a_set_of_dropped_names_is_reported_sorted_in_every_run():
    # a set iterates in the order of its names' hashes, which
    # PYTHONHASHSEED varies: the report read ('preimage_ok', 'continuous')
    # under 1-4 and 6, and the reverse under 5
    code = ("from idealtop import SearchBounds, find_counterexample; "
            "print(find_counterexample('TC1', {'continuous', 'preimage_ok'}, "
            "SearchBounds(2, 2)).dropped_hypotheses)")
    for seed in range(7):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": str(seed),
                             "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "('continuous', 'preimage_ok')", seed


@pytest.mark.parametrize("dropped", [None, 3, ["continuous", 3], [None]])
def test_dropped_hypotheses_must_be_names(monkeypatch, dropped):
    # None and 3 raised a bare TypeError, and a name beside a number one
    # from sorting the unknown names
    def no_scan(*args):
        raise AssertionError("scanned before the names were checked")

    monkeypatch.setattr(search, "_search", no_scan)
    monkeypatch.setattr(search, "_workspace", no_scan)
    with pytest.raises(BadSearchOption):
        find_counterexample("TC1", dropped, SearchBounds(2, 2))
    with pytest.raises(BadSearchOption):
        sample_search("TC1", dropped, sample=5, seed=0)


def search_by_instance(stmt, bounds, carriers):
    """The least labeled key (size pair index, ix, mx, iy, my, fi) of a
    carrier-restricted scan, block by block through the per-instance
    oracle, with the instances walked."""
    keys, walked = [], 0
    for size_idx, pair in enumerate(bounds.size_pairs()):
        ws = search._workspace(*pair)
        xs, ys = (search._carrier_range(n, carriers) for n in pair)
        walked += (len(ws.tops_x) * len(xs) * len(ws.tops_y) * len(ys)
                   * len(ws.maps))
        for ix in range(len(ws.tops_x)):
            for iy in range(len(ws.tops_y)):
                best = oracles.scan_block_by_instance(
                    stmt, ws, ix, iy, xs, ys)
                if best is not None:
                    mx, my, fi = best
                    keys.append((size_idx, ix, mx, iy, my, fi))
    return min(keys, default=None), walked


@pytest.mark.parametrize("carriers", [(4,), (0, 4)])
@pytest.mark.parametrize("tid,dropped", [("TC1", ()),
                                         ("CONTPSI", ("surjective",)),
                                         ("HR34", ("injective",))])
def test_rows_without_columns_keep_the_per_instance_result(carriers, tid,
                                                           dropped):
    # 4 = {2} fits no carrier on one or two points, so with (4,) the rows
    # of those sizes have no columns, and no domain carrier either
    bounds = SearchBounds(3, 3)
    stmt = Statement(tid, dropped, "find" if dropped else "verify")
    lines = []
    report = search._exhaustive(stmt, bounds, 1,
                                lambda *line: lines.append(line), carriers)
    key, walked = search_by_instance(stmt, bounds, carriers)
    assert report.stats["instances_scanned"] == walked
    assert lines[-1][1] == walked
    if key is None:
        assert report.counterexample is None
    else:
        ws = search._workspace(*bounds.size_pairs()[key[0]])
        assert (report.counterexample.instance
                == search._instance_from_key(ws, *key[1:]))
