"""Command-line front door.

Subcommands: star | check | search | demo | enumerate.  Exit codes: 0 for
ok/certified/prediction-confirmed, 1 for counterexample found / violation /
failed prediction, 2 for input or usage errors.  Search progress lines go to
standard error; reports are identical for any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import search as search_mod
from . import theorems as thm
from .errors import IdealTopError
from .ideal import Ideal, ideal_to_json
from .jsonio import parse_instance, parse_space
from .maps import FiniteMap, map_to_json
from .space import (MAX_POINTS, Topology, format_mask, full_mask, mask_of,
                    sierpinski, topology_to_json)
from .star import (IdealSpace, is_compatible, local_function, psi,
                   psi_topology, star_closure, star_topology)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IdealTopError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IdealTopError(f"{path}: invalid JSON: {exc}") from exc


def _parse_subset(text: str, n: int) -> int:
    """Point list syntax: '0,2', '{0,2}', '{}' or '-' for the empty set."""
    text = text.strip().removeprefix("{").removesuffix("}").strip()
    if text in ("", "-"):
        return 0
    try:
        points = [int(p) for p in text.split(",")]
    except ValueError:
        raise IdealTopError(f"cannot parse subset {text!r}; expected e.g. 0,2")
    return mask_of(points, n)


def _emit_json(doc: dict, path: Optional[str]) -> None:
    if path is None:
        return
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# star: operators on one ideal space
# ---------------------------------------------------------------------------

STAR_OPS = ("local", "clstar", "psi", "tau_star", "psi_tau", "compat")


def cmd_star(args) -> int:
    doc = _load_json(args.space_file)
    space = parse_space(doc, args.space_file)
    # labels are semantically inert but ride along into topology outputs
    labels = doc.get("topology", {}).get("labels") if isinstance(doc, dict) else None

    def emit_topology(top) -> None:
        out = topology_to_json(top)
        if labels is not None:
            out["labels"] = labels
        print(json.dumps(out))

    op = args.operator
    if op in ("local", "clstar", "psi"):
        if args.subset is None:
            raise IdealTopError(f"operator {op!r} needs a subset argument")
        a = _parse_subset(args.subset, space.n)
        fn = {"local": local_function, "clstar": star_closure, "psi": psi}[op]
        print(format_mask(fn(space, a)))
    elif op == "tau_star":
        emit_topology(star_topology(space))
    elif op == "psi_tau":
        emit_topology(psi_topology(space))
    elif op == "compat":
        print("true" if is_compatible(space) else "false")
    return 0


# ---------------------------------------------------------------------------
# check: run theorem checkers on an instance file
# ---------------------------------------------------------------------------

def _format_flags(flags) -> str:
    return " ".join(f"{name}={'true' if val else 'false'}"
                    for name, val in flags)


def _print_verdict(v: thm.Verdict) -> None:
    print(f"{v.theorem_id}:")
    print(f"  hypotheses:  {_format_flags(v.hypotheses)}")
    print(f"  conclusions: {_format_flags(v.conclusions)}")
    if v.info:
        print(f"  info:        {_format_flags(v.info)}")
    print(f"  vacuous:     {'true' if v.vacuous else 'false'}")
    if v.witness is None:
        print("  witness:     -")
    else:
        w = v.witness.to_json()
        what = (f"subset {format_mask(v.witness.mask)}"
                if v.witness.kind == "subset" else f"point {v.witness.point}")
        print(f"  witness:     {what} ({v.witness.side} side, "
              f"conclusion {w['conclusion']})")


def cmd_check(args) -> int:
    inst = parse_instance(_load_json(args.instance_file), args.instance_file)
    ids = list(thm.ALL_THEOREM_IDS) if args.theorems == ["all"] else args.theorems
    verdicts = [thm.check(tid, inst) for tid in ids]
    for v in verdicts:
        _print_verdict(v)
    _emit_json({"verdicts": [v.to_json() for v in verdicts]}, args.json)
    # exit 1 when any verdict exhibits a failed conclusion (witness present),
    # vacuous or not; the checkers themselves are sound, so demanding true
    # hypotheses here would make the failure exit unreachable
    return 1 if any(v.witness is not None for v in verdicts) else 0


# ---------------------------------------------------------------------------
# search: certify or mine counterexamples
# ---------------------------------------------------------------------------

def _progress_printer(row_id: str, scanned: int, ces: int) -> None:
    print(f"row {row_id}: {scanned} instances scanned, "
          f"counterexamples so far: {ces}", file=sys.stderr)


def cmd_search(args) -> int:
    bounds = search_mod.SearchBounds(args.max_n, args.max_n)
    if args.workers < 0:
        raise IdealTopError(f"--workers must be at least 0, got {args.workers}")
    workers = args.workers if args.workers else search_mod.default_workers()
    carriers = None
    if args.carrier:
        carriers = tuple(_parse_subset(c, args.max_n) for c in args.carrier)
    progress = None if args.quiet else _progress_printer
    if args.seed is not None and args.sample is None:
        raise IdealTopError("--seed requires --sample")
    if args.sample is not None:
        if args.seed is None:
            raise IdealTopError("--sample requires an explicit --seed")
        if carriers is not None:
            raise IdealTopError("--carrier cannot be combined with --sample")
        report = search_mod.sample_search(
            args.theorem, args.drop, bounds=bounds,
            sample=args.sample, seed=args.seed,
            mode="find" if args.drop else "verify")
    elif args.drop:
        report = search_mod.find_counterexample(
            args.theorem, tuple(args.drop), bounds,
            workers=workers, progress=progress, carriers=carriers)
    else:
        report = search_mod.verify_exhaustive(
            args.theorem, bounds,
            workers=workers, progress=progress, carriers=carriers)
    _print_report(report)
    _emit_json(report.to_json(), args.json)
    return 0 if report.counterexample is None else 1


def _print_report(r: search_mod.SearchReport) -> None:
    dropped = ", ".join(r.dropped_hypotheses) or "-"
    mode = ("sampled (not a certification)" if r.sampled
            else "exhaustive" if r.exhaustive
            else "ideal-restricted (not a certification)")
    print(f"theorem:           {r.theorem_id}")
    print(f"dropped:           {dropped}")
    print(f"bounds:            n_dom<={r.bounds.max_n_dom} n_cod<={r.bounds.max_n_cod}")
    print(f"mode:              {mode}")
    print(f"instances checked: {r.instances_checked}")
    print(f"certified:         {'yes' if r.certified else 'no'}")
    print(f"elapsed:           {r.elapsed_seconds:.2f}s")
    if r.counterexample is None:
        print("counterexample:    none")
    else:
        print("counterexample:")
        inst = r.counterexample.instance
        print(f"  domain:   {inst.X!r}")
        print(f"  codomain: {inst.Y!r}")
        print(f"  map:      {list(inst.f.values)}")
        _print_verdict(r.counterexample.verdict)


# ---------------------------------------------------------------------------
# demo: replay the constructed counterexamples on built-in seeds
# ---------------------------------------------------------------------------

DEMOS = ("add-open-point", "add-generic-point", "collapse-cont",
         "collapse-open", "pstar-trivial")


def _sierpinski_seed(carrier_points=(1,)) -> IdealSpace:
    top = sierpinski()
    return IdealSpace(top, Ideal(2, mask_of(carrier_points, 2)))


def _closed_twin_collapse_instance(seed: IdealSpace, x0: int) -> thm.Instance:
    """Collapse a fresh twin onto ``x0``: the twin's minimal neighborhood is
    that of ``x0`` plus itself and no other neighborhood gains it, so the
    collapse is open; both carriers drop ``x0``, so images stay small."""
    n = seed.n
    twin_nbhd = seed.top.min_nbhd[x0] | (1 << n)
    top = Topology(n + 1, tuple(seed.top.min_nbhd) + (twin_nbhd,))
    carrier = seed.ideal.carrier & ~(1 << x0)
    f = FiniteMap(n + 1, n, tuple(range(n)) + (x0,))
    return thm.Instance(IdealSpace(top, Ideal(n + 1, carrier)),
                        IdealSpace(seed.top, Ideal(n, carrier)), f)


def _print_instance(inst: thm.Instance) -> None:
    print(f"  domain space:   {inst.X!r}")
    print(f"  codomain space: {inst.Y!r}")
    print(f"  map values:     {list(inst.f.values)}")


def _demo_add_open_point() -> bool:
    seed = _sierpinski_seed()
    inst = thm.add_open_point_instance(seed)
    z = inst.Y.n - 1
    print("Extend the codomain by a point that joins every nonempty open set")
    print("and is itself small.  The identity embedding keeps continuity,")
    print("injectivity and small preimages, but stops being surjective.")
    _print_instance(inst)
    ext_space = inst.Y
    structural = all(
        not (local_function(ext_space, a) >> z) & 1
        for a in range(full_mask(ext_space.n) + 1))
    print(f"  new point never occurs in a local function: {structural}")
    v = thm.check("CONTPSI", inst)
    _print_verdict(v)
    expect = (structural and not v.hypothesis("surjective")
              and v.hypothesis("continuous") and v.hypothesis("injective")
              and v.hypothesis("preimage_ok") and not v.conclusion("a"))
    print("prediction (psi-image containment 'a' fails): "
          + ("CONFIRMED" if expect else "NOT CONFIRMED"))
    return expect


def _demo_add_generic_point() -> bool:
    seed = _sierpinski_seed()
    inst = thm.add_generic_point_instance(seed)
    z = inst.Y.n - 1
    print("Extend the codomain by a point whose only neighborhood is the")
    print("whole space, leaving the ideal unchanged.  The identity embedding")
    print("stays open and injective with small images, but not surjective.")
    _print_instance(inst)
    ext_space = inst.Y
    structural = all(
        (local_function(ext_space, a) >> z) & 1
        for a in range(full_mask(ext_space.n) + 1)
        if not ext_space.ideal.contains(a))
    print(f"  new point sits in the local function of every non-small set: {structural}")
    v = thm.check("OPENBIJ", inst)
    _print_verdict(v)
    expect = (structural and not v.hypothesis("surjective")
              and v.hypothesis("open_map") and v.hypothesis("injective")
              and v.hypothesis("image_ok") and not v.conclusion("a"))
    print("prediction (image local-function containment 'a' fails): "
          + ("CONFIRMED" if expect else "NOT CONFIRMED"))
    return expect


def _demo_collapse_cont() -> bool:
    seed = _sierpinski_seed(carrier_points=(1,))
    inst = thm.collapse_point_instance(seed, 1, thm.VARIANT_CONT)
    print("Add a twin of a small point; neighborhoods of the twin and the")
    print("original both gain the twin, so collapsing them stays continuous")
    print("and surjective with small preimages, but is no longer injective.")
    _print_instance(inst)
    x_full = full_mask(inst.X.n)
    orig = mask_of(range(seed.n), inst.X.n)
    lhs = psi(inst.Y, inst.f.image(orig))
    rhs = inst.f.image(psi(inst.X, orig))
    point_check = (lhs >> 1) & 1 and not (rhs >> 1) & 1
    print(f"  collapsed point separates the psi transports at the old ground set: "
          f"{bool(point_check)}")
    v = thm.check("CONTPSI", inst)
    _print_verdict(v)
    expect = (bool(point_check) and not v.hypothesis("injective")
              and v.hypothesis("continuous") and v.hypothesis("surjective")
              and v.hypothesis("preimage_ok") and not v.conclusion("a"))
    print("prediction (psi-image containment 'a' fails): "
          + ("CONFIRMED" if expect else "NOT CONFIRMED"))
    return expect


def _demo_collapse_open() -> bool:
    seed = _sierpinski_seed(carrier_points=(0, 1))
    inst = _closed_twin_collapse_instance(seed, 1)
    print("Add a twin of a small point whose only neighborhood is the original's")
    print("plus itself, and drop the original from both ideals; the collapse")
    print("stays open and surjective with small images, but is no longer")
    print("injective.  No other neighborhood holds the twin, so it is closed,")
    print("while its image is the open point, whose closure is larger.")
    _print_instance(inst)
    twin = 1 << seed.n
    lhs = local_function(inst.Y, inst.f.image(twin))
    rhs = inst.f.image(local_function(inst.X, twin))
    print(f"  local function of the twin's image: {format_mask(lhs)}; "
          f"image of the twin's local function: {format_mask(rhs)}")
    v = thm.check("OPENBIJ", inst)
    _print_verdict(v)
    confirmed = (not v.hypothesis("injective") and v.hypothesis("open_map")
                 and v.hypothesis("surjective") and v.hypothesis("image_ok")
                 and not v.conclusion("a"))
    print("prediction (image local-function containment 'a' fails): "
          + ("CONFIRMED" if confirmed else "NOT CONFIRMED"))
    print("note: the whole-space twin (collapse variant OPEN) provably cannot")
    print("break containment 'a' on carrier ideals: any set avoiding both twins")
    print("must be small, its image is then small on the adjusted codomain")
    print("ideal, and small images have empty local functions.  The closed twin")
    print("here escapes that argument.  (`idealtop search OPENBIJ --drop")
    print("injective` finds a three-point witness as well.)")
    return confirmed


def _demo_pstar_trivial() -> bool:
    x_space = _sierpinski_seed(carrier_points=(0, 1))  # every subset small
    y_space = _sierpinski_seed(carrier_points=(1,))
    swap = FiniteMap(2, 2, (1, 0))
    inst = thm.Instance(x_space, y_space, swap)
    print("With the improper domain ideal every local function is empty, so")
    print("the local-function transport 'a' holds for free and preimages of")
    print("small sets are trivially small, yet the map is not continuous:")
    print("the transport conclusion does not imply the hypotheses back.")
    _print_instance(inst)
    v = thm.check("TC1", inst)
    _print_verdict(v)
    expect = (not v.hypothesis("continuous") and v.hypothesis("preimage_ok")
              and v.conclusion("a") and v.vacuous)
    print("prediction ('a' holds while continuity fails): "
          + ("CONFIRMED" if expect else "NOT CONFIRMED"))
    return expect


_DEMO_FNS = {
    "add-open-point": _demo_add_open_point,
    "add-generic-point": _demo_add_generic_point,
    "collapse-cont": _demo_collapse_cont,
    "collapse-open": _demo_collapse_open,
    "pstar-trivial": _demo_pstar_trivial,
}


def cmd_demo(args) -> int:
    ok = _DEMO_FNS[args.name]()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    n = args.n
    if args.what == "topologies":
        items = search_mod.enumerate_topologies(n)
        render = lambda t: json.dumps(topology_to_json(t))
    elif args.what == "ideals":
        if n > MAX_POINTS:
            raise IdealTopError(
                f"ideal enumeration needs n <= {MAX_POINTS}, got {n}")
        items = search_mod.enumerate_ideals(n)
        render = lambda i: json.dumps(ideal_to_json(i))
    else:
        n_cod = n if args.n_cod is None else args.n_cod
        if max(n, n_cod) > 5:
            raise IdealTopError("map enumeration capped at 5 points per side")
        items = search_mod.enumerate_maps(n, n_cod)
        render = lambda f: json.dumps(map_to_json(f))
    count = 0
    for item in items:
        count += 1
        if not args.count_only:
            print(render(item))
    if args.count_only:
        print(count)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="idealtop",
        description="finite-model laboratory for ideal topological spaces")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("star", help="apply an operator to an ideal space")
    ps.add_argument("space_file", help="JSON file {topology, ideal}")
    ps.add_argument("operator", choices=STAR_OPS)
    ps.add_argument("subset", nargs="?", default=None,
                    help="point list like 0,2 (needed by local/clstar/psi)")
    ps.set_defaults(fn=cmd_star)

    pc = sub.add_parser("check", help="run theorem checkers on an instance file")
    pc.add_argument("instance_file", help="JSON file {X, Y, f}")
    pc.add_argument("theorems", nargs="*", default=["all"],
                    help="theorem ids, or 'all' (default)")
    pc.add_argument("--json", default=None, help="write verdicts as JSON ('-' = stdout)")
    pc.set_defaults(fn=cmd_check)

    pq = sub.add_parser("search", help="certify a theorem or mine counterexamples")
    pq.add_argument("theorem")
    pq.add_argument("--drop", action="append", default=[],
                    metavar="HYPOTHESIS", help="hypothesis name to drop (repeatable)")
    pq.add_argument("--max-n", type=int, default=3, help="point cap per side (default 3)")
    pq.add_argument("--workers", type=int, default=0,
                    help="worker processes (default: IDEALTOP_WORKERS or 1)")
    pq.add_argument("--json", default=None, help="write the report as JSON")
    pq.add_argument("--sample", type=int, default=None,
                    help="sampled run with this many instances (needs --seed)")
    pq.add_argument("--seed", type=int, default=None, help="sampling seed")
    pq.add_argument("--carrier", action="append", default=[],
                    metavar="POINTS", help="restrict ideals to these carriers (repeatable)")
    pq.add_argument("--quiet", action="store_true", help="suppress progress lines")
    pq.set_defaults(fn=cmd_search)

    pd = sub.add_parser("demo", help="replay a constructed counterexample")
    pd.add_argument("name", choices=DEMOS)
    pd.set_defaults(fn=cmd_demo)

    pe = sub.add_parser("enumerate", help="list topologies, ideals or maps")
    pe.add_argument("--what", choices=("topologies", "ideals", "maps"),
                    required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--n-cod", type=int, default=None,
                    help="map codomain size (defaults to --n)")
    pe.add_argument("--count-only", action="store_true")
    pe.set_defaults(fn=cmd_enumerate)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except IdealTopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
