"""The two workloads: what one pass runs, and how its outputs are checked.

A pass is the workload's fixed work; every pass of a run does the same
work.  ``run_pass`` times each operation and returns the outputs;
``verify`` compares them with the expectations recorded in ``golden/`` and
with invariants that hold for any seed, and returns (operations attempted,
operations failed).  Checking happens after the pass, outside the timed
region and outside any tracing.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time
import traceback

import idealtop.ideal as ideal_mod
import idealtop.jsonio as jsonio
import idealtop.maps as maps_mod
import idealtop.search as search
import idealtop.space as space_mod
import idealtop.star as star
import idealtop.theorems as thm

import instgen

BOUNDS = search.SearchBounds(3, 3)
NOMINAL_PER_SCAN = 1_519_332  # instances in one scan of every size pair up to (3, 3)
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_clock = time.perf_counter


def _failure(what: str) -> None:
    """Report an operation that raised; the pass goes on."""
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}",
          file=sys.stderr, flush=True)


def warm_workspaces() -> None:
    """Build every workspace up to (3, 3) through a public, carrier-restricted
    scan, as the first search in a process does."""
    search.verify_exhaustive("TC1", BOUNDS, carriers=(0,))


def package_caches() -> list:
    """Every lru_cache-wrapped function in the package's modules."""
    found = {}
    for module in (space_mod, ideal_mod, maps_mod, star, thm, jsonio, search):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def load_golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


class Certify:
    """Certify all 13 theorems at (3, 3) with one worker; the seed permutes
    the theorem order."""

    name = "certify"
    searches = True
    items_per_pass = NOMINAL_PER_SCAN * len(thm.ALL_THEOREM_IDS)

    def __init__(self, seed: int) -> None:
        self.order = list(thm.ALL_THEOREM_IDS)
        random.Random(seed).shuffle(self.order)

    @staticmethod
    def setup() -> None:
        warm_workspaces()

    def run_pass(self, tracer):
        times, outputs = [], []
        for tid in self.order:
            with tracer.span(f"search.scan.{tid}"):
                t = _clock()
                try:
                    report = search.verify_exhaustive(tid, BOUNDS, workers=1)
                except Exception:
                    _failure(f"verify_exhaustive({tid})")
                    report = None
                times.append(_clock() - t)
            outputs.append((tid, report))
        return times, outputs

    @staticmethod
    def expected() -> int:
        return NOMINAL_PER_SCAN

    @staticmethod
    def verify(outputs, expected: int):
        failed = sum(
            report is None or not report.certified
            or report.counterexample is not None
            or report.instances_checked != expected
            for _, report in outputs)
        return len(outputs), failed


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()[:8]


def star_doc(local, clstar, psi, tau_star, psi_tau, compat) -> dict:
    return {"local": local, "clstar": clstar, "psi": psi,
            "tau_star": list(tau_star.opens()),
            "psi_tau": list(psi_tau.opens()), "compat": compat}


def star_invariants(space, subset: int, out: dict) -> bool:
    """Facts about the six star outputs that hold on every finite space."""
    full = space.full
    base = set(space.top.opens())
    local = star.local_function_by_definition(space, subset)
    return (out["local"] == local
            and out["clstar"] == subset | local
            and out["psi"] == full & ~star.local_function_by_definition(
                space, full & ~subset)
            and base <= set(out["tau_star"])
            and {full & ~star.local_function_by_definition(space, full & ~u)
                 for u in base} <= set(out["psi_tau"])
            and out["compat"] is True)


class Instances:
    """Seeded random instances with 4-7 points per side (see ``instgen``).
    Each instance is a ``check`` op (parse the instance JSON, then check all
    13 theorems, as ``idealtop check FILE all``) and a ``star`` op (the six
    ``idealtop star`` operators on the domain space).

    Every pass checks the same instances from empty caches, as a fresh
    long-lived caller would; the caches then grow through the pass."""

    name = "instances"
    searches = False
    items_per_pass = instgen.PASS_SIZE

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = [(i, inst.to_json(), subset) for i, (inst, subset)
                       in enumerate(instgen.pass_instances(seed))]

    @staticmethod
    def setup() -> None:
        pass

    def run_pass(self, tracer):
        for fn in package_caches():
            fn.cache_clear()
        times, outputs = [], []
        for i, doc, subset in self.inputs:
            tracer.new_op()
            t = _clock()
            verdicts = out = space = None
            with tracer.span("op.check"):
                try:
                    parsed = jsonio.parse_instance(doc)
                    verdicts = [thm.check(tid, parsed)
                                for tid in thm.ALL_THEOREM_IDS]
                    space = parsed.X
                except Exception:
                    _failure(f"check op on instance {i}")
            with tracer.span("op.star"):
                try:
                    space = space or jsonio.parse_space(doc["X"])
                    out = (star.local_function(space, subset),
                           star.star_closure(space, subset),
                           star.psi(space, subset),
                           star.star_topology(space),
                           star.psi_topology(space),
                           star.is_compatible(space))
                except Exception:
                    _failure(f"star op on instance {i}")
            times.append(_clock() - t)
            outputs.append((i, space, subset, verdicts, out))
        return times, outputs

    @staticmethod
    def expected() -> dict:
        return load_golden("instances.json")

    def verify(self, outputs, golden: dict):
        expected = golden.get(str(self.seed))
        failed = 0
        for i, space, subset, verdicts, out in outputs:
            want = expected[i].split(":") if expected else None
            if verdicts is None:
                failed += 1
            else:
                doc = [v.to_json() for v in verdicts]
                failed += (any(v.violates for v in verdicts)
                           or (want is not None and digest(doc) != want[0]))
            if out is None:
                failed += 1
            else:
                doc = star_doc(*out)
                failed += (not star_invariants(space, subset, doc)
                           or (want is not None and digest(doc) != want[1]))
        return 2 * len(outputs), failed

    def digests(self, outputs) -> list[str]:
        return [f"{digest([v.to_json() for v in verdicts])}:"
                f"{digest(star_doc(*out))}"
                for _, _, _, verdicts, out in outputs]


WORKLOADS = {cls.name: cls for cls in (Certify, Instances)}
