"""Benchmark for idealtop: certify and instances workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 60 --trace 0

The untraced run (``--trace 0``) sets up, then repeats a pass of the
workload's fixed work, at least ``MIN_PASSES`` times and otherwise while
the run, set-up probes included, would still end within ``--seconds``.  It
reports the end-to-end metrics named in ``BENCHMARK.json``.  Each
operation counts with its median time over the passes, and set-up with
the median of its probes, one after each pass and the rest at the end:
the host slows down by a third or more in periods from milliseconds to
minutes long, so a fastest time depends on whether one pass happened to
fall in a quiet period.  The traced run (``--trace 1``) runs one pass
with spans only and the same pass fully traced, and reports the
per-layer metrics.
Every pass's outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
MIN_PASSES = 2
ENUM_SIZES = (4, 5)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "instances"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def use_checkout_sources(root: str) -> None:
    """Put the checkout's ``src`` first on the path, or stop without a
    result when the checkout has no package sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "idealtop", "__init__.py")):
        raise SystemExit(f"perfbench: no idealtop sources under {src}; "
                         "run from the repository root")
    sys.path.insert(0, src)


def tail(values):
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when fewer than 21 samples leave no such
    percentile above the median."""
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def untraced_run(wl, seconds: float, expected, start: float):
    from tracer import NullTracer
    null = NullTracer()
    wl.setup()
    passes, setups, rounds = [], [], []
    attempted = failed = 0
    rss = None
    while True:
        t = time.perf_counter()
        times, outputs = wl.run_pass(null)
        rss = peak_rss_mb() if rss is None else rss
        a, f = wl.verify(outputs, expected)
        attempted, failed = attempted + a, failed + f
        passes.append(times)
        print(f"pass {len(passes) - 1}: wall {sum(times):.3f} s, "
              f"{len(times)} ops, failed {f}/{a}", flush=True)
        # a probe after every pass spreads the probes over the run
        setups.append(setup_probe(wl.name))
        rounds.append(time.perf_counter() - t)
        probes_left = max(0, SETUP_PROBES - len(setups) - 1)
        # a probe's process also starts an interpreter, which it does not time
        if (len(passes) >= MIN_PASSES and time.perf_counter() - start
                + statistics.median(rounds) + probes_left * max(setups) * 1.5
                > seconds):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl.name))
    typical = [statistics.median(op) for op in zip(*passes)]
    value, pct = tail(typical)
    print(f"median of {len(passes)} passes: wall {sum(typical):.3f} s, "
          f"p50 {statistics.median(typical) * 1e3:.3f} ms, "
          f"p{pct:.1f} of {len(typical)} {value * 1e3:.3f} ms")
    print(f"setup probes (s): {' '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "scan_rate": wl.items_per_pass / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_tail_ms": value * 1e3,
        "peak_rss_mb": rss,
    }
    return metrics, attempted, failed


def traced_run(wl, seed: int, expected):
    import idealtop.search as search_mod
    import idealtop.theorems as thm
    import tracer as tracer_mod
    import workloads
    tr = tracer_mod.Tracer()
    tr.install(scan=False)
    wl.setup()
    tr.uninstall()

    plain = tracer_mod.Tracer()  # spans only, no wrappers installed
    times0, outputs = wl.run_pass(plain)
    attempted, failed = wl.verify(outputs, expected)
    enum_ms = {n: 0.0 for n in ENUM_SIZES}
    if wl.searches:
        for n in ENUM_SIZES:
            t = time.perf_counter()
            list(search_mod.enumerate_topologies(n))
            enum_ms[n] = (time.perf_counter() - t) * 1e3

    tr.install(scan=True)
    try:
        with tr.span(f"pass.{wl.name}"):
            times1, outputs = wl.run_pass(tr)
    finally:
        tr.uninstall()
    cache = sum(fn.cache_info().currsize for fn in workloads.package_caches())
    a, f = wl.verify(outputs, expected)
    attempted, failed = attempted + a, failed + f
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer_mod.write_spans(
        os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.json"),
        untraced=plain, traced=tr)

    wall = sum(times1)
    print(f"untraced pass {sum(times0):.3f} s, traced pass {wall:.3f} s")
    hyp_s, concl_s = tr.time["theorems.hypotheses"], tr.time["theorems.conclusions"]
    metrics = {
        "search.self_s": tr.time["search.rows"] - hyp_s - concl_s,
        "theorems.hypotheses_s": hyp_s,
        "theorems.conclusions_s": concl_s,
        "theorems.conclusion_calls": tr.count["theorems.conclusion_calls"],
        "theorems.check_first_ms": tracer_mod.median_or_zero(
            tr.samples["theorems.check_first"], 1e3),
        "theorems.check_rest_us": tracer_mod.median_or_zero(
            tr.samples["theorems.check_rest"], 1e6),
        "theorems.cache_entries": cache,
        "maps.classify_us": tr.mean("maps.classify", 1e6),
        "maps.classify_calls": tr.count["maps.classify"],
        "star.is_ideal_compact_us.p50": tracer_mod.median_or_zero(
            tr.samples["star.is_ideal_compact"], 1e6),
        "star.is_ideal_compact_us.max": max(
            tr.samples["star.is_ideal_compact"], default=0.0) * 1e6,
        "star.is_compatible_us": tr.mean("star.is_compatible", 1e6),
        "star.star_topology_us": tr.mean("star.star_topology", 1e6),
        "star.psi_topology_us": tr.mean("star.psi_topology", 1e6),
        "star.local_function_ns": tr.mean("star.local_function", 1e9),
        "space.generate_topology_us": tr.mean("space.generate_topology", 1e6),
        "jsonio.parse_instance_us": tr.mean("jsonio.parse_instance", 1e6),
        "trace.overhead_s": wall - sum(times0),
    }
    for n in ENUM_SIZES:
        metrics[f"search.enumerate_topologies_ms.n{n}"] = enum_ms[n]
    for tid in thm.ALL_THEOREM_IDS:
        metrics[f"search.scan_s.{tid}"] = plain.span_seconds(f"search.scan.{tid}")
        for stage in ("l1_calls", "l1_pass", "l2_calls", "l2_pass"):
            name = f"theorems.{stage}.{tid}"
            metrics[name] = tr.count[name]
    return metrics, attempted, failed


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    use_checkout_sources(root)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    expected = wl.expected()
    if args.trace:
        values, attempted, failed = traced_run(wl, args.seed, expected)
        declared = bench["per_layer"]
    else:
        values, attempted, failed = untraced_run(wl, args.seconds, expected, start)
        declared = bench["end_to_end"]
    print(f"failed_fraction {failed / attempted} ({failed} of {attempted} ops)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
