"""Smoke test of the benchmark's correctness gate, in a few seconds.

    python3 perfbench/selftest.py

Run from the repository root.  It runs a small slice of each workload and
checks it against the recorded expectations, then checks the same outputs
again with one expected output corrupted.  Exit code 0 means every slice
passed clean and every corruption made ``failed_fraction`` non-zero.
"""

import copy
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import instgen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE_INSTANCES = 12  # the first ones below the 2**15 band, so each takes milliseconds


def certify_slice():
    wl = workloads.Certify(0)
    wl.order = ["HOMEO_COR", "JHCOMP"]
    return wl, wl.expected() + 1


def instances_slice():
    wl = workloads.Instances(0)
    cheap = [instgen.exponent(inst.X.top, inst.Y.top) < instgen.BAND.start
             for inst, _ in instgen.pass_instances(0)]
    wl.inputs = [inp for inp in wl.inputs if cheap[inp[0]]][:SMOKE_INSTANCES]
    bad = copy.deepcopy(wl.expected())
    i = wl.inputs[-1][0]
    check, star = bad["0"][i].split(":")
    bad["0"][i] = f"{check}:{'0' * len(star)}"
    return wl, bad


def main() -> int:
    ok = True
    for make in (certify_slice, instances_slice):
        wl, corrupted = make()
        _, outputs = wl.run_pass(tracer.NullTracer())
        for label, expected in (("clean", wl.expected()),
                                ("corrupted", corrupted)):
            attempted, failed = wl.verify(outputs, expected)
            print(f"{wl.name:9s} {label:9s} failed_fraction "
                  f"{failed / attempted:.4f} ({failed} of {attempted})")
            ok &= (failed == 0) == (label == "clean")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
