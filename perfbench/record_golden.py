"""Record the expected outputs that ``run.py`` checks against.

    python3 perfbench/record_golden.py     # golden/instances.json

Run from the repository root.  ``instances.json`` holds, for each shipped
seed, one ``check:star`` digest pair per instance.
Re-record only when a change alters the outputs on purpose.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(16)


def record_instances() -> dict:
    golden = {}
    for seed in SEEDS:
        wl = workloads.Instances(seed)
        _, outputs = wl.run_pass(tracer.NullTracer())
        golden[str(seed)] = wl.digests(outputs)
        print("seed", seed, flush=True)
    return golden


def main() -> None:
    doc = record_instances()
    path = os.path.join(workloads.GOLDEN_DIR, "instances.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
