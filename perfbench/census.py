"""Measure the share of freely drawn ``instances`` instances in each cost
class (exponent), the figures ``instgen.EXPONENT_SHARE`` records, and print
the per-pass counts they give.

    python3 perfbench/census.py [DRAWS]      # default 200000, about 20 s

Run from the repository root.  The draws use their own fixed seed, not a
benchmark seed.
"""

import collections
import os
import random
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import instgen  # noqa: E402


def main() -> None:
    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    rng = random.Random("census")
    counts = collections.Counter(
        instgen.exponent(instgen.random_side(rng), instgen.random_side(rng))
        for _ in range(draws))
    shares = {e: round(counts[e] / draws, 6) for e in sorted(counts)}
    print(f"EXPONENT_SHARE = {shares}")
    print(f"{draws} instances; per {instgen.INSTANCES}:")
    print(" e  share     expected  COUNTS")
    for e, share in shares.items():
        print(f"{e:2d}  {share:.6f}  {share * instgen.INSTANCES:7.2f}  "
              f"{instgen.COUNTS.get(e, '-')}")
    slow = sum(counts[e] for e in range(17, instgen.ENUM_CAP + 1)) / draws
    print(f"exponent 17..{instgen.ENUM_CAP}: {slow:.4f} of instances; "
          f"pass size {instgen.PASS_SIZE}")


if __name__ == "__main__":
    main()
