"""Cross-check the walk engine against the oracle on random systems.

Samples matching systems, presents each with the walk engine and replays
the result through the independent oracle: generators by the
Contejean-Devie completion, relations by one pass over the fibers. Draws
alternate between the sampler's default column mix, where about one
system in eight has a relation, and a mix rich in two-row columns, where
about one in five does. Any disagreement prints its witnesses and fails
the run.

Usage: python scripts/verify_random.py [--count N] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from gentle_si.matching import presentation
from gentle_si.oracle import random_matching_system, verify_presentation

# column occupancy mixes, drawn in turn
MIXES = ((0, 1, 1, 2, 2), (2, 2, 2, 1))


def run(count: int, seed: int, max_m: int, max_l: int) -> int:
    rng = random.Random(seed)
    start = time.perf_counter()
    failures = 0
    for k in range(1, count + 1):
        occupancy = MIXES[(k - 1) % len(MIXES)]
        sys_ = random_matching_system(rng, max_m, max_l, occupancy)
        pres = presentation(sys_)
        report = verify_presentation(sys_, pres)
        if report["generators_match"] and report["relations_match"]:
            continue
        failures += 1
        print(f"system {k} ({sys_.m} equations, {sys_.num_vars} variables):")
        for eq in sys_.equations():
            print(f"  {' '.join(eq[0])} = {' '.join(eq[1])}")
        for w in report["witnesses"]:
            print(f"  {w}")
    elapsed = time.perf_counter() - start
    print(
        f"{count - failures}/{count} systems agree with the oracle"
        f" ({elapsed:.1f}s, seed {seed})"
    )
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--max-l", type=int, default=8)
    args = ap.parse_args()
    return run(args.count, args.seed, args.max_m, args.max_l)


if __name__ == "__main__":
    sys.exit(main())
