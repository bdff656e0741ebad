#!/usr/bin/env python3
"""Certify every registry reduction against the exhaustive oracle."""

import argparse
import sys
import time

from coclones.cli import _positive_int
from coclones.reductions import certify, registry_names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_positive_int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=_positive_int, default=1)
    parser.add_argument("entries", nargs="*", default=None,
                        help="entry names (default: whole registry)")
    args = parser.parse_args()

    names = args.entries or registry_names()
    ok = True
    for name in names:
        start = time.perf_counter()
        report = certify(name, trials=args.trials, seed=args.seed, jobs=args.jobs)
        elapsed = time.perf_counter() - start
        print(f"{report.render()}  [{elapsed:.1f}s]")
        ok = ok and report.ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
