#!/usr/bin/env python3
"""Sweep random cost-function sets: classify, synthesize, verify.

Reports the tractable/hard breakdown, which multimorphism certified each
tractable set, and which case of the synthesis procedure each hard set took.
"""

import argparse
import random
import sys
from collections import Counter

from coclones.acceptance import random_cost_set
from coclones.cli import _int, _positive_int
from coclones.instances import MAX_COST_ARITY
from coclones.valued import classify_vcsp, express_neq, verify_neq_expression


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=_positive_int, default=2000)
    parser.add_argument("--seed", type=_int, default=0)
    parser.add_argument("--max-arity", type=_positive_int, default=3)
    parser.add_argument("--max-value", type=_int, default=4)
    args = parser.parse_args()
    if args.max_arity > MAX_COST_ARITY:
        parser.error(f"argument --max-arity: must be at most {MAX_COST_ARITY}, got {args.max_arity}")
    if args.max_value < 0:
        parser.error(f"argument --max-value: must be at least 0, got {args.max_value}")

    rng = random.Random(args.seed)
    outcomes = Counter()
    cases = Counter()
    failures = 0
    for _ in range(args.sets):
        fns = random_cost_set(rng, args.max_arity, args.max_value)
        cls = classify_vcsp(fns)
        if cls.is_polynomial:
            outcomes[f"P via {cls.admitted}"] += 1
            continue
        outcomes["NP-hard"] += 1
        expr = express_neq(fns)
        cases[expr.trace[2].split(":")[0]] += 1
        if not verify_neq_expression(expr, fns):
            failures += 1
            print(f"FAILURE on {[f.table for f in fns]}")

    print(f"{args.sets} random sets (seed {args.seed}):")
    for label, count in outcomes.most_common():
        print(f"  {label:20s} {count}")
    print("synthesis case split:")
    for label, count in cases.most_common():
        print(f"  {label:60s} {count}")
    print(f"verification failures: {failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
