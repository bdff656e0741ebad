#!/usr/bin/env python3
"""Full census over the 255 nonempty ternary relations.

Cross-validates the closure-based Max-Ones classifier against the co-clone
position characterization, and checks that identification is invariant under
all six coordinate permutations (the full version of the sampled test).
"""

import argparse
import itertools
import sys
from collections import Counter

from coclones.acceptance import max_ones_hard_by_position
from coclones.postlattice import co_clone_of
from coclones.relations import ConstraintLanguage, Relation, classify_max_ones


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--permutations", action="store_true",
                        help="also check invariance under coordinate permutations")
    args = parser.parse_args()

    perms = list(itertools.permutations(range(3)))
    census = Counter()
    disagreements = []
    perm_breaks = []
    for mask_set in range(1, 256):
        rel = Relation.from_masks(3, [t for t in range(8) if (mask_set >> t) & 1], name="R")
        lang = ConstraintLanguage([rel])
        coclone = co_clone_of(lang)
        census[coclone.display()] += 1
        by_closure = classify_max_ones(lang).result == "NP-hard"
        if max_ones_hard_by_position(coclone) != by_closure:
            disagreements.append(mask_set)
        if args.permutations:
            for p in perms:
                if co_clone_of(ConstraintLanguage([rel.permuted(p)])) != coclone:
                    perm_breaks.append((mask_set, p))

    print("co-clone census over the 255 nonempty ternary relations:")
    for name, count in sorted(census.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {name:10s} {count}")
    print(f"dichotomy disagreements: {len(disagreements)}")
    if args.permutations:
        print(f"permutation-invariance violations: {len(perm_breaks)}")
    return 0 if not disagreements and not perm_breaks else 1


if __name__ == "__main__":
    sys.exit(main())
