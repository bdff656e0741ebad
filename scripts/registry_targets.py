#!/usr/bin/env python3
"""Print one digest per registry entry over the targets of its default corpus.

For each entry, in registration order, one line: its name, the number of
sources `certify` draws by default (`reductions.corpus(rec, 200, 0)`), and the
sha256 of the `emit_inst` text of every target.  Each source is first passed
through the entry's `chain_before` steps, as `certify` passes it, so the
digest covers exactly the targets that `certify` solves.  A construction that
changes one byte of one target changes its entry's line.

    python3 scripts/registry_targets.py
"""

import hashlib
import sys

from coclones.fileio import emit_inst
from coclones.reductions import REGISTRY, apply, corpus


def main() -> int:
    for name, rec in REGISTRY.items():
        digest = hashlib.sha256()
        cases = corpus(rec, 200, 0)
        for tgt in cases:
            for step in rec.chain_before + (name,):
                tgt, _ = apply(step, tgt)
            digest.update(emit_inst(tgt).encode())
        print(name, len(cases), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
