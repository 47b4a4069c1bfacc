"""Record the SHA-256 of every file each workload writes, for seeds 1 to 3,
in fingerprints.json. run.py reports whether its outputs still match; a
refactor that keeps behaviour keeps them, a deliberate numeric change
records them again. The hashes are never a gate.

    python3 perfbench/fingerprint.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = (1, 2, 3)


def main() -> int:
    sys.path.insert(0, run.SRC)
    import traywaiter.cli as cli
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for seed in SEEDS:
            work = os.path.join(run.WORK, "fingerprint", name)
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            prepared = workloads.WORKLOADS[name](run.ROOT, work, seed)
            _, problems = run.run_iteration(cli, prepared)
            if problems:
                print(f"error: {name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            table[name][str(seed)] = run.fingerprint(prepared.outdir)
    with open(run.FINGERPRINTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(table)} workloads x {len(SEEDS)} seeds "
          f"in {run.FINGERPRINTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
