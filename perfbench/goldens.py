"""Regenerate ``goldens.json``: the expected fingerprint per input seed.

A golden holds ``final_tick``, ``events_executed``, ``messages_sent``
and the app-output digest of one job.  It is written only after the
output passed its independent oracle (NumPy PageRank, sparse-matrix
triangle count, every soak request ``ok``), so a golden can never
record a wrong answer.  Regenerate only for a change that is meant to
alter simulated results, and say so in the change.

Usage, from the repository root::

    python3 perfbench/goldens.py
"""

from __future__ import annotations

import json
import sys

from run import GOLDENS, _import_program, run_rep


def main() -> int:
    _import_program()
    from workloads import GOLDEN_SEEDS, SPECS, oracle_check

    goldens = {}
    for name, spec in SPECS.items():
        table = goldens[name] = {}
        for seed in range(GOLDEN_SEEDS):
            rep = run_rep(spec, seed)
            out = rep["outcome"]
            problem = oracle_check(spec, rep["inputs"], out)
            if problem:
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            table[str(seed)] = out.fingerprint()
            print(f"{name} seed {seed}: {out.fingerprint()}", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
