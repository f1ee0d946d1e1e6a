"""Record the golden ``report_hash`` of every (workload, policy) in golden.json.

    python3 perfbench/record_golden.py --seeds 0 1 2

Hashes are recorded for the full workloads on each seed given and for the
smoke-test sizes on seed 0. ``xt6_chain`` ignores the seed, so it gets one
entry. A replay that differs from a hash already recorded fails and leaves
that entry unchanged: a golden hash changes only when the simulator's
behaviour is meant to change, and then by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import run
import workloads as wl


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    ms = wl.import_mempoolsim()
    golden = json.loads(run.GOLDEN_FILE.read_text(encoding="utf-8"))
    jobs = {wl.stem(w, seed): (w, seed, False) for w in wl.WORKLOADS.values() for seed in args.seeds}
    jobs.update({wl.stem(w, 0): (w, 0, True) for w in wl.SMOKE.values()})
    status = 0
    for key, (workload, seed, smoke) in jobs.items():
        # Bench checks the replays against any hashes already recorded
        bench = run.Bench(ms, workload, seed, smoke)
        bench.round()
        if bench.failed:
            status = 1
            continue
        golden[key] = bench.hashes
        print(key, "ok")
    text = json.dumps(dict(sorted(golden.items())), indent=1, sort_keys=True)
    run.GOLDEN_FILE.write_text(text + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
