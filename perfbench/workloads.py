"""The benchmark's workloads and their seeded trace files.

Each workload is a trace plus the scenario it is replayed in. A trace is
generated once per (workload, seed), outside all timing, and written as a
JSONL trace file with a sidecar JSON file of account seeds. Every run then
reads that file back through ``mempoolsim.parse_trace``.

Run as a script to generate one trace file:

    python3 perfbench/workloads.py --workload fuzz_churn --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"
POLICIES = ("baseline", "cp", "map")


def import_mempoolsim():
    """Import the package from this checkout's ``src``, never an installed copy."""
    if not (SRC / "mempoolsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mempoolsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mempoolsim

    if Path(mempoolsim.__file__).resolve().parent != SRC / "mempoolsim":
        raise SystemExit(f"perfbench: imported mempoolsim from {mempoolsim.__file__}, not {SRC}")
    return mempoolsim


@dataclass(frozen=True)
class Workload:
    name: str
    capacity: int
    drain_mode: str
    # xt6: phase sizes; adversary mix: steps and block cadence (0 = no triggers)
    params: Dict = field(default_factory=dict)


def _xt6_profile(capacity: int) -> Dict:
    """The full xt6 profile (capacity 5120) scaled to ``capacity``: the phase-3
    chain stays as long as the pool and the other phases keep their shares."""
    return {
        "n_seq": round(384 * capacity / 5120),
        "seq_len": 16,
        "n_parents_evicted": round(69 * capacity / 5120),
        "big_chain": capacity,
        "price_schedule": (100, 102, 104, 107),
    }


WORKLOADS = {
    "xt6_chain": Workload("xt6_chain", 2048, "end_only", _xt6_profile(2048)),
    "fuzz_churn": Workload("fuzz_churn", 192, "end_only", {"steps": 40_000, "block_every": 0}),
    "block_cadence": Workload(
        "block_cadence", 5120, "interleaved", {"steps": 24_000, "block_every": 1000}
    ),
}

# Tiny sizes with the same shape, for the smoke test.
SMOKE = {
    "xt6_chain": Workload("xt6_chain", 64, "end_only", _xt6_profile(64)),
    "fuzz_churn": Workload("fuzz_churn", 16, "end_only", {"steps": 600, "block_every": 0}),
    "block_cadence": Workload(
        "block_cadence", 64, "interleaved", {"steps": 600, "block_every": 50}
    ),
}


def adversary_mix(ms, steps: int, seed: int, block_every: int = 0):
    """The ``random_adversary`` attack (fresh:chain:future:overdraft = 4:4:1:1)
    with its account seeds, plus a ``block_trigger`` after every
    ``block_every`` arrivals (0: none)."""
    plan = ms.AttackPlan("random_adversary", {"steps": steps, "seed": seed})
    events: List = []
    for step, event in enumerate(plan.events()):
        events.append(event)
        if block_every and (step + 1) % block_every == 0:
            events.append(ms.block_trigger(ts_ms=event.ts_ms))
    return events, plan.account_seeds()


def generate(ms, workload: Workload, seed: int):
    """(events, account seeds) of ``workload`` for ``seed``.

    xt6 has no randomness of its own and ``xt6_chain`` ignores the seed: its
    trace is the same for every seed, so every run checks it against one
    golden hash per policy.
    """
    if workload.name == "xt6_chain":
        return ms.gen_xt6(workload.params), {}
    p = workload.params
    return adversary_mix(ms, p["steps"], seed, p["block_every"])


def stem(workload: Workload, seed: int) -> str:
    """Name of the trace of (workload, seed); also its key in golden.json."""
    if workload.name == "xt6_chain":
        return f"{workload.name}-c{workload.capacity}"
    return f"{workload.name}-c{workload.capacity}-seed{seed}"


def trace_paths(workload: Workload, seed: int) -> Tuple[Path, Path]:
    name = stem(workload, seed)
    return DATA_DIR / f"{name}.jsonl", DATA_DIR / f"{name}.seeds.json"


def write_workload(ms, workload: Workload, seed: int, trace: Path, seeds_file: Path) -> None:
    """Write the trace and its account seeds; each file appears whole or not at all."""
    events, seeds = generate(ms, workload, seed)
    trace.parent.mkdir(parents=True, exist_ok=True)
    for path, text in (
        (seeds_file, json.dumps({s: list(v) for s, v in sorted(seeds.items())})),
        (trace, ms.dump_events(events)),
    ):
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)


def read_seeds(seeds_file: Path) -> Dict[str, Tuple[int, int]]:
    raw = json.loads(seeds_file.read_text(encoding="utf-8"))
    return {s: (balance, nonce) for s, (balance, nonce) in raw.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of the smoke test")
    args = parser.parse_args(argv)
    ms = import_mempoolsim()
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    write_workload(ms, workload, args.seed, *trace_paths(workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
