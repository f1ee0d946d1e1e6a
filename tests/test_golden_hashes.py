"""Golden replays: the report hash and the future-flag digest of a fixed
matrix of traces x policies x drain modes.

The ``report_hash`` JSON (docs/format.md) leaves out the future<->pending
flags, so each cell also pins a sha256 over ``report.flags`` and
``report.util.flagged``: both come from the report's walk over its
outcomes (``replay._flag_walk``), so that digest pins the walk.
A change to the pool, builder or replay that keeps every value here keeps
the simulator's observable behaviour.

The values live in ``golden_hashes.json``. After an intended behaviour
change, record the values of the current code with

    PYTHONPATH=src python tests/test_golden_hashes.py > tests/golden_hashes.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from mempoolsim import (
    AttackPlan,
    PolicyConfig,
    ScenarioConfig,
    block_trigger,
    gen_xt6,
    replay,
    workload_batch_insert,
    workload_tn1,
)

POLICIES = ("baseline", "cp", "map")
DRAIN_MODES = ("end_only", "interleaved")

# the full xt6 profile scaled to a 128-slot pool
XT6_SMALL = {"n_seq": 10, "seq_len": 16, "n_parents_evicted": 2, "big_chain": 128}


def _random_adversary(seed):
    plan = AttackPlan("random_adversary", {"steps": 1500, "seed": seed})
    events = []
    arrivals, seeds = plan.generate()
    for step, event in enumerate(arrivals):
        events.append(event)
        if (step + 1) % 300 == 0:
            events.append(block_trigger(event.ts_ms))
    return events, seeds


# name -> (capacity, () -> (events, account seeds))
TRACES = {
    "xt6_small": (128, lambda: (gen_xt6(XT6_SMALL), {})),
    "cp_lock": (96, lambda: AttackPlan("cp_lock", {"chain_len": 64, "capacity": 96}).generate()),
    "batch_insert_512": (512, lambda: (workload_batch_insert(512), {})),
    "tn1": (192, lambda: workload_tn1(64, 16, capacity=192, n_future=32)),
    **{
        f"random_adversary_s{seed}": (192, lambda seed=seed: _random_adversary(seed))
        for seed in range(3)
    },
}


def flags_digest(report) -> str:
    flags = [[index, f.future_turn_pending, f.pending_turn_future] for index, f in report.flags]
    flagged = {
        name: [e.inside_delta, e.outside_delta, e.dutil, e.count]
        for name, e in sorted(report.util.flagged.items())
    }
    blob = json.dumps([flags, flagged], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_values(trace: str):
    """{"policy/drain_mode": [report_hash, flags digest]} of one trace."""
    capacity, make = TRACES[trace]
    events, seeds = make()
    out = {}
    for policy in POLICIES:
        for drain_mode in DRAIN_MODES:
            config = ScenarioConfig(
                policy=PolicyConfig(kind=policy),
                capacity=capacity,
                account_seeds=seeds,
                drain_mode=drain_mode,
            )
            report = replay(config, events)
            out[f"{policy}/{drain_mode}"] = [report.report_hash(), flags_digest(report)]
    return out


GOLDEN = json.loads((Path(__file__).parent / "golden_hashes.json").read_text())


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_golden_hashes(trace):
    assert cell_values(trace) == GOLDEN[trace]


if __name__ == "__main__":
    print(json.dumps({t: cell_values(t) for t in sorted(TRACES)}, indent=1, sort_keys=True))
