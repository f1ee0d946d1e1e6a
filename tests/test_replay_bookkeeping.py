"""``replay`` books nothing but its records: it moves a running price sum
by each admission and block, and records where each snapshot and each
block trigger fell; the report derives the dUtil ledger, the flags and the
snapshots' pending sets from those records when read.
``oracles.replay_per_event`` books one dUtil record per arrival and per
leftover into a ledger of its own, sums the pool's pending prices once per
arrival, takes each admission's flags from the list-scan
``transition_flags`` into a list of its own, and keeps the declined ledger
and a copy of the pending set at each snapshot as the events happen. On
random traces, with blocks and snapshots anywhere, every policy, both drain
modes, the final drain on and off and a per-sender limit or none, both must
give the same price sums, final pending set and report hash, the report's
``util`` must equal the oracle's booked ledger, its derived ``flags`` the
oracle's list, and its derived ``declined`` and ``pending_sets`` what was
kept as the events happened.
"""

import itertools
import random

import pytest

from mempoolsim import (
    AttackPlan,
    PolicyConfig,
    ScenarioConfig,
    block_trigger,
    replay,
    snapshot_marker,
)

from oracles import replay_per_event

SETTINGS = list(
    itertools.product(("baseline", "cp", "map"), ("end_only", "interleaved"), (True, False), (None, 2))
)


def _trace(seed):
    """A random_adversary trace with block triggers and snapshot markers
    dropped between its arrivals, and the seeds it needs."""
    rng = random.Random(seed)
    arrivals, seeds = AttackPlan(
        "random_adversary", {"steps": rng.randint(80, 240), "seed": seed}
    ).generate()
    events = []
    for event in arrivals:
        if rng.random() < 0.08:
            events.append(block_trigger(event.ts_ms))
        if rng.random() < 0.03:
            events.append(snapshot_marker(event.ts_ms))
        events.append(event)
    return events, seeds


@pytest.mark.parametrize("seed", range(50))
def test_replay_books_as_the_per_event_loop(seed):
    policy, drain_mode, final_drain, limit = SETTINGS[seed % len(SETTINGS)]
    events, seeds = _trace(seed)
    config = ScenarioConfig(
        policy=PolicyConfig(kind=policy),
        capacity=random.Random(-seed).randint(4, 24),
        per_sender_limit=limit,
        account_seeds=seeds,
        drain_mode=drain_mode,
        final_drain=final_drain,
    )
    got = replay(config, events)
    want, ledger, pendings, util, flags = replay_per_event(config, events)
    assert got.declined == ledger
    assert got.snapshots == want.snapshots
    assert (got.triggers, got.interleaved) == (want.triggers, want.interleaved)
    assert got.pending_sets() == pendings
    assert got.pending_at(got.snapshots[0]) == pendings[0]
    assert got.final_pending == want.final_pending
    assert got.unbuildable == want.unbuildable
    assert got.util.per_class == util.per_class
    assert got.util.flagged == util.flagged
    assert got.flags == flags
    assert got.price_sum_series == want.price_sum_series
    assert got.report_hash() == want.report_hash()
