"""``replay`` books nothing but its records: it moves a running price sum
by each admission and block, and records where each snapshot and each
block trigger fell; the report derives the dUtil ledger from its outcomes,
and the flags and the snapshots' pending sets from one walk that replays
its records through a fresh pool, when read.
``oracles.replay_per_event`` books one dUtil record per arrival and per
leftover into a ledger of its own, sums the pool's pending prices once per
arrival, takes each admission's flags from the list-scan
``transition_flags`` into a list of its own, and keeps the declined ledger
and a copy of the pending set at each snapshot as the events happen. On
random traces, with blocks, snapshots and re-sent txs anywhere, every
policy, both drain modes, the final drain on and off and a per-sender
limit or none, both must give the same price sums, final pending set and
report hash, the report's ``util`` must equal the oracle's booked ledger,
its derived ``flags`` the oracle's list, and its derived ``declined`` and
``pending_sets`` what was kept as the events happened. The re-sends make
the traces turn residents future to pending as well as back.
"""

import dataclasses
import itertools
import random

import pytest

from mempoolsim import (
    AttackPlan,
    PolicyConfig,
    ScenarioConfig,
    arrival,
    block_trigger,
    replay,
    snapshot_marker,
)

from oracles import replay_per_event

SETTINGS = list(
    itertools.product(("baseline", "cp", "map"), ("end_only", "interleaved"), (True, False), (None, 2))
)


def _trace(seed):
    """A random_adversary trace with block triggers, snapshot markers and
    re-sends dropped between its arrivals, and the seeds it needs. A re-send
    is a fresh copy of each tx one sender has sent so far, half of them
    priced up: the copy of a victim can then refill the gap its eviction
    left and turn the residents above it pending again, which the trace's
    own arrivals, one per nonce, never do."""
    rng = random.Random(seed)
    arrivals, seeds = AttackPlan(
        "random_adversary", {"steps": rng.randint(80, 240), "seed": seed}
    ).generate()
    events = []
    sent = {}  # sender -> the txs it has sent, in trace order
    for event in arrivals:
        if rng.random() < 0.08:
            events.append(block_trigger(event.ts_ms))
        if rng.random() < 0.03:
            events.append(snapshot_marker(event.ts_ms))
        if sent and rng.random() < 0.2:
            for old in sent[rng.choice(sorted(sent))]:
                price = old.price + (rng.randint(1, 10_000) if rng.random() < 0.5 else 0)
                events.append(arrival(dataclasses.replace(old, price=price), event.ts_ms))
        events.append(event)
        sent.setdefault(event.tx.sender, []).append(event.tx)
    return events, seeds


def _config(seed, seeds):
    policy, drain_mode, final_drain, limit = SETTINGS[seed % len(SETTINGS)]
    return ScenarioConfig(
        policy=PolicyConfig(kind=policy),
        capacity=random.Random(-seed).randint(4, 24),
        per_sender_limit=limit,
        account_seeds=seeds,
        drain_mode=drain_mode,
        final_drain=final_drain,
    )


@pytest.mark.parametrize("seed", range(50))
def test_replay_books_as_the_per_event_loop(seed):
    events, seeds = _trace(seed)
    config = _config(seed, seeds)
    got = replay(config, events)
    want, ledger, pendings, util, flags = replay_per_event(config, events)
    assert got.declined == ledger
    assert got.snapshots == want.snapshots
    assert (got.triggers, got.interleaved) == (want.triggers, want.interleaved)
    assert got.pending_sets() == pendings
    # each read alone, which stops at its snapshot
    assert [got.pending_at(s) for s in got.snapshots] == pendings
    assert got.final_pending == want.final_pending
    assert got.unbuildable == want.unbuildable
    assert got.util.per_class == util.per_class
    assert got.util.flagged == util.flagged
    assert got.flags == flags
    assert got.price_sum_series == want.price_sum_series
    assert got.report_hash() == want.report_hash()


def test_the_traces_turn_residents_both_ways():
    # the oracle check is only as strong as the flags it sees: across the
    # seeds, some admission turns a resident pending and some turns one future
    kinds = {"future_turn_pending": 0, "pending_turn_future": 0}
    for seed in range(50):
        events, seeds = _trace(seed)
        for _, flags in replay(_config(seed, seeds), events).flags:
            for name in kinds:
                kinds[name] += getattr(flags, name)
    assert all(kinds.values()), kinds
