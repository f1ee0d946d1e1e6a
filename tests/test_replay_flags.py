"""Differential check of the future<->pending flags ``replay`` records.

Around every ``admit`` the pool is snapshotted, and the flags the replay
records for that arrival must equal ``oracles.transition_flags`` over the
two snapshots: a list-scan oracle that shares no code with the replay's
per-sender bookkeeping.
"""

import random

import pytest

from mempoolsim import (
    AttackPlan,
    Mempool,
    PolicyConfig,
    ScenarioConfig,
    Transaction,
    arrival,
    block_trigger,
    gen_xt6,
    replay,
)
from mempoolsim.metrics import OutcomeFlags

from oracles import transition_flags


def _random_adversary(seed):
    plan = AttackPlan("random_adversary", {"steps": 400, "seed": seed})
    return _with_blocks(plan.events(), 60), plan.account_seeds()


def _resends(seed):
    """Few senders that re-send nonces at random prices: under ``baseline``
    a re-sent parent refills the gap an eviction left, so residents turn
    future and back."""
    rng = random.Random(seed)
    senders = [f"r{i}" for i in range(6)]
    top = dict.fromkeys(senders, 0)
    events = []
    for step in range(300):
        sender = rng.choice(senders)
        nonce = rng.randint(max(0, top[sender] - 3), top[sender])
        top[sender] = max(top[sender], nonce + 1)
        t = Transaction(sender=sender, nonce=nonce, price=rng.randint(1, 500))
        events.append(arrival(t, ts_ms=step))
    return _with_blocks(events, 50), {s: (10**18, 0) for s in senders}


def _with_blocks(arrivals, every):
    events = []
    for step, event in enumerate(arrivals):
        events.append(event)
        if (step + 1) % every == 0:
            events.append(block_trigger(event.ts_ms))
    return events


# name -> (capacity, drain mode, (events, account seeds))
CASES = {
    **{f"random_s{seed}": (48, "interleaved", _random_adversary(seed)) for seed in range(3)},
    **{f"resend_s{seed}": (12, "interleaved", _resends(seed)) for seed in range(3)},
    "xt6": (
        32,
        "end_only",
        (gen_xt6({"n_seq": 3, "seq_len": 8, "n_parents_evicted": 1, "big_chain": 32}), {}),
    ),
}


def _replay_with_oracle(monkeypatch, capacity, drain_mode, events, seeds, policy):
    expected = []
    admit = Mempool.admit

    def spy(pool, tx, world, policy_obj):
        before = pool.pending()
        outcome = admit(pool, tx, world, policy_obj)
        expected.append(transition_flags(before, pool.pending(), world))
        return outcome

    monkeypatch.setattr(Mempool, "admit", spy)
    config = ScenarioConfig(
        policy=PolicyConfig(kind=policy),
        capacity=capacity,
        account_seeds=seeds,
        drain_mode=drain_mode,
    )
    report = replay(config, events)
    arrivals = [i for i, e in enumerate(events) if e.kind == "tx_arrival"]
    return report, dict(zip(arrivals, expected))


@pytest.mark.parametrize("policy", ["baseline", "cp", "map"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_flags_match_list_scan_oracle(monkeypatch, case, policy):
    capacity, drain_mode, (events, seeds) = CASES[case]
    report, expected = _replay_with_oracle(monkeypatch, capacity, drain_mode, events, seeds, policy)
    recorded = dict(report.flags)
    assert set(recorded) <= set(expected)
    for index, flags in expected.items():
        assert recorded.get(index, OutcomeFlags()) == flags, f"event {index}"


def test_cases_exercise_both_flags():
    # the differential check is only as strong as the flags it sees
    seen = set()
    for capacity, drain_mode, (events, seeds) in CASES.values():
        for policy in ("baseline", "cp", "map"):
            config = ScenarioConfig(
                policy=PolicyConfig(kind=policy),
                capacity=capacity,
                account_seeds=seeds,
                drain_mode=drain_mode,
            )
            for _, flags in replay(config, events).flags:
                seen.add((flags.future_turn_pending, flags.pending_turn_future))
    assert any(ftp for ftp, _ in seen) and any(ptf for _, ptf in seen)
