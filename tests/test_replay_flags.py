"""Differential check of the future<->pending flags a replay's report
derives.

Around every ``admit`` the pool is snapshotted, and the flags the report
derives for that arrival must equal ``oracles.transition_flags`` over the
two snapshots: a list-scan oracle that shares no code with the report's
walk over its outcomes.
"""

import random

import pytest

from mempoolsim import (
    AdmissionOutcome,
    AttackPlan,
    Mempool,
    PolicyConfig,
    Reason,
    RunReport,
    ScenarioConfig,
    Transaction,
    arrival,
    block_trigger,
    gen_xt6,
    replay,
    snapshot_marker,
)
from mempoolsim.metrics import OutcomeFlags

from oracles import replay_per_event, transition_flags


def _random_adversary(seed):
    events, seeds = AttackPlan("random_adversary", {"steps": 400, "seed": seed}).generate()
    return _with_blocks(events, 60), seeds


def _resends(seed, span=3, steps=300):
    """Few senders that re-send nonces at random prices, each up to ``span``
    below the sender's highest nonce: under ``baseline`` a re-sent parent
    refills the gap an eviction left, so residents turn future and back."""
    rng = random.Random(seed)
    senders = [f"r{i}" for i in range(6)]
    top = dict.fromkeys(senders, 0)
    events = []
    for step in range(steps):
        sender = rng.choice(senders)
        nonce = rng.randint(max(0, top[sender] - span), top[sender])
        top[sender] = max(top[sender], nonce + 1)
        t = Transaction(sender=sender, nonce=nonce, price=rng.randint(1, 500))
        events.append(arrival(t, ts_ms=step))
    return _with_blocks(events, 50), {s: (10**18, 0) for s in senders}


def _refill_above_gap():
    """Capacity 5 under ``baseline``: B:0 evicts A:2, so A:3 and A:4 turn
    future; the re-sent A:2 then evicts A:3, which lay above the gap and
    was future already, so no resident flips."""
    prices = (50, 50, 5, 10, 50)
    txs = [Transaction(sender="A", nonce=n, price=p) for n, p in enumerate(prices)]
    txs += [Transaction(sender="B", nonce=0, price=11), Transaction(sender="A", nonce=2, price=60)]
    events = [arrival(t, ts_ms=step) for step, t in enumerate(txs)]
    return events, {s: (10**18, 0) for s in "AB"}


def _own_gap_below():
    """Capacity 6 under ``baseline``: C:0 evicts A:3, so A:4 turns future;
    the re-sent A:3 fills that gap but evicts A:1 below it, so A:2 turns
    future and A:4, which now sits at the arrival's ``nonce + 1``, stays
    future behind the new gap."""
    prices = (50, 6, 50, 5, 50)
    txs = [Transaction(sender="A", nonce=n, price=p) for n, p in enumerate(prices)]
    txs += [
        Transaction(sender="B", nonce=0, price=50),
        Transaction(sender="C", nonce=0, price=7),
        Transaction(sender="A", nonce=3, price=60),
    ]
    events = [arrival(t, ts_ms=step) for step, t in enumerate(txs)]
    return events, {s: (10**18, 0) for s in "ABC"}


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
    # small pools: capacities 3-16, re-send spans 1-5
    **{
        f"sweep_s{seed}": (3 + seed % 14, "interleaved", _resends(100 + seed, 1 + seed % 5, 200))
        for seed in range(24)
    },
    "refill_above_gap": (5, "end_only", _refill_above_gap()),
    "own_gap_below": (6, "end_only", _own_gap_below()),
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


def test_refill_above_gap_flags_only_the_first_eviction():
    capacity, drain_mode, (events, seeds) = CASES["refill_above_gap"]
    config = ScenarioConfig(
        policy=PolicyConfig(kind="baseline"), capacity=capacity, account_seeds=seeds
    )
    report = replay(config, events)
    evictions = [
        ((t.sender, t.nonce), (o.victim.sender, o.victim.nonce))
        for o, t in zip(report.outcomes[5:], report.arrivals[5:], strict=True)
    ]
    assert evictions == [(("B", 0), ("A", 2)), (("A", 2), ("A", 3))]
    assert report.flags == [(5, OutcomeFlags(False, True))]


def test_an_own_victim_below_the_filled_gap_turns_nothing_pending():
    capacity, drain_mode, (events, seeds) = CASES["own_gap_below"]
    config = ScenarioConfig(
        policy=PolicyConfig(kind="baseline"), capacity=capacity, account_seeds=seeds
    )
    report = replay(config, events)
    evictions = [
        ((t.sender, t.nonce), (o.victim.sender, o.victim.nonce))
        for o, t in zip(report.outcomes[6:], report.arrivals[6:], strict=True)
    ]
    assert evictions == [(("C", 0), ("A", 3)), (("A", 3), ("A", 1))]
    assert report.flags == [(6, OutcomeFlags(False, True)), (7, OutcomeFlags(False, True))]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="cp may pick the arrival's own parent (its sender's childless tail) as victim",
)
def test_cp_never_evicts_the_arrivals_own_sender():
    # known at resend_s0 event 38 (r5:3 evicts r5:2) and resend_s1 event 95;
    # map declines the same case as self-eviction
    own = []
    for case in ("resend_s0", "resend_s1"):
        capacity, drain_mode, (events, seeds) = CASES[case]
        config = ScenarioConfig(
            policy=PolicyConfig(kind="cp"),
            capacity=capacity,
            account_seeds=seeds,
            drain_mode=drain_mode,
        )
        report = replay(config, events)
        for outcome, arrival in zip(report.outcomes, report.arrivals, strict=True):
            victim = outcome.victim
            if victim is not None and victim.sender == arrival.sender:
                own.append((case, arrival, victim))
    assert own == []


def test_cases_exercise_both_flags():
    # the differential check is only as strong as the flags it sees. A
    # flagged free-slot admission is one below its chain's tail
    seen = set()
    free_slot_flagged = 0  # case and policy pairs with one
    for capacity, drain_mode, (events, seeds) in CASES.values():
        arrivals = [i for i, event in enumerate(events) if event.kind == "tx_arrival"]
        for policy in ("baseline", "cp", "map"):
            config = ScenarioConfig(
                policy=PolicyConfig(kind=policy),
                capacity=capacity,
                account_seeds=seeds,
                drain_mode=drain_mode,
            )
            report = replay(config, events)
            reason_at = {i: o.reason for i, o in zip(arrivals, report.outcomes, strict=True)}
            for index, flags in report.flags:
                seen.add((flags.future_turn_pending, flags.pending_turn_future))
            free_slot_flagged += any(
                reason_at[index] is Reason.POOL_NOT_FULL for index, _ in report.flags
            )
    assert any(ftp for ftp, _ in seen) and any(ptf for _, ptf in seen)
    assert free_slot_flagged


# The walk places each arrival at its event index from the recorded snapshot
# markers and triggers, and applies each interleaved block at its trigger;
# each case below also checks it against ``replay_per_event``'s flags, which
# the per-event loop keys by the index it is at.


def _flags_of(events, seeds, capacity, drain_mode, **kw):
    config = ScenarioConfig(
        policy=PolicyConfig(kind="baseline"),
        capacity=capacity,
        account_seeds=seeds,
        drain_mode=drain_mode,
        **kw,
    )
    report = replay(config, events)
    assert report.flags == replay_per_event(config, events)[4]
    return report


@pytest.mark.parametrize("drain_mode", ["end_only", "interleaved"])
def test_a_trace_may_begin_with_a_trigger_and_a_marker(drain_mode):
    events, seeds = _own_gap_below()
    events = [block_trigger(0), snapshot_marker(0), *events]
    report = _flags_of(events, seeds, 6, drain_mode)
    assert report.triggers == [0]
    assert report.flags == [(8, OutcomeFlags(False, True)), (9, OutcomeFlags(False, True))]


def _two_blocks_then_an_orphan():
    """A:0-2, then two triggers whose one-tx blocks (gas limit 21000)
    include A:0 and A:1, so A's confirmed nonce is 2; A:3, B:0 and C:0
    fill the 4-slot pool, and D:0 evicts A:2, the cheapest, orphaning A:3."""
    txs = [Transaction(sender="A", nonce=n, price=p) for n, p in enumerate((50, 50, 5))]
    events = [arrival(t, ts_ms=0) for t in txs]
    events += [block_trigger(1), block_trigger(1)]
    txs = [Transaction("A", 3, 50), Transaction("B", 0, 50), Transaction("C", 0, 50)]
    events += [arrival(t, ts_ms=2) for t in txs + [Transaction("D", 0, 10)]]
    return events, {s: (10**18, 0) for s in "ABCD"}


def test_two_triggers_in_a_row_each_apply_their_block():
    events, seeds = _two_blocks_then_an_orphan()
    report = _flags_of(events, seeds, 4, "interleaved", block_gas_limit=21_000)
    assert report.triggers == [3, 4]
    assert [[(t.sender, t.nonce) for t in b.txs] for b in report.blocks[:2]] == [
        [("A", 0)],
        [("A", 1)],
    ]
    victim = report.outcomes[-1].victim
    assert (victim.sender, victim.nonce) == ("A", 2)
    assert report.flags == [(8, OutcomeFlags(False, True))]


def test_end_only_triggers_build_nothing_but_shift_the_index():
    events, seeds = _own_gap_below()
    events = events[:6] + [block_trigger(5)] * 3 + events[6:]
    report = _flags_of(events, seeds, 6, "end_only", final_drain=False)
    assert (report.triggers, report.blocks) == ([6, 7, 8], [])
    assert report.flags == [(9, OutcomeFlags(False, True)), (10, OutcomeFlags(False, True))]


@pytest.mark.parametrize("drain_mode", ["end_only", "interleaved"])
def test_a_trace_without_arrivals_has_no_flags(drain_mode):
    events = [block_trigger(0), snapshot_marker(0), block_trigger(1)]
    report = _flags_of(events, {}, 4, drain_mode)
    assert report.triggers == [0, 2]
    assert (report.flags, report.util.flagged) == ([], {})
    assert report.pending_sets() == [[], []]


def test_a_hand_built_report_without_triggers_has_no_flags():
    assert RunReport(policy="baseline", capacity=4).flags == []
    # free-slot admissions at their chains' tails turn no resident
    report = RunReport(policy="baseline", capacity=4)
    report.arrivals = [Transaction("A", 0, 5), Transaction("A", 1, 5), Transaction("B", 0, 5)]
    report.outcomes = [AdmissionOutcome(Reason.POOL_NOT_FULL)] * 3
    assert (report.flags, report.util.flagged) == ([], {})


def test_a_victim_above_a_gap_orphans_nothing():
    # capacity 5: C:0 evicts A:1, orphaning A:2 and A:3; D:0 then evicts A:2,
    # which lies above that gap, so its child A:3 was future already, even
    # though A's residents below A:2 begin at the confirmed nonce
    prices = (50, 6, 7, 50)
    txs = [Transaction(sender="A", nonce=n, price=p) for n, p in enumerate(prices)]
    txs += [Transaction("B", 0, 50), Transaction("C", 0, 10), Transaction("D", 0, 10)]
    events = [arrival(t, ts_ms=step) for step, t in enumerate(txs)]
    report = _flags_of(events, {s: (10**18, 0) for s in "ABCD"}, 5, "end_only")
    assert [(o.victim.sender, o.victim.nonce) for o in report.outcomes[5:]] == [("A", 1), ("A", 2)]
    assert report.flags == [(5, OutcomeFlags(False, True))]
