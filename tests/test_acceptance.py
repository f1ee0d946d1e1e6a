"""End-to-end acceptance suite.

Each test asserts one numbered criterion and records a pass/fail line that
is printed in the terminal summary (see conftest.pytest_terminal_summary).
Tolerances are pinned in the assertions themselves; everything not marked
as a reported-only figure is exact integer arithmetic.
"""

import math
import random
import time

import pytest

from mempoolsim import (
    AttackPlan,
    Mempool,
    PolicyConfig,
    ScenarioConfig,
    Transaction,
    WorldState,
    XT6_DESK,
    XT6_FULL,
    arrival,
    attack_cost,
    bench,
    build_block,
    eviction_bound_baseline_under_xt6,
    eviction_bound_cp,
    gamma,
    gen_cp_lock,
    gen_random_adversary,
    replay,
    snapshot_marker,
    workload_batch_insert,
    world_for_trace,
)
from conftest import WEI, fill_pool, mdf, record_criterion, rich_world, tx
from oracles import PendingView, is_future

MIN_GAS = 21_000
CAPACITY_DESK = 192
CAPACITY_FULL = 5120

# replays shared with the dUtil conservation check (criterion 9)
_TELESCOPE_RUNS = []


def _check(number, passed, detail):
    record_criterion(number, bool(passed), detail)
    assert passed, f"criterion {number} failed: {detail}"


# ------------------------------------------------- criteria 1 and 2


@pytest.fixture(scope="module")
def adversarial_runs():
    """5 seeds x 2000 steps of randomized adversarial traffic vs the
    chain-safe policy at capacity 192, drained at the end."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(5):
        events = gen_random_adversary({"steps": 2000, "seed": seed})
        config = ScenarioConfig(policy=PolicyConfig(kind="cp"), capacity=CAPACITY_DESK)
        report = replay(config, events)
        runs.append(report)
        _TELESCOPE_RUNS.append(report)
    return runs, time.perf_counter() - t0


def test_criterion_1_monotonic_price_sum(adversarial_runs):
    runs, elapsed = adversarial_runs
    violations = 0
    checked = 0
    for report in runs:
        series = report.price_sum_series
        checked += len(series)
        violations += sum(1 for a, b in zip(series, series[1:]) if b < a)
    _check(
        1,
        violations == 0 and elapsed < 60.0,
        f"0 decreases over {checked} admissions (5 seeds x 2000 steps), {elapsed:.1f}s < 60s"
        if violations == 0
        else f"{violations} price-sum decreases",
    )


def test_criterion_2_eviction_bound(adversarial_runs):
    runs, _ = adversarial_runs
    violations = 0
    for report in runs:
        # the bound holds from any intermediate state st0; the strongest
        # instance is the maximal price sum reached during the run
        bound = MIN_GAS * max(report.price_sum_series)
        if report.block_fees_final < bound:
            violations += 1
    _check(
        2,
        violations == 0,
        f"drained fees >= 21000 x max price-sum in all {len(runs)} runs (exact integers)",
    )


# ------------------------------------------------- criteria 3 and 4


def _xt6_trace(params, capacity):
    """Benign full pool, a snapshot marker, then the four attack phases."""
    events = []
    for i in range(capacity):
        t = Transaction(
            sender=f"benign-{i}",
            nonce=0,
            price=50 + (i % 50),
            gas_used=300_000,
            gas_limit=300_000,
        )
        events.append(arrival(t, ts_ms=i))
    events.append(snapshot_marker(ts_ms=capacity))
    plan = AttackPlan(kind="xt6", params=params, delay_seconds=capacity / 1000 + 1)
    events.extend(plan.events())
    return events


class _KeyedPendingView(PendingView):
    """A fixed tx list keyed by (sender, nonce): ``get`` is one dict lookup."""

    def __init__(self, txs):
        self._by_key = {(t.sender, t.nonce): t for t in txs}

    def get(self, sender, nonce):
        return self._by_key.get((sender, nonce))

    def sender_txs(self, sender):
        return [t for t in self._by_key.values() if t.sender == sender]


def _non_future_pending(report, events):
    world = world_for_trace(events)
    view = _KeyedPendingView(report.final_pending)
    return [t for t in report.final_pending if not is_future(t, view, world)]


def _run_xt6_baseline(params, capacity):
    events = _xt6_trace(params, capacity)
    cfg = lambda drain: ScenarioConfig(
        policy=PolicyConfig(kind="baseline"), capacity=capacity, final_drain=drain
    )
    standing = replay(cfg(False), events)
    drained = replay(cfg(True), events)
    _TELESCOPE_RUNS.extend((standing, drained))
    non_future = _non_future_pending(standing, events)
    cost = attack_cost(drained.included_txs(), drained.final_pending)
    one_tx_fee = max(
        e.tx.fee for e in events if e.kind == "tx_arrival" and e.tx.label == "adversarial"
    )
    pre_attack_fees = standing.snapshots[0].fee_sum
    return standing, drained, non_future, cost, one_tx_fee, pre_attack_fees


def test_criterion_3_xt6_baseline_desk():
    standing, drained, non_future, cost, one_tx_fee, pre_fees = _run_xt6_baseline(
        XT6_DESK, CAPACITY_DESK
    )
    collapse = drained.block_fees_final / pre_fees
    _check(
        3,
        len(non_future) <= 1 and cost.fees_charged <= 2 * one_tx_fee,
        f"{len(non_future)} non-future pending (<=1), fees_charged {cost.fees_charged} <= "
        f"2x one tx fee {one_tx_fee}; post/pre fee ratio {collapse:.2e}",
    )
    # the qualitative fee collapse behind the criterion
    assert collapse < 1e-3


@pytest.mark.skipif(
    "not config.getoption('--full')",
    reason="full-scale profile (capacity 5120); enable with --full",
)
def test_criterion_3_xt6_baseline_full():
    t0 = time.perf_counter()
    _, _, non_future, cost, one_tx_fee, _ = _run_xt6_baseline(XT6_FULL, CAPACITY_FULL)
    elapsed = time.perf_counter() - t0
    _check(
        3,
        len(non_future) <= 1 and cost.fees_charged <= 2 * one_tx_fee and elapsed < 600,
        f"full scale: {len(non_future)} non-future pending, fees_charged "
        f"{cost.fees_charged} <= {2 * one_tx_fee}, {elapsed:.1f}s < 600s",
    )


def test_criterion_4_xt6_cp_price_sum():
    events = _xt6_trace(XT6_DESK, CAPACITY_DESK)
    config = ScenarioConfig(
        policy=PolicyConfig(kind="cp"), capacity=CAPACITY_DESK, final_drain=False
    )
    report = replay(config, events)
    _TELESCOPE_RUNS.append(report)
    pre_attack = report.snapshots[0].price_sum
    final = report.price_sum_series[-1]
    _check(
        4,
        final >= pre_attack,
        f"final price sum {final} >= pre-attack {pre_attack} under cp",
    )


# ------------------------------------------------- criterion 5


def test_criterion_5_bound_separation():
    rng = random.Random(55)
    ratios = []
    for _ in range(20):
        world = WorldState()
        pending = []
        for i in range(CAPACITY_DESK):
            price = max(1, int(math.exp(rng.uniform(0.0, math.log(10_000)))))
            pending.append(tx(f"s{i}", 0, price))
        cp = eviction_bound_cp(pending)
        base = eviction_bound_baseline_under_xt6(pending, world)
        prices = [t.price for t in pending]
        assert cp.bound_wei == MIN_GAS * sum(prices)
        assert cp.bound_wei >= MIN_GAS * len(pending) * min(prices)
        assert base.bound_wei == max(prices) * 30_000_000
        ratios.append(cp.bound_wei / base.bound_wei)
    _check(
        5,
        True,
        f"formulas exact on 20 snapshots; cp/baseline ratio "
        f"mean {sum(ratios) / len(ratios):.4f} (reported, not asserted)",
    )


# ------------------------------------------------- criterion 6


def test_criterion_6_cp_locking_counterexample():
    n = 64
    events = gen_cp_lock({"chain_len": n, "high_price": 10_000})
    world = world_for_trace(events)
    world.fund("probe", WEI)
    pool = Mempool(capacity=n)
    policy = PolicyConfig(kind="cp").build()
    for event in events:
        assert pool.admit(event.tx, world, policy).admitted
    declined_probe = pool.admit(tx("probe", 0, 10_000), world, policy)
    admitted_probe = pool.admit(tx("probe", 0, 10_001), world, policy)
    benign_declined = [t for t, _ in pool.declined if t.label == "benign"]
    ratio = max(t.price for t in benign_declined) / min(t.price for t in pool.pending())
    _check(
        6,
        (not declined_probe.admitted) and admitted_probe.admitted and ratio >= 10_000,
        f"probe 10000 declined, 10001 admitted, declined/pending price ratio {ratio:.0f} >= 10000",
    )


# ------------------------------------------------- criterion 7


def test_criterion_7_order_insensitivity():
    rng = random.Random(7_000)
    policy = PolicyConfig(kind="map").build()
    world = rich_world(*(f"s{i}" for i in range(4)), "xa", "xb")
    cases = 0
    held = 0
    violations = 0
    while cases < 10_000:
        base = Mempool(capacity=6)
        txs = []
        sender_idx = 0
        while len(txs) < 6:
            chain = rng.randint(1, 3)
            sender = f"s{sender_idx}"
            sender_idx += 1
            for nonce in range(min(chain, 6 - len(txs))):
                txs.append(tx(sender, nonce, rng.randint(1, 20)))
        fill_pool(base, world, txs)
        mdf0 = mdf(base)
        for _ in range(25):
            cases += 1
            tx_a = tx("xa", 0, rng.randint(1, 25))
            tx_b = tx("xb", 0, rng.randint(1, 25))
            ab = base.clone()
            ab.admit(tx_a, world, policy)
            mdf_a = mdf(ab)
            ab.admit(tx_b, world, policy)
            ba = base.clone()
            ba.admit(tx_b, world, policy)
            mdf_b = mdf(ba)
            ba.admit(tx_a, world, policy)
            if not (mdf_a == mdf0 == mdf_b):
                continue
            held += 1
            key = lambda p: {(t.sender, t.nonce, t.price, t.gas_used) for t in p.pending()}
            if key(ab) != key(ba):
                violations += 1
    _check(
        7,
        violations == 0 and held > 0,
        f"{cases} generated cases, precondition held in {held}, 0 order-dependent end states",
    )


# ------------------------------------------------- criterion 8


def test_criterion_8_builder_scenarios():
    def a2a(limit):
        world = WorldState(block_gas_limit=limit)
        for s in ("u1", "u2", "u3"):
            world.fund(s, WEI)
        tx1 = Transaction(sender="u1", nonce=0, price=10, gas_used=21_000)
        tx2 = Transaction(
            sender="u2", nonce=0, price=8, gas_used=29_999_999, gas_limit=29_999_999
        )
        tx3 = Transaction(sender="u3", nonce=0, price=5, gas_used=21_000)
        pool = Mempool(capacity=3)
        fill_pool(pool, world, [tx1, tx2, tx3])
        included = {t.sender for t in build_block(pool, world).block.txs}
        return included

    tc1 = a2a(30_000_000)
    tc2 = a2a(30_000_000 + 42_000)

    def a2b(first_price):
        world = WorldState(block_gas_limit=30_000_000)
        world.fund("u1", WEI)
        world.fund("u2", WEI)
        tx1 = Transaction(
            sender="u1", nonce=0, price=first_price, gas_used=29_999_999, gas_limit=29_999_999
        )
        tx2 = Transaction(sender="u2", nonce=0, price=5, gas_used=50_000, gas_limit=50_000)

        def gas_fn(t, preceding):
            if t == tx1 and any(p == tx2 for p in preceding):
                return 2_200
            return t.gas_used

        pool = Mempool(capacity=2)
        fill_pool(pool, world, [tx1, tx2])
        return {t.sender for t in build_block(pool, world, gas_fn=gas_fn).block.txs}

    first_order = a2b(first_price=9)  # dependent tx placed first: partner overflows
    second_order = a2b(first_price=3)  # partner first: dependent tx's gas collapses
    ok = (
        tc1 == {"u1", "u3"}
        and tc2 == {"u1", "u2", "u3"}
        and first_order == {"u1"}
        and second_order == {"u1", "u2"}
    )
    _check(
        8,
        ok,
        "TC1 {Tx1,Tx3}, TC2 all three, order-dependent inclusion for the "
        "context-gas pair (exact sets)",
    )


# ------------------------------------------------- criterion 9


def test_criterion_9_dutil_conservation(adversarial_runs):
    adversarial_runs  # ensure criteria 1-2 replays are present
    assert len(_TELESCOPE_RUNS) >= 5
    for report in _TELESCOPE_RUNS:
        expected = (
            report.pool_fees_final + report.block_fees_final - report.declined_fees_final
        )
        assert report.util.total.dutil == expected
    _check(
        9,
        True,
        f"telescoping identity exact on all {len(_TELESCOPE_RUNS)} replays from criteria 1-4",
    )


# ------------------------------------------------- criterion 10


def test_criterion_10_gamma_oracle_equivalence():
    rng = random.Random(1010)
    trials = 100
    for _ in range(trials):
        pending = []
        sender = 0
        while len(pending) < 1000:
            chain = rng.randint(1, 4)
            for nonce in range(min(chain, 1000 - len(pending))):
                pending.append(tx(f"g{sender}", nonce, rng.randint(1, 10_000)))
            sender += 1
        # O(n^2) brute force: per tx, scan the whole snapshot for its sender min
        oracle = {}
        for t in pending:
            lowest = min(u.price for u in pending if u.sender == t.sender)
            g = t.price / lowest - 1
            if t.sender not in oracle or g > oracle[t.sender]:
                oracle[t.sender] = g
        assert gamma(pending).per_sender == oracle
    _check(10, True, f"{trials} trials of 1000-tx snapshots equal the O(n^2) oracle exactly")


# ------------------------------------------------- criterion 11


def test_criterion_11_performance_sanity():
    events = workload_batch_insert(10_000)
    means = {}
    for kind in ("baseline", "cp"):
        config = ScenarioConfig(policy=PolicyConfig(kind=kind), capacity=CAPACITY_FULL)
        means[kind] = bench(config, events, rounds=3, workload="batch_insert").mean_s
    ratio = means["cp"] / means["baseline"]
    _check(
        11,
        ratio <= 1.5 and max(means.values()) < 5.0,
        f"cp/baseline time ratio {ratio:.3f} <= 1.5; "
        f"baseline {means['baseline']:.3f}s, cp {means['cp']:.3f}s (< 5s each)",
    )
