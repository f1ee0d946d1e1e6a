import random

import pytest

import oracles
from mempoolsim import (
    Mempool,
    PolicyConfig,
    Reason,
    Transaction,
    WorldState,
    build_block,
    candidate_order,
    drain,
)
from mempoolsim.core import MIN_TX_GAS

from conftest import WEI, fill_pool, rich_world, tx

GAS_LIMIT_30M = 30_000_000


def _pool(txs, capacity=None, world=None):
    pool = Mempool(capacity=capacity or max(len(txs), 1))
    world = world or rich_world(*{t.sender for t in txs})
    fill_pool(pool, world, txs)
    return pool, world


class TestCandidateOrder:
    def test_price_descending(self):
        pool, _ = _pool([tx("A", 0, 5), tx("B", 0, 9)])
        assert [t.sender for t in candidate_order(pool)] == ["B", "A"]

    def test_nonce_constraint_dominates_price(self):
        pool, _ = _pool([tx("A", 0, 1), tx("A", 1, 9)])
        assert [t.nonce for t in candidate_order(pool)] == [0, 1]

    def test_empty_pool(self):
        assert list(candidate_order(Mempool(capacity=1))) == []

    def test_ancestors_promoted_as_a_group(self):
        pool, _ = _pool([tx("A", 0, 2), tx("A", 1, 9), tx("B", 0, 5)])
        order = [(t.sender, t.nonce) for t in candidate_order(pool)]
        # A1 at price 9 ranks first and pulls A0 ahead of B despite A0's price 2
        assert order == [("A", 0), ("A", 1), ("B", 0)]

    def test_never_places_descendant_before_ancestor(self):
        import random

        from conftest import random_pool_txs

        rng = random.Random(21)
        txs = random_pool_txs(rng, n_senders=6, max_chain=4)
        pool, _ = _pool(txs)
        seen = {}
        for t in candidate_order(pool):
            assert seen.get(t.sender, -1) < t.nonce
            seen[t.sender] = t.nonce


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_candidate_order_matches_oracle(policy_kind, seed):
    # random pools whose admission order differs from (sender, nonce) order:
    # evicted (sender, nonce) pairs are sent again and re-admitted
    rng = random.Random(seed)
    world = WorldState(block_gas_limit=3 * 60_000)
    senders = [f"c{i}" for i in range(5)]
    for s in senders:
        world.fund(s, WEI)
    pool = Mempool(capacity=12)
    policy = PolicyConfig(kind=policy_kind).build()
    admitted_at = {}  # tx -> admission order, counted here
    evicted = set()  # (sender, nonce) of evicted txs
    readmitted = 0
    for step in range(300):
        roll = rng.random()
        if roll < 0.04:
            build_block(pool, world)
        else:
            resend = sorted(
                (s, n) for s, n in evicted if n >= world.nonce_of(s) and pool.get(s, n) is None
            )
            if resend and roll < 0.29:
                # priced up, as a re-sent tx would be, so it can win its slot back
                sender, nonce = rng.choice(resend)
                price = rng.randint(150, 450)
            else:
                sender = rng.choice(senders)
                top = world.nonce_of(sender) + len(pool.chain(sender))
                nonce = rng.randint(world.nonce_of(sender), top + 1)
                price = rng.randint(1, 300)
            t = tx(sender, nonce, price, gas=rng.choice((21_000, 60_000)))
            outcome = pool.admit(t, world, policy)
            if outcome.admitted:
                admitted_at[t] = len(admitted_at)
                readmitted += (sender, nonce) in evicted
            evicted.update((v.sender, v.nonce) for v in outcome.victims)
        expected = oracles.candidate_order(pool.pending(), admitted_at)
        assert list(candidate_order(pool)) == list(expected), step
    assert readmitted > 0


def _random_admit(rng, pool, world, policy, senders, admitted_at, gases):
    sender = rng.choice(senders)
    top = world.nonce_of(sender) + len(pool.chain(sender))
    nonce = rng.randint(world.nonce_of(sender), top + 1)
    t = tx(sender, nonce, rng.randint(1, 300), gas=rng.choice(gases))
    if pool.admit(t, world, policy).admitted:
        admitted_at[t] = len(admitted_at)


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_early_stop_builds_what_a_full_walk_builds(policy_kind, seed):
    # mixed gas so a block fills part way through the order; limits from
    # below one minimum tx to room for a few dozen
    rng = random.Random(seed)
    world = WorldState()
    senders = [f"g{i}" for i in range(8)]
    for s in senders:
        world.fund(s, WEI)
    pool = Mempool(capacity=40)
    policy = PolicyConfig(kind=policy_kind).build()
    admitted_at = {}
    builds = mid_order_stops = 0
    for step in range(600):
        if rng.random() >= 0.1:
            _random_admit(
                rng, pool, world, policy, senders, admitted_at, (21_000, 50_000, 90_000, 200_000)
            )
            continue
        world.block_gas_limit = rng.choice((MIN_TX_GAS - 1, MIN_TX_GAS, 150_000, 400_000, 900_000))
        before = pool.pending()
        expected_world = world.clone()
        expected_txs, expected_skipped = oracles.build_block(before, admitted_at, expected_world)
        result = build_block(pool, world)
        builds += 1
        assert result.block.txs == expected_txs, step
        assert result.skipped == expected_skipped[: len(result.skipped)], step
        assert world.accounts == expected_world.accounts, step
        included = set(expected_txs)
        assert pool.pending() == [t for t in before if t not in included]
        if world.block_gas_limit < MIN_TX_GAS:
            assert result.block.txs == [] and result.skipped == []
        walked = len(result.block.txs) + len(result.skipped)
        mid_order_stops += 0 < len(result.block.txs) and walked < len(before)
    # the stop fired part way through a nonempty order, not only at the ends
    assert builds > 0 and mid_order_stops > 0


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
def test_gas_fn_below_min_tx_gas_keeps_the_full_walk(policy_kind):
    # a gas_fn that charges a third of the static gas lets more txs in than
    # static gas would; the builder must walk past the static stop point
    def gas_fn(t, preceding):
        return t.gas_used // 3

    rng = random.Random(7)
    world = WorldState(block_gas_limit=100_000)
    senders = [f"h{i}" for i in range(6)]
    for s in senders:
        world.fund(s, WEI)
    pool = Mempool(capacity=24)
    policy = PolicyConfig(kind=policy_kind).build()
    admitted_at = {}
    for _ in range(60):
        _random_admit(rng, pool, world, policy, senders, admitted_at, (21_000, 30_000))
    before = pool.pending()
    expected_world = world.clone()
    expected_txs, expected_skipped = oracles.build_block(
        before, admitted_at, expected_world, gas_fn
    )
    static_txs, _ = oracles.build_block(before, admitted_at, world.clone())
    result = build_block(pool, world, gas_fn=gas_fn)
    assert result.block.txs == expected_txs
    assert result.skipped == expected_skipped
    assert world.accounts == expected_world.accounts
    assert len(result.block.txs) > len(static_txs)
    assert len(result.block.txs) + len(result.skipped) == len(before)


def _a2a_pool(block_gas_limit):
    world = WorldState(block_gas_limit=block_gas_limit)
    world.fund("u1", WEI)
    world.fund("u2", WEI)
    world.fund("u3", WEI)
    tx1 = Transaction(sender="u1", nonce=0, price=10, gas_used=21_000)
    tx2 = Transaction(sender="u2", nonce=0, price=8, gas_used=29_999_999, gas_limit=29_999_999)
    tx3 = Transaction(sender="u3", nonce=0, price=5, gas_used=21_000)
    pool = Mempool(capacity=3)
    fill_pool(pool, world, [tx1, tx2, tx3])
    return pool, world, (tx1, tx2, tx3)


class TestSingleBlockScenarios:
    def test_tc1_overflow_is_skipped_not_fatal(self):
        # three candidates, the middle one alone nearly fills the 30M limit;
        # the builder skips it and still includes the cheaper third tx
        pool, world, (tx1, tx2, tx3) = _a2a_pool(GAS_LIMIT_30M)
        result = build_block(pool, world)
        assert result.block.txs == [tx1, tx3]
        assert result.skipped == [(tx2, "gas-overflow")]

    def test_tc2_raised_limit_includes_all(self):
        pool, world, (tx1, tx2, tx3) = _a2a_pool(GAS_LIMIT_30M + 42_000)
        result = build_block(pool, world)
        assert set(result.block.txs) == {tx1, tx2, tx3}
        assert [t.price for t in result.block.txs] == [10, 8, 5]
        assert result.skipped == []

    def test_empty_pool_builds_empty_block(self):
        result = build_block(Mempool(capacity=1), WorldState())
        assert result.block.txs == [] and result.block.revenue == 0

    def test_context_dependent_gas_order_differential(self):
        # a tx that costs 29,999,999 gas standalone but 2,200 gas when
        # another specific tx runs first: inclusion depends on block order
        def make():
            world = WorldState(block_gas_limit=GAS_LIMIT_30M)
            world.fund("u1", WEI)
            world.fund("u2", WEI)
            tx2 = Transaction(sender="u2", nonce=0, price=5, gas_used=50_000, gas_limit=50_000)
            return world, tx2

        def gas_fn_for(tx1, tx2):
            def gas_fn(t, preceding):
                if t == tx1 and any(p == tx2 for p in preceding):
                    return 2_200
                return t.gas_used

            return gas_fn

        # tx1 priced higher: builder tries it first, it fills the block alone
        world, tx2 = make()
        tx1 = Transaction(sender="u1", nonce=0, price=9, gas_used=29_999_999, gas_limit=29_999_999)
        pool = Mempool(capacity=2)
        fill_pool(pool, world, [tx1, tx2])
        result = build_block(pool, world, gas_fn=gas_fn_for(tx1, tx2))
        assert result.block.txs == [tx1]
        assert result.skipped == [(tx2, "gas-overflow")]

        # tx2 priced higher: it precedes tx1, whose gas collapses, so both fit
        world, tx2 = make()
        tx1 = Transaction(sender="u1", nonce=0, price=3, gas_used=29_999_999, gas_limit=29_999_999)
        pool = Mempool(capacity=2)
        fill_pool(pool, world, [tx1, tx2])
        result = build_block(pool, world, gas_fn=gas_fn_for(tx1, tx2))
        assert result.block.txs == [tx2, tx1]
        assert result.skipped == []

    def test_inclusion_advances_world(self):
        pool, world = _pool([tx("A", 0, 4, value=7)])
        before = world.balance_of("A")
        result = build_block(pool, world)
        assert len(pool) == 0
        assert world.nonce_of("A") == 1
        assert world.balance_of("A") == before - result.block.txs[0].fee - 7

    def test_every_pending_tx_accounted_for(self):
        pool, world, _ = _a2a_pool(GAS_LIMIT_30M)
        n = len(pool)
        result = build_block(pool, world)
        assert len(result.block.txs) + len(result.skipped) == n


class TestDrain:
    def test_single_block_fits(self):
        pool, world = _pool([tx("A", 0, 3), tx("B", 0, 2)])
        blocks = drain(pool, world)
        assert len(blocks) == 1 and len(pool) == 0
        assert sum(b.revenue for b in blocks) == 21_000 * 5

    def test_overfull_pool_takes_two_blocks(self):
        txs = [tx(f"s{i}", 0, 2, gas=10_000_000, gas_limit=10_000_000) for i in range(4)]
        pool, world = _pool(txs)
        blocks = drain(pool, world)
        assert [len(b.txs) for b in blocks] == [3, 1]
        assert sum(b.revenue for b in blocks) == sum(t.fee for t in txs)

    def test_permanent_nonce_gap_becomes_unbuildable(self):
        # world nonce jumps past a pending tx between admission and drain,
        # stranding the rest of the chain
        pool, world = _pool([tx("A", 0, 3), tx("A", 1, 3)])
        world.account("A").nonce = 5
        blocks = drain(pool, world)
        assert blocks == [] and len(pool) == 0
        assert {r for _, r in pool.declined} == {Reason.UNBUILDABLE}

    def test_terminates_on_oversized_tx(self):
        t = Transaction(sender="A", nonce=0, price=1, gas_used=40_000_000, gas_limit=40_000_000)
        world = WorldState(block_gas_limit=GAS_LIMIT_30M)
        world.fund("A", WEI)
        pool = Mempool(capacity=1)
        fill_pool(pool, world, [t])
        blocks = drain(pool, world)
        assert blocks == [] and sum(b.revenue for b in blocks) == 0
        assert pool.declined[-1] == (t, Reason.UNBUILDABLE)
