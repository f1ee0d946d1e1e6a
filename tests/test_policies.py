import random

import pytest

from mempoolsim import (
    Mempool,
    OutcomeKind,
    PolicyConfig,
    Reason,
    WorldState,
)

from conftest import WEI, fill_pool, mdf, oracle_min_fee, random_pool_txs, rich_world, tx
from oracles import is_future


def _policy(kind):
    return PolicyConfig(kind=kind).build()


class TestBaseline:
    def test_full_pool_higher_price_evicts_global_min(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B", "C")
        fill_pool(pool, world, [tx("A", 0, 5), tx("B", 0, 9)])
        decision = _policy("baseline").decide(pool, tx("C", 0, 6))
        assert decision.admitted
        assert [v.sender for v in decision.victims] == ["A"]

    def test_equal_price_declined(self):
        pool = Mempool(capacity=1)
        fill_pool(pool, rich_world("A"), [tx("A", 0, 5)])
        decision = _policy("baseline").decide(pool, tx("B", 0, 5))
        assert not decision.admitted and decision.reason is Reason.PRICE_TOO_LOW

    def test_free_slot_admits_without_victims(self):
        pool = Mempool(capacity=2)
        fill_pool(pool, rich_world("A"), [tx("A", 0, 5)])
        decision = _policy("baseline").decide(pool, tx("B", 0, 1))
        assert decision.admitted and decision.victims == ()

    def test_can_orphan_children(self):
        # evicting a parent leaves its child future: the intentional flaw
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        fill_pool(pool, world, [tx("A", 0, 1), tx("A", 1, 9)])
        outcome = pool.admit(tx("B", 0, 2), world, _policy("baseline"))
        assert outcome.admitted
        orphan = pool.get("A", 1)
        assert orphan is not None and is_future(orphan, pool, world)


class TestChildlessPrice:
    def test_declines_when_only_parent_is_cheaper(self):
        # global min price 1 sits on a parent; childless min is 3; a price-2
        # arrival is declined by cp but admitted by baseline
        def build():
            pool = Mempool(capacity=3)
            world = rich_world("A", "B")
            fill_pool(pool, world, [tx("A", 0, 1), tx("A", 1, 3), tx("B", 0, 4)])
            return pool

        probe = tx("C", 0, 2)
        cp = _policy("cp").decide(build(), probe)
        assert not cp.admitted and cp.reason is Reason.PRICE_TOO_LOW
        base = _policy("baseline").decide(build(), probe)
        assert base.admitted and base.victims[0].price == 1

    def test_admits_above_childless_min(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        fill_pool(pool, world, [tx("A", 0, 1), tx("A", 1, 3)])
        decision = _policy("cp").decide(pool, tx("B", 0, 4))
        assert decision.admitted
        assert len(decision.victims) == 1
        assert decision.victims[0] == pool.get("A", 1)

    def test_empty_pool_admits(self):
        decision = _policy("cp").decide(Mempool(capacity=4), tx("A", 0, 1))
        assert decision.admitted and decision.victims == ()

    def test_single_childless_victim_fuzz(self):
        rng = random.Random(11)
        for trial in range(50):
            txs = random_pool_txs(rng, n_senders=4, max_chain=3, price_range=(1, 30))
            pool = Mempool(capacity=len(txs))
            fill_pool(pool, rich_world(*{t.sender for t in txs}), txs)
            decision = _policy("cp").decide(pool, tx("fresh", 0, rng.randint(1, 40)))
            if not decision.admitted:
                continue
            assert len(decision.victims) == 1
            victim = decision.victims[0]
            assert victim in pool.find_childless()
            assert victim.price == min(t.price for t in pool.find_childless())


class TestMinFeeChainTail:
    def test_victim_is_chain_tail_of_min_fee_sender(self):
        pool = Mempool(capacity=4)
        world = rich_world("A", "B")
        txs = [
            tx("A", 0, 1),  # mdf seed: fee 21000
            tx("A", 1, 7),
            tx("A", 2, 7),
            tx("B", 0, 5),
        ]
        fill_pool(pool, world, txs)
        assert mdf(pool) == 21_000
        decision = _policy("map").decide(pool, tx("C", 0, 2))
        assert decision.admitted
        assert decision.victims == (pool.get("A", 2),)

    def test_fee_equal_to_mdf_declined(self):
        pool = Mempool(capacity=1)
        fill_pool(pool, rich_world("A"), [tx("A", 0, 3)])
        decision = _policy("map").decide(pool, tx("B", 0, 3))
        assert not decision.admitted and decision.reason is Reason.FEE_TOO_LOW

    def test_childless_min_fee_is_its_own_victim(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        fill_pool(pool, world, [tx("A", 0, 1), tx("B", 0, 9)])
        decision = _policy("map").decide(pool, tx("C", 0, 2))
        assert decision.victims == (pool.get("A", 0),)

    def test_self_eviction_declined(self):
        # the arrival's own chain tail is the designated victim: decline
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        fill_pool(pool, world, [tx("A", 0, 1), tx("B", 0, 9)])
        decision = _policy("map").decide(pool, tx("A", 1, 5))
        assert not decision.admitted and decision.reason is Reason.SELF_EVICTION

    def test_mdf_matches_brute_force(self):
        rng = random.Random(4)
        txs = random_pool_txs(rng, n_senders=10, max_chain=4)
        pool = Mempool(capacity=len(txs))
        fill_pool(pool, rich_world(*{t.sender for t in txs}), txs)
        assert mdf(pool) == oracle_min_fee(pool.pending()).fee

    def test_mdf_empty_pool_errors(self):
        with pytest.raises(ValueError):
            mdf(Mempool(capacity=1))


class TestCpMonotonePriceSum:
    def test_random_traffic_never_decreases_price_sum(self):
        rng = random.Random(99)
        pool = Mempool(capacity=16)
        world = WorldState()
        policy = _policy("cp")
        prev = 0
        for step in range(600):
            sender = f"s{rng.randint(0, 30)}"
            if sender not in world.accounts:
                world.fund(sender, WEI)
            chain = pool.chain(sender).txs
            base = max((t.nonce for t in chain), default=world.nonce_of(sender) - 1)
            nonce = base + rng.choice((1, 1, 1, 2, 0))
            pool.admit(tx(sender, max(nonce, 0), rng.randint(1, 200)), world, policy)
            cur = pool.price_sum()
            assert cur >= prev
            prev = cur


def test_cp_locking_counterexample():
    # one sender parks n-1 chained txs at price 1 behind a single childless
    # tx at price 10000; cp then declines every arrival priced <= 10000
    n = 32
    pool = Mempool(capacity=n)
    world = rich_world("locker", "probe")
    txs = [tx("locker", i, 1) for i in range(n - 1)] + [tx("locker", n - 1, 10_000)]
    fill_pool(pool, world, txs)
    policy = _policy("cp")
    for price in (1, 2, 100, 9_999, 10_000):
        decision = policy.decide(pool, tx("probe", 0, price))
        assert not decision.admitted and decision.reason is Reason.PRICE_TOO_LOW
    winning = policy.decide(pool, tx("probe", 0, 10_001))
    assert winning.admitted


@pytest.mark.parametrize("kind", ["baseline", "cp", "map"])
def test_admit_returns_the_outcome_decide_returned(kind):
    rng = random.Random(5)
    pool = Mempool(capacity=6)
    world = WorldState()
    policy = _policy(kind)
    decided = []
    decide = policy.decide
    policy.decide = lambda p, t: decided.append(decide(p, t)) or decided[-1]
    seen = set()
    for step in range(300):
        sender = f"s{rng.randint(0, 9)}"
        if sender not in world.accounts:
            world.fund(sender, WEI)
        nonce = world.nonce_of(sender) + len(pool.chain(sender)) + rng.choice((0, 0, 0, 1))
        t = tx(sender, nonce, rng.randint(1, 200))
        asked = len(decided)
        outcome = pool.admit(t, world, policy)
        assert outcome.tx is t
        if len(decided) > asked:
            assert outcome is decided[-1]
        else:  # the precheck declined (the pool is unchanged), the policy was not asked
            assert outcome.reason is pool.precheck(t, world) is not None
        expected_reason = {
            OutcomeKind.ADMITTED_NO_EVICT: Reason.POOL_NOT_FULL,
            OutcomeKind.ADMITTED_EVICTING: Reason.EVICTION,
        }.get(outcome.kind)
        assert expected_reason in (None, outcome.reason)
        assert bool(outcome.victims) == (outcome.kind is OutcomeKind.ADMITTED_EVICTING)
        if not outcome.admitted:
            assert pool.declined[-1] == (t, outcome.reason)
        seen.add(outcome.kind)
    assert seen == set(OutcomeKind)


def test_config_defaults_and_unknown_kind():
    assert PolicyConfig().kind == "cp"
    with pytest.raises(ValueError):
        PolicyConfig(kind="lru").build()
