import random

import pytest

from mempoolsim import (
    AdmissionOutcome,
    Mempool,
    PolicyConfig,
    PoolError,
    Reason,
    WorldState,
)
from mempoolsim.core import _OUTCOMES

from conftest import WEI, fill_pool, fund, mdf, oracle_min_fee, random_pool_txs, rich_world, tx
from oracles import ListPendingView, find_childless, is_future


def _policy(kind):
    return PolicyConfig(kind=kind).build()


def _recording(kind):
    """A ``kind`` policy whose ``decide`` appends each outcome it returns to
    the list returned beside it."""
    policy = _policy(kind)
    decided = []
    decide = policy.decide
    policy.decide = lambda p, t: decided.append(decide(p, t)) or decided[-1]
    return policy, decided


class TestBaseline:
    def test_full_pool_higher_price_evicts_global_min(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B", "C")
        fill_pool(pool, world, [tx("A", 0, 5), tx("B", 0, 9)])
        decision = _policy("baseline").decide(pool, tx("C", 0, 6))
        assert decision.admitted
        assert decision.victim.sender == "A"

    def test_equal_price_declined(self):
        pool = Mempool(capacity=1)
        fill_pool(pool, rich_world("A"), [tx("A", 0, 5)])
        decision = _policy("baseline").decide(pool, tx("B", 0, 5))
        assert not decision.admitted and decision.reason is Reason.PRICE_TOO_LOW

    def test_free_slot_admits_without_victims(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        resident = tx("A", 0, 5)
        fill_pool(pool, world, [resident])
        policy, decided = _recording("baseline")
        arrival = tx("B", 0, 1)
        outcome = pool.admit(arrival, world, policy)
        assert outcome.reason is Reason.POOL_NOT_FULL and outcome.victim is None
        assert pool.pending() == [resident, arrival]
        assert decided == []  # a free slot admits without asking the policy

    def test_can_orphan_children(self):
        # evicting a parent leaves its child future: the intentional flaw
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        orphan = tx("A", 1, 9)
        fill_pool(pool, world, [tx("A", 0, 1), orphan])
        outcome = pool.admit(tx("B", 0, 2), world, _policy("baseline"))
        assert outcome.admitted
        assert orphan in pool and is_future(orphan, ListPendingView(pool.pending()), world)


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
        assert base.admitted and base.victim.price == 1

    def test_admits_above_childless_min(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        child = tx("A", 1, 3)
        fill_pool(pool, world, [tx("A", 0, 1), child])
        decision = _policy("cp").decide(pool, tx("B", 0, 4))
        assert decision.admitted
        assert decision.victim is child

    def test_empty_pool_admits(self):
        pool = Mempool(capacity=4)
        policy, decided = _recording("cp")
        arrival = tx("A", 0, 1)
        outcome = pool.admit(arrival, rich_world("A"), policy)
        assert outcome.reason is Reason.POOL_NOT_FULL and outcome.victim is None
        assert pool.pending() == [arrival]
        assert decided == []

    def test_single_childless_victim_fuzz(self):
        rng = random.Random(11)
        for trial in range(50):
            txs = random_pool_txs(rng, n_senders=4, max_chain=3, price_range=(1, 30))
            pool = Mempool(capacity=len(txs))
            fill_pool(pool, rich_world(*{t.sender for t in txs}), txs)
            decision = _policy("cp").decide(pool, tx("fresh", 0, rng.randint(1, 40)))
            if not decision.admitted:
                continue
            victim = decision.victim
            assert victim in find_childless(pool)
            assert victim.price == min(t.price for t in find_childless(pool))


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
        assert decision.victim is txs[2]

    def test_fee_equal_to_mdf_declined(self):
        pool = Mempool(capacity=1)
        fill_pool(pool, rich_world("A"), [tx("A", 0, 3)])
        decision = _policy("map").decide(pool, tx("B", 0, 3))
        assert not decision.admitted and decision.reason is Reason.FEE_TOO_LOW

    def test_childless_min_fee_is_its_own_victim(self):
        pool = Mempool(capacity=2)
        world = rich_world("A", "B")
        cheapest = tx("A", 0, 1)
        fill_pool(pool, world, [cheapest, tx("B", 0, 9)])
        decision = _policy("map").decide(pool, tx("C", 0, 2))
        assert decision.victim is cheapest

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
                fund(world, sender, WEI)
            chain = pool.chain(sender).txs
            base = max((t.nonce for t in chain), default=world.nonce_of(sender) - 1)
            nonce = base + rng.choice((1, 1, 1, 2, 0))
            pool.admit(tx(sender, max(nonce, 0), rng.randint(1, 200)), world, policy)
            cur = sum(t.price for t in pool.pending())
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
    pool = Mempool(capacity=6, per_sender_limit=2)
    world = WorldState()
    policy, decided = _recording(kind)
    seen = set()
    for step in range(300):
        sender = f"s{rng.randint(0, 9)}"
        if sender not in world.accounts:
            fund(world, sender, WEI)
        nonce = world.nonce_of(sender) + len(pool.chain(sender)) + rng.choice((0, 0, 0, 1))
        t = tx(sender, nonce, rng.randint(1, 200))
        refused = pool.precheck(t, world)
        if refused is None and len(pool.chain(sender)) >= pool.per_sender_limit:
            refused = Reason.SENDER_LIMIT
        full = len(pool) == pool.capacity
        asked = len(decided)
        before = pool.pending()
        outcome = pool.admit(t, world, policy)
        # the policy is asked exactly about a valid arrival at a full pool
        assert (len(decided) > asked) == (refused is None and full)
        if len(decided) > asked:
            assert len(decided) == asked + 1 and outcome is decided[-1]
        elif refused is None:  # a free slot: admitted without asking the policy
            assert outcome.reason is Reason.POOL_NOT_FULL
        else:  # declined before the policy (the pool is unchanged)
            assert outcome.reason is refused
        evicting = outcome.victim is not None
        # the outcome names no arrival: the tx passed in is pending iff it
        # was admitted, and only an eviction is an outcome of its own
        assert (t in pool) is outcome.admitted
        assert evicting or outcome is _OUTCOMES[outcome.reason]
        if outcome.admitted:
            assert outcome.reason is (Reason.EVICTION if evicting else Reason.POOL_NOT_FULL)
        else:
            assert not evicting
            # the outcome is the decline's only record: the pool is unchanged
            assert pool.pending() == before
        seen.add((outcome.admitted, evicting))
    # every outcome seen: declined, admitted into a free slot, admitted evicting
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("reason", list(Reason), ids=lambda r: r.value)
def test_outcome_kind_follows_from_reason(reason):
    # only a free slot and an eviction admit; every other reason declines
    victim = tx("B", 0, 1) if reason is Reason.EVICTION else None
    outcome = AdmissionOutcome(reason, victim)
    assert outcome.admitted == (reason in (Reason.POOL_NOT_FULL, Reason.EVICTION))
    assert outcome.victim is victim
    # only an eviction names a victim, and it must name one
    if reason is Reason.EVICTION:
        with pytest.raises(PoolError, match="needs a victim"):
            AdmissionOutcome(reason)
    else:
        with pytest.raises(PoolError, match=f"{reason.value} outcome cannot name a victim"):
            AdmissionOutcome(reason, tx("B", 0, 1))


def test_config_defaults_and_unknown_kind():
    assert PolicyConfig().kind == "cp"
    with pytest.raises(ValueError):
        PolicyConfig(kind="lru").build()
