import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mempoolsim import (
    Mempool,
    PolicyConfig,
    PoolError,
    Reason,
    Transaction,
    WorldState,
    build_block,
)

from conftest import (
    WEI,
    fill_pool,
    oracle_childless,
    oracle_descendant,
    rich_world,
    tx,
)
from oracles import find_childless, pending_by_price, transition_flags


class TestPrecheck:
    def test_valid(self):
        pool = Mempool(capacity=8)
        world = rich_world("A")
        assert pool.precheck(tx("A", 0, 10), world) is None

    def test_future_nonce_gap(self):
        pool = Mempool(capacity=8)
        world = rich_world("A")
        assert pool.precheck(tx("A", 2, 10), world) is Reason.INVALID_FUTURE

    def test_latent_overdraft_counts_pending_chain(self):
        pool = Mempool(capacity=8)
        world = WorldState()
        a0 = Transaction(sender="A", nonce=0, price=1, gas_used=21_000, gas_limit=80_000)
        a1 = Transaction(sender="A", nonce=1, price=1, gas_used=21_000, gas_limit=30_000)
        world.fund("A", a0.cost + a1.cost - 1)
        fill_pool(pool, world, [a0])
        assert pool.precheck(a1, world) is Reason.INVALID_OVERDRAFT

    def test_stale_nonce(self):
        pool = Mempool(capacity=8)
        world = WorldState()
        world.fund("A", WEI, nonce=3)
        assert pool.precheck(tx("A", 2, 10), world) is Reason.STALE

    def test_duplicate_sender_nonce(self):
        pool = Mempool(capacity=8)
        world = rich_world("A")
        fill_pool(pool, world, [tx("A", 0, 10)])
        assert pool.precheck(tx("A", 0, 99), world) is Reason.DUPLICATE

    def test_check_order_stale_before_duplicate(self):
        # a stale nonce that is also "pending" cannot happen, but a duplicate
        # that would also overdraft must report duplicate first
        pool = Mempool(capacity=8)
        world = WorldState()
        a0 = tx("A", 0, 10)
        world.fund("A", a0.cost)
        fill_pool(pool, world, [a0])
        assert pool.precheck(tx("A", 0, 10**9), world) is Reason.DUPLICATE


class TestChildless:
    def test_max_nonce_per_sender(self):
        pool = Mempool(capacity=8)
        world = rich_world("A", "B")
        txs = [tx("A", 1, 5), tx("A", 2, 5), tx("B", 1, 3)]
        world.fund("A", WEI, nonce=1)
        world.fund("B", WEI, nonce=1)
        fill_pool(pool, world, txs)
        got = {(t.sender, t.nonce) for t in find_childless(pool)}
        expected = {(t.sender, t.nonce) for t in oracle_childless(txs)}
        assert got == expected == {("A", 2), ("B", 1)}

    def test_empty_pool(self):
        assert find_childless(Mempool(capacity=4)) == []
        assert Mempool(capacity=4).min_price_childless() is None

    def test_singleton_is_childless(self):
        pool = Mempool(capacity=4)
        fill_pool(pool, rich_world("A"), [tx("A", 0, 9)])
        assert [t.nonce for t in find_childless(pool)] == [0]

    def test_min_price_childless(self):
        pool = Mempool(capacity=8)
        world = rich_world("A", "B")
        world.fund("A", WEI, nonce=1)
        world.fund("B", WEI, nonce=1)
        fill_pool(pool, world, [tx("A", 1, 1), tx("A", 2, 5), tx("B", 1, 3)])
        assert pool.min_price_childless().sender == "B"

    def test_equal_price_tie_break_insertion_order(self):
        pool = Mempool(capacity=8)
        world = rich_world("B", "C")
        first = tx("B", 0, 3)
        fill_pool(pool, world, [first, tx("C", 0, 3)])
        assert pool.min_price_childless() == first

    def test_equal_price_prefers_smaller_chain_min_fee(self):
        pool = Mempool(capacity=8)
        world = rich_world("B", "C")
        fill_pool(
            pool,
            world,
            [
                tx("B", 0, 3, gas=90_000),  # chain min fee 270000
                tx("C", 0, 1, gas=21_000),  # cheap parent: chain min fee 21000
                tx("C", 1, 3, gas=90_000),
            ],
        )
        # both childless txs are at price 3; C's chain holds the smaller
        # minimum fee, so C's tail is the victim despite arriving later
        assert pool.min_price_childless().sender == "C"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_childless_matches_oracle(self, data):
        n = data.draw(st.integers(1, 5))
        chains = data.draw(
            st.lists(st.integers(1, 4), min_size=n, max_size=n)
        )
        pool = Mempool(capacity=64)
        world = WorldState()
        txs = []
        for s, chain_len in enumerate(chains):
            world.fund(f"s{s}", WEI)
            for nonce in range(chain_len):
                price = data.draw(st.integers(1, 50))
                txs.append(tx(f"s{s}", nonce, price))
        fill_pool(pool, world, txs)
        got = set(find_childless(pool))
        assert got == set(oracle_childless(txs))


class TestDescendantVictim:
    # map's victim: the chain tail of the seed's sender

    def test_walks_to_chain_tail(self):
        pool = Mempool(capacity=8)
        world = rich_world("A")
        world.fund("A", WEI, nonce=1)
        txs = [tx("A", 1, 5), tx("A", 2, 5), tx("A", 3, 5)]
        fill_pool(pool, world, txs)
        assert pool.chain(txs[0].sender).txs[-1] == txs[2] == oracle_descendant(txs, txs[0])

    def test_childless_seed_is_fixed_point(self):
        pool = Mempool(capacity=8)
        world = rich_world("A")
        only = tx("A", 0, 5)
        fill_pool(pool, world, [only])
        assert pool.chain(only.sender).txs[-1] == only


class TestApplyAdmission:
    def test_substitution(self):
        pool = Mempool(capacity=2)
        world = rich_world("X", "Y", "Z")
        x, y = tx("X", 0, 5), tx("Y", 0, 4)
        fill_pool(pool, world, [x, y])
        z = tx("Z", 0, 9)
        pool.apply_admission(z, [y])
        assert set(pool.pending()) == {x, z}
        assert pool.declined[-1][0] == y

    def test_capacity_violation(self):
        pool = Mempool(capacity=1)
        fill_pool(pool, rich_world("X"), [tx("X", 0, 5)])
        with pytest.raises(PoolError):
            pool.apply_admission(tx("Y", 0, 9), [])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"capacity": 4, "per_sender_limit": 0},
            {"capacity": 4, "per_sender_limit": -1},
        ],
    )
    def test_bounds_below_one_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            Mempool(**kwargs)

    def test_victim_not_pending(self):
        pool = Mempool(capacity=2)
        fill_pool(pool, rich_world("X"), [tx("X", 0, 5)])
        with pytest.raises(PoolError):
            pool.apply_admission(tx("Y", 0, 9), [tx("W", 0, 1)])


def _rebuild_check(pool: Mempool, world: WorldState):
    """Index coherence: all views hold exactly the pending set, and every
    sender's chain matches recomputation from it."""
    pending = pool.pending()
    assert set(pending_by_price(pool)) == set(pending)
    tails = set(find_childless(pool))
    assert tails == set(oracle_childless(pending))
    by_sender = {}
    for t in pending:
        by_sender.setdefault(t.sender, []).append(t)
    assert {s for s in world.accounts if pool.chain(s).min_fee is not None} == set(by_sender)
    for s, chain in by_sender.items():
        assert pool.chain(s).min_fee == min(t.fee for t in chain)
        assert [t.nonce for t in pool.chain(s).txs] == sorted(t.nonce for t in chain)
    for s in world.accounts:
        chain = pool.chain(s)
        held = sorted(by_sender.get(s, []), key=lambda t: t.nonce)
        assert chain.txs == held
        assert chain.nonces == [t.nonce for t in chain.txs]
        assert chain.cost == sum(t.cost for t in held)
        assert chain.fees == dict(Counter(t.fee for t in held))
        nonces = set(chain.nonces)
        for start in range(world.nonce_of(s), max(nonces, default=0) + 2):
            gap = start
            while gap in nonces:
                gap += 1
            assert chain.run_end(start) == gap


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
def test_index_coherence_under_random_traffic(policy_kind):
    rng = random.Random(7)
    pool = Mempool(capacity=24)
    world = WorldState()
    policy = PolicyConfig(kind=policy_kind).build()
    next_nonce = {}
    for step in range(400):
        if rng.random() < 0.4 and next_nonce:
            sender = rng.choice(sorted(next_nonce))
        else:
            sender = f"u{step}"
            world.fund(sender, WEI)
            next_nonce[sender] = 0
        nonce = next_nonce[sender] + rng.choice((0, 0, 0, 1, 2))
        t = tx(sender, nonce, rng.randint(1, 500), gas=rng.choice((21_000, 60_000)))
        outcome = pool.admit(t, world, policy)
        if outcome.admitted and nonce == next_nonce[sender]:
            next_nonce[sender] = nonce + 1
        for victim in outcome.victims:
            next_nonce[victim.sender] = min(next_nonce[victim.sender], victim.nonce)
        if step % 20 == 0:
            _rebuild_check(pool, world)
        assert len(pool) <= pool.capacity
    _rebuild_check(pool, world)


def _drive_admit_build_clone(policy_kind, seed, capacity):
    """Random admit / ``build_block`` / ``clone`` steps over a few senders
    that re-send and skip nonces. After every step each index is checked
    against recomputation; after every cp or map admission no resident may
    have turned future, and under cp the price sum may not have fallen.
    Returns how many admissions turned a resident future."""
    rng = random.Random(seed)
    pool = Mempool(capacity=capacity)
    # blocks hold a few txs, so chains are cut at the head as well as the tail
    world = WorldState(block_gas_limit=4 * 60_000)
    policy = PolicyConfig(kind=policy_kind).build()
    senders = [f"c{i}" for i in range(6)]
    for s in senders:
        world.fund(s, WEI)
    spare = None  # the other side of the last clone, which must not change
    turned_future = 0
    for step in range(300):
        roll = rng.random()
        if roll < 0.1:
            build_block(pool, world)
        elif roll < 0.15:
            spare = pool.clone()
            if rng.random() < 0.5:
                pool, spare = spare, pool
        else:
            sender = rng.choice(senders)
            top = world.nonce_of(sender) + len(pool.chain(sender))
            nonce = rng.randint(world.nonce_of(sender), top + 1)
            t = tx(sender, nonce, rng.randint(1, 300), gas=rng.choice((21_000, 60_000)))
            before, price_sum = pool.pending(), pool.price_sum()
            pool.admit(t, world, policy)
            if transition_flags(before, pool.pending(), world).pending_turn_future:
                turned_future += 1
                assert policy_kind == "baseline", (step, "resident turned future")
            if policy_kind == "cp":
                assert pool.price_sum() >= price_sum, (step, "price sum fell")
        _rebuild_check(pool, world)
        if spare is not None:
            _rebuild_check(spare, world)
    return turned_future


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_sender_chains_coherent_under_admit_build_clone(policy_kind, seed):
    _drive_admit_build_clone(policy_kind, seed, capacity=16)


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("capacity", [4, 8])
@pytest.mark.parametrize("seed", range(3))
def test_sender_chains_coherent_at_small_capacities(policy_kind, capacity, seed):
    # a small pool is full most of the time, so most admissions evict
    _drive_admit_build_clone(policy_kind, seed, capacity)


def test_baseline_turns_residents_future_in_random_steps():
    # the cp/map check above can fail: under baseline the same random steps
    # evict parents and turn their residents future
    assert sum(_drive_admit_build_clone("baseline", seed, 8) for seed in range(3)) > 0


def test_declined_ledger_append_only_and_replay_stable():
    def run():
        pool = Mempool(capacity=4)
        world = rich_world("A", "B", "C")
        policy = PolicyConfig(kind="cp").build()
        lens = []
        script = [
            tx("A", 0, 5),
            tx("A", 2, 5),  # future
            tx("B", 0, 1),
            tx("B", 0, 1),  # duplicate
            tx("C", 0, 2),
            tx("C", 1, 2),
            tx("A", 1, 9),  # full pool, evicts
        ]
        for t in script:
            pool.admit(t, world, policy)
            lens.append(len(pool.declined))
        assert lens == sorted(lens)
        return [(t.sender, t.nonce, t.price, r.value) for t, r in pool.declined]

    # identical inputs give bit-identical declined ledgers
    assert run() == run()


def test_precheck_matches_generic_predicates():
    # the index-backed precheck must agree with the brute-force predicates
    from oracles import ListPendingView, cumulative_cost, is_future

    rng = random.Random(13)
    pool = Mempool(capacity=32)
    world = WorldState()
    policy = PolicyConfig(kind="baseline").build()
    for step in range(500):
        sender = f"w{rng.randint(0, 12)}"
        if sender not in world.accounts:
            world.fund(sender, rng.choice((10**18, 90_000 * 800)), nonce=rng.randint(0, 2))
        t = tx(sender, rng.randint(0, 6), rng.randint(1, 400), gas=rng.choice((21_000, 90_000)))
        view = ListPendingView(pool.pending())
        confirmed = world.nonce_of(sender)
        if t.nonce < confirmed:
            expected = Reason.STALE
        elif pool.get(sender, t.nonce) is not None:
            expected = Reason.DUPLICATE
        elif is_future(t, view, world):
            expected = Reason.INVALID_FUTURE
        elif cumulative_cost(sender, t.nonce, view) + t.cost > world.balance_of(sender):
            expected = Reason.INVALID_OVERDRAFT
        else:
            expected = None
        assert pool.precheck(t, world) is expected
        pool.admit(t, world, policy)


def test_admit_never_admits_future_under_cp():
    # no admitted-then-orphaned chains: after any admit with the chain-safe
    # policy, no pending tx is future w.r.t. the pool
    from oracles import is_future

    rng = random.Random(3)
    pool = Mempool(capacity=12)
    world = WorldState()
    policy = PolicyConfig(kind="cp").build()
    next_nonce = {}
    for step in range(300):
        if rng.random() < 0.5 and next_nonce:
            sender = rng.choice(sorted(next_nonce))
        else:
            sender = f"v{step}"
            world.fund(sender, WEI)
            next_nonce.setdefault(sender, 0)
        t = tx(sender, next_nonce[sender] + rng.choice((0, 0, 1)), rng.randint(1, 99))
        outcome = pool.admit(t, world, policy)
        if outcome.admitted:
            next_nonce[sender] = t.nonce + 1
        for victim in outcome.victims:
            next_nonce[victim.sender] = victim.nonce
        assert not any(is_future(p, pool, world) for p in pool.pending())


def _oracle_orders(pending, admitted_at):
    """Every order the pool serves, by brute force: sort by (key, admission
    order), with the admission order counted by the caller."""

    def seq(t):
        return admitted_at[t]

    by_price = sorted(pending, key=lambda t: (t.price, seq(t)))
    childless = sorted(oracle_childless(pending), key=lambda t: (t.price, seq(t)))
    min_fee_of = {}
    for t in pending:
        min_fee_of[t.sender] = min(min_fee_of.get(t.sender, t.fee), t.fee)
    lowest = [t for t in childless if t.price == childless[0].price] if childless else []
    return {
        "pending_by_price": by_price,
        "find_childless": childless,
        "min_price_tx": by_price[0] if by_price else None,
        "min_fee_tx": min(pending, key=lambda t: (t.fee, seq(t))) if pending else None,
        "min_price_childless": (
            min(lowest, key=lambda t: (min_fee_of[t.sender], seq(t))) if lowest else None
        ),
    }


# the readers behind each lazily built order index; the full-order readers
# live in oracles.py
_INDEX_READERS = {
    "price": ("pending_by_price", "min_price_tx"),
    "fee": ("min_fee_tx",),
    "childless": ("find_childless", "min_price_childless"),
}
_ORACLE_READERS = {"pending_by_price": pending_by_price, "find_childless": find_childless}


def _read(pool, reader):
    oracle = _ORACLE_READERS.get(reader)
    return oracle(pool) if oracle else getattr(pool, reader)()


def _built(pool):
    return [index is not None for index in (pool._by_price, pool._by_fee, pool._childless)]


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_lazy_indexes_match_eager_ones_and_oracle(policy_kind, seed):
    # pool A reads every order from step 0; pool B reads each order first at
    # its own random later step and is cloned while only some indexes exist
    rng = random.Random(100 + seed)
    steps = 300
    first_read = {group: rng.randint(1, steps - 1) for group in _INDEX_READERS}
    world_a = WorldState(block_gas_limit=4 * 60_000)
    senders = [f"c{i}" for i in range(6)]
    for s in senders:
        world_a.fund(s, WEI)
    world_b = world_a.clone()
    pool_a, pool_b = Mempool(capacity=16), Mempool(capacity=16)
    policy = PolicyConfig(kind=policy_kind).build()
    admitted_at = {}  # tx -> admission order, counted here
    pending = {}  # tx -> tx, the pending set mirrored here in admission order
    partial_clones = 0
    spares = spare_expected = None
    for step in range(steps):
        roll = rng.random()
        if roll < 0.1:
            built_a = build_block(pool_a, world_a).block.txs
            built_b = build_block(pool_b, world_b).block.txs
            assert built_a == built_b
            for t in built_a:
                del pending[t]
        elif roll < 0.17:
            partial_clones += 0 < sum(_built(pool_b)) < 3
            clones = pool_a.clone(), pool_b.clone()
            assert [_built(c) for c in clones] == [_built(pool_a), _built(pool_b)]
            if rng.random() < 0.5:
                (pool_a, pool_b), clones = clones, (pool_a, pool_b)
            # the side of each clone left behind must keep this step's orders
            spares, spare_expected = clones, None
        else:
            sender = rng.choice(senders)
            top = world_a.nonce_of(sender) + len(pool_a.chain(sender))
            nonce = rng.randint(world_a.nonce_of(sender), top + 1)
            t = tx(sender, nonce, rng.randint(1, 300), gas=rng.choice((21_000, 60_000)))
            out_a = pool_a.admit(t, world_a, policy)
            out_b = pool_b.admit(t, world_b, policy)
            assert (out_a.kind, out_a.victims) == (out_b.kind, out_b.victims)
            if out_a.admitted:
                admitted_at[t] = len(admitted_at)
                pending[t] = t
            for victim in out_a.victims:
                del pending[victim]
        assert set(pool_a.pending()) == set(pending)
        assert set(pool_b.pending()) == set(pending)
        expected = _oracle_orders(list(pending.values()), admitted_at)
        if spares and spare_expected is None:
            spare_expected = expected
        for group, readers in _INDEX_READERS.items():
            for reader in readers:
                assert _read(pool_a, reader) == expected[reader], (step, reader)
                if spares:
                    assert _read(spares[0], reader) == spare_expected[reader], (step, reader)
                if step >= first_read[group]:
                    assert _read(pool_b, reader) == expected[reader], (step, reader)
                    if spares:
                        assert _read(spares[1], reader) == spare_expected[reader], (step, reader)
    assert partial_clones > 0


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
def test_replay_builds_only_its_policy_index(monkeypatch, policy_kind):
    import importlib

    from mempoolsim import AttackPlan, ScenarioConfig, block_trigger, replay

    replay_module = importlib.import_module("mempoolsim.replay")
    pools = []

    class RecordingMempool(Mempool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(replay_module, "Mempool", RecordingMempool)
    plan = AttackPlan("random_adversary", {"steps": 600, "seed": 4})
    events = []
    for step, event in enumerate(plan.events()):
        events.append(event)
        if (step + 1) % 200 == 0:
            events.append(block_trigger(event.ts_ms))
    config = ScenarioConfig(
        policy=PolicyConfig(kind=policy_kind),
        capacity=64,
        account_seeds=plan.account_seeds(),
        drain_mode="interleaved",
    )
    report = replay(config, events)
    assert any(o.victims for o in report.outcomes)  # the pool filled and evicted
    (pool,) = pools
    # built: [_by_price, _by_fee, _childless]
    expected = {
        "baseline": [True, False, False],
        "cp": [False, False, True],
        "map": [False, True, False],
    }
    assert _built(pool) == expected[policy_kind]
