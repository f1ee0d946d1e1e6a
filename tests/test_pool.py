import dataclasses
import gc
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mempoolsim import (
    Mempool,
    PolicyConfig,
    PoolError,
    Reason,
    RunReport,
    Transaction,
    WorldState,
    build_block,
)
from mempoolsim.pool import SenderChain

from conftest import (
    WEI,
    fill_pool,
    fund,
    oracle_childless,
    oracle_descendant,
    rich_world,
    tx,
)
from oracles import (
    ListPendingView,
    fee_heads,
    find_childless,
    is_future,
    pending_by_price,
    transition_flags,
)


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
        fund(world, "A", a0.cost + a1.cost - 1)
        fill_pool(pool, world, [a0])
        assert pool.precheck(a1, world) is Reason.INVALID_OVERDRAFT

    def test_stale_nonce(self):
        pool = Mempool(capacity=8)
        world = WorldState()
        fund(world, "A", WEI, nonce=3)
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
        fund(world, "A", a0.cost)
        fill_pool(pool, world, [a0])
        assert pool.precheck(tx("A", 0, 10**9), world) is Reason.DUPLICATE


class TestChildless:
    def test_max_nonce_per_sender(self):
        pool = Mempool(capacity=8)
        world = rich_world("A", "B")
        txs = [tx("A", 1, 5), tx("A", 2, 5), tx("B", 1, 3)]
        fund(world, "A", WEI, nonce=1)
        fund(world, "B", WEI, nonce=1)
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
        fund(world, "A", WEI, nonce=1)
        fund(world, "B", WEI, nonce=1)
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

    def test_equal_price_reads_the_current_chain_min_fee(self):
        # C's cheap parent leaves, so C's chain minimum fee rises past B's:
        # C's _childless entry is re-keyed with the new minimum fee, and B's
        # tail is now the victim
        pool = Mempool(capacity=8)
        parent = tx("C", 0, 1, gas=21_000)
        fill_pool(
            pool,
            rich_world("B", "C"),
            [parent, tx("C", 1, 3, gas=90_000), tx("B", 0, 3, gas=60_000)],
        )
        assert pool.min_price_childless().sender == "C"
        pool.remove_included([parent])
        assert pool.min_price_childless().sender == "B"

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
            fund(world, f"s{s}", WEI)
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
        fund(world, "A", WEI, nonce=1)
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
        pool.apply_admission(z, y)
        assert set(pool.pending()) == {x, z}
        assert y not in pool and len(pool.chain("Y")) == 0

    def test_capacity_violation(self):
        pool = Mempool(capacity=1)
        fill_pool(pool, rich_world("X"), [tx("X", 0, 5)])
        with pytest.raises(PoolError):
            pool.apply_admission(tx("Y", 0, 9), None)

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"capacity": 2.5}, "capacity must be an integer, got 2.5"),
            ({"capacity": True}, "capacity must be an integer, got True"),
            ({"capacity": "8"}, "capacity must be an integer, got '8'"),
            (
                {"capacity": 4, "per_sender_limit": 1.5},
                "per-sender limit must be an integer, got 1.5",
            ),
            (
                {"capacity": 4, "per_sender_limit": True},
                "per-sender limit must be an integer, got True",
            ),
        ],
    )
    def test_sizes_must_be_exact_ints(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Mempool(**kwargs)

    def test_victim_not_pending(self):
        pool = Mempool(capacity=2)
        fill_pool(pool, rich_world("X"), [tx("X", 0, 5)])
        with pytest.raises(PoolError):
            pool.apply_admission(tx("Y", 0, 9), tx("W", 0, 1))

    @pytest.mark.parametrize("victim", [None, 0, 2], ids=["free_slot", "itself", "other"])
    def test_a_pending_tx_is_refused_and_changes_nothing(self, victim):
        # admitted twice, a tx would sit twice in its chain
        pool = Mempool(capacity=4)
        txs = [tx("X", 0, 5), tx("X", 1, 3), tx("Y", 0, 4)]
        fill_pool(pool, rich_world("X", "Y"), txs)
        # build all three order indexes
        pool.min_price_tx(), pool.min_fee_tx(), pool.min_price_childless()
        before = _views(pool)
        with pytest.raises(PoolError, match=r"^<X:0 @5> already pending$"):
            pool.apply_admission(txs[0], None if victim is None else txs[victim])
        assert _views(pool) == before


def _views(pool):
    """The pool's pending list, each chain's txs and fee list, and its three
    order indexes: everything a refused change must leave as it was."""
    chains = {s: (list(c.txs), list(c.fees)) for s, c in pool.chains().items()}
    indexes = [list(i) for i in (pool._by_price, pool._fee_heads, pool._childless)]
    return pool.pending(), chains, indexes


@pytest.mark.parametrize(
    "stranger",
    [
        lambda pool: [tx("W", 0, 1)],  # a sender with nothing pending
        lambda pool: [tx("X", 2, 5)],  # the next nonce of a pending chain
        lambda pool: [dataclasses.replace(pool.chain("X").txs[1])],  # copy of a tail
        lambda pool: [dataclasses.replace(pool.chain("X").txs[0])],  # copy of a parent
        # residents first, then a stranger: the residents stay
        lambda pool: [*pool.chain("X").txs, pool.chain("Y").txs[0], tx("W", 0, 1)],
        # every tx resident, but one named twice
        lambda pool: [pool.chain("X").txs[0], pool.chain("Y").txs[0], pool.chain("X").txs[0]],
    ],
    ids=["unknown_sender", "next_nonce", "tail_copy", "parent_copy", "mixed_batch", "repeat"],
)
def test_remove_included_of_a_non_resident_changes_nothing(stranger):
    pool = Mempool(capacity=8)
    fill_pool(pool, rich_world("X", "Y"), [tx("X", 0, 5), tx("X", 1, 3), tx("Y", 0, 4)])
    # build all three order indexes
    pool.min_price_tx(), pool.min_fee_tx(), pool.min_price_childless()
    before = _views(pool)
    with pytest.raises(PoolError):
        pool.remove_included(stranger(pool))
    assert _views(pool) == before


def _pool_of(txs, readers, read_first):
    """A pool that admitted ``txs`` in order, with the order indexes that the
    named readers build built before the first admission or after the last."""
    pool = Mempool(capacity=len(txs) + 1)
    read = lambda: [getattr(pool, reader)() for reader in sorted(readers)]
    if read_first:
        read()
    for t in txs:
        pool.apply_admission(t, None)
    if not read_first:
        read()
    return pool


def _seqless_views(pool):
    """Everything a removal changes, each index and fee-list entry without its
    admission seq: pools that admitted the same txs in the same order compare
    equal."""

    def seqless(entries):
        return None if entries is None else [e[:-2] + e[-1:] for e in entries]

    chains = {s: (list(c.txs), c.cost, seqless(c.fees)) for s, c in pool.chains().items()}
    indexes = [seqless(index) for index in (pool._by_price, pool._fee_heads, pool._childless)]
    return pool.pending(), chains, indexes


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    readers=st.sets(st.sampled_from(("min_price_tx", "min_fee_tx", "min_price_childless"))),
    read_first=st.booleans(),
    as_a_block=st.booleans(),
    data=st.data(),
)
def test_remove_included_leaves_the_pool_that_never_admitted_the_batch(
    lengths, readers, read_first, as_a_block, data
):
    # chains admitted in any order, 0-3 indexes built; the batch is either
    # a prefix of each chain, the chains interleaved as a block takes them,
    # or any subset in any order, as the public call allows
    gas = st.sampled_from((21_000, 42_000))
    txs = [
        tx(f"s{s}", nonce, data.draw(st.integers(1, 9)), gas=data.draw(gas))
        for s, length in enumerate(lengths)
        for nonce in range(length)
    ]
    txs = data.draw(st.permutations(txs))
    pool = _pool_of(txs, readers, read_first)
    if as_a_block:
        cuts = {s: data.draw(st.integers(0, len(c))) for s, c in pool.chains().items()}
        turns = data.draw(st.permutations([s for s, cut in cuts.items() for _ in range(cut)]))
        heads = {s: iter(c.txs) for s, c in pool.chains().items()}
        batch = [next(heads[s]) for s in turns]
    else:
        batch = data.draw(st.lists(st.sampled_from(txs), unique=True))
    pool.remove_included(batch)
    gone = set(batch)
    assert _seqless_views(pool) == _seqless_views(
        _pool_of([t for t in txs if t not in gone], readers, read_first)
    )


def test_pop_all_empties_the_mapping_chains_returned():
    pool = Mempool(capacity=8)
    world = rich_world("X", "Y", "Z")
    fill_pool(pool, world, [tx("X", 0, 5), tx("X", 1, 3), tx("Y", 0, 4)])
    held = pool.chains()
    assert len(pool.pop_all()) == 3
    assert held is pool.chains() and dict(held) == {} and len(pool) == 0
    # it stays the pool's own live mapping
    fill_pool(pool, world, [tx("Z", 0, 5)])
    assert list(held) == ["Z"]


def _rebuild_check(pool: Mempool, world: WorldState):
    """Index coherence: all views hold exactly the pending set, and every
    sender's chain matches recomputation from it. A chain keeps a fee list
    once a per-sender index (``_fee_heads`` or ``_childless``) is built,
    which ``fee_heads`` and ``find_childless`` below do, and not before."""
    if pool._fee_heads is None and pool._childless is None:
        assert all(chain.fees is None for chain in pool.chains().values())
    pending = pool.pending()
    seq = {t: i for i, t in enumerate(pending)}.__getitem__  # admission order
    assert set(pending_by_price(pool)) == set(pending)
    # membership and size against a scan of pending()
    held = {(t.sender, t.nonce): t for t in pending}
    assert len(pool) == len(held) == len(pending)
    for t in pending:
        assert t in pool
        twin = dataclasses.replace(t)  # equal fields, another transaction
        assert twin not in pool
        assert pool.precheck(twin, world) is Reason.DUPLICATE
    tails = set(find_childless(pool))
    assert tails == set(oracle_childless(pending))
    by_sender = {}
    for t in pending:
        by_sender.setdefault(t.sender, []).append(t)
    assert {s for s in world.accounts if pool.chain(s).txs} == set(by_sender)
    # one entry per sender: its chain's lowest (fee, seq)
    heads = [min(chain, key=lambda t: (t.fee, seq(t))) for chain in by_sender.values()]
    assert fee_heads(pool) == sorted(heads, key=lambda t: (t.fee, seq(t)))
    for s, chain in by_sender.items():
        assert pool.chain(s).fees[0][0] == min(t.fee for t in chain)
        assert [t.nonce for t in pool.chain(s).txs] == sorted(t.nonce for t in chain)
    for s in world.accounts:
        chain = pool.chain(s)
        held = sorted(by_sender.get(s, []), key=lambda t: t.nonce)
        assert chain.txs == held
        assert chain.cost == sum(t.cost for t in held)
        if held:
            assert chain.fees == sorted((t.fee, pool._seq_of[t], t) for t in held)
            assert [e[-1] for e in chain.fees] == sorted(held, key=lambda t: (t.fee, seq(t)))
        nonces = {t.nonce for t in chain.txs}
        for start in range(world.nonce_of(s), max(nonces, default=0) + 2):
            gap = start
            while gap in nonces:
                gap += 1
            assert chain.run_end(start) == gap


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=6),
    steps=st.lists(st.sampled_from((1, 1, 1, 2, 5)), max_size=30),
    order=st.randoms(use_true_random=False),
)
def test_run_end_matches_a_scan_from_any_start(base, steps, order):
    # runs of consecutive nonces split by gaps, inserted in any order, read
    # from starts below, inside and above the chain
    nonces = list(itertools.accumulate(steps, initial=base))
    chain = SenderChain()
    for seq, nonce in enumerate(order.sample(nonces, len(nonces))):
        chain.insert(tx("A", nonce, 1), seq)
    held = set(nonces)
    for start in range(max(0, base - 3), nonces[-1] + 4):
        end = start
        while end in held:
            end += 1
        assert chain.run_end(start) == end


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
            fund(world, sender, WEI)
            next_nonce[sender] = 0
        nonce = next_nonce[sender] + rng.choice((0, 0, 0, 1, 2))
        t = tx(sender, nonce, rng.randint(1, 500), gas=rng.choice((21_000, 60_000)))
        outcome = pool.admit(t, world, policy)
        if outcome.admitted and nonce == next_nonce[sender]:
            next_nonce[sender] = nonce + 1
        victim = outcome.victim
        if victim is not None:
            next_nonce[victim.sender] = min(next_nonce[victim.sender], victim.nonce)
        if step % 20 == 0:
            _rebuild_check(pool, world)
        assert len(pool) <= pool.capacity
    _rebuild_check(pool, world)


def _drive_admit_build(policy_kind, seed, capacity):
    """Random admit / ``build_block`` steps over a few senders
    that re-send and skip nonces. After every step each index is checked
    against recomputation; after every cp or map admission no resident may
    have turned future, after every map admission the admitted tx is not
    future, and under cp the price sum may not have fallen.
    Returns how many admissions turned a resident future."""
    rng = random.Random(seed)
    pool = Mempool(capacity=capacity)
    # blocks hold a few txs, so chains are cut at the head as well as the tail
    world = WorldState(block_gas_limit=4 * 60_000)
    policy = PolicyConfig(kind=policy_kind).build()
    senders = [f"c{i}" for i in range(6)]
    for s in senders:
        fund(world, s, WEI)
    turned_future = 0
    for step in range(300):
        roll = rng.random()
        if roll < 0.1:
            build_block(pool, world)
        else:
            sender = rng.choice(senders)
            top = world.nonce_of(sender) + len(pool.chain(sender))
            nonce = rng.randint(world.nonce_of(sender), top + 1)
            t = tx(sender, nonce, rng.randint(1, 300), gas=rng.choice((21_000, 60_000)))
            before = pool.pending()
            price_sum = sum(p.price for p in before)
            outcome = pool.admit(t, world, policy)
            if policy_kind == "map" and outcome.admitted:
                view = ListPendingView(pool.pending())
                assert not is_future(t, view, world), (step, "admitted tx is future")
            if transition_flags(before, pool.pending(), world).pending_turn_future:
                turned_future += 1
                assert policy_kind == "baseline", (step, "resident turned future")
            if policy_kind == "cp":
                assert sum(p.price for p in pool.pending()) >= price_sum, (step, "price sum fell")
        _rebuild_check(pool, world)
    return turned_future


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_sender_chains_coherent_under_admit_build(policy_kind, seed):
    _drive_admit_build(policy_kind, seed, capacity=16)


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("capacity", [4, 8])
@pytest.mark.parametrize("seed", range(3))
def test_sender_chains_coherent_at_small_capacities(policy_kind, capacity, seed):
    # a small pool is full most of the time, so most admissions evict
    _drive_admit_build(policy_kind, seed, capacity)


def test_baseline_turns_residents_future_in_random_steps():
    # the cp/map check above can fail: under baseline the same random steps
    # evict parents and turn their residents future
    assert sum(_drive_admit_build("baseline", seed, 8) for seed in range(3)) > 0


def test_declined_ledger_append_only_and_replay_stable():
    def run():
        pool = Mempool(capacity=4)
        world = rich_world("A", "B", "C")
        policy = PolicyConfig(kind="cp").build()
        outcomes, arrivals, ledgers = [], [], []
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
            outcomes.append(pool.admit(t, world, policy))
            arrivals.append(t)
            report = RunReport("cp", 4, outcomes=list(outcomes), arrivals=list(arrivals))
            ledgers.append(report.declined)
        # each arrival only appends to the ledger derived from the outcomes
        for before, after in zip(ledgers, ledgers[1:]):
            assert after[: len(before)] == before
        ledger = [(t.sender, t.nonce, t.price, r.value) for t, r in ledgers[-1]]
        assert [r for *_, r in ledger] == ["invalid-future", "duplicate", "eviction"]
        return ledger

    # identical inputs give bit-identical declined ledgers
    assert run() == run()


def test_an_outcome_without_a_victim_is_its_reasons_shared_constant():
    pool = Mempool(capacity=2, per_sender_limit=1)
    world = rich_world("A", "B", "C")
    fund(world, "poor", 0)
    cp = PolicyConfig(kind="cp").build()

    def twice(make):
        first, second = (pool.admit(make(), world, cp) for _ in range(2))
        assert first is second and first.victim is None
        return first.reason

    # a free slot: each admission inserts a distinct tx, yet shares the outcome
    free = iter([tx("A", 0, 5), tx("B", 0, 5)])
    assert twice(lambda: next(free)) is Reason.POOL_NOT_FULL
    assert twice(lambda: tx("A", 5, 9)) is Reason.INVALID_FUTURE
    assert twice(lambda: tx("poor", 0, 9)) is Reason.INVALID_OVERDRAFT
    assert twice(lambda: tx("A", 1, 9)) is Reason.SENDER_LIMIT
    pool.per_sender_limit = None
    assert twice(lambda: tx("C", 0, 1)) is Reason.PRICE_TOO_LOW
    # only an eviction builds an outcome of its own
    evictions = [pool.admit(tx("C", n, 9 + n), world, cp) for n in range(2)]
    assert [o.reason for o in evictions] == [Reason.EVICTION] * 2
    assert evictions[0] is not evictions[1]


def test_declining_admit_calls_keep_nothing():
    # each call returns its reason's shared outcome: holding 1,000 of them
    # keeps no byte, where an object per decline kept ~56 KB
    pool, world = Mempool(capacity=4), rich_world("a", "b", "x")
    fill_pool(pool, world, [tx("a", 0, 5), tx("a", 1, 5), tx("b", 0, 5), tx("b", 1, 5)])
    policy = PolicyConfig(kind="cp").build()
    # below the pool's prices (the policy declines) or a nonce gap (the
    # precheck declines)
    arrivals = [Transaction("x", i % 2, 1) for i in range(1_000)]
    outcomes = [None] * len(arrivals)

    def decline():
        for i, t in enumerate(arrivals):
            outcomes[i] = pool.admit(t, world, policy)

    # the first call builds the policy's order index
    decline()
    gc.collect()
    tracemalloc.start()
    try:
        decline()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert {o.reason for o in outcomes} == {Reason.PRICE_TOO_LOW, Reason.INVALID_FUTURE}
    assert len(pool) == 4
    assert kept <= 1_000, kept


def test_precheck_matches_generic_predicates():
    # the index-backed precheck must agree with the brute-force predicates,
    # also once a sender's confirmed nonce moves out of band into or past
    # its pending chain (stale txs stay pending, and a chain with a gap can
    # span exactly its length from the confirmed nonce)
    from oracles import ListPendingView, cumulative_cost, is_future

    rng = random.Random(13)
    pool = Mempool(capacity=32)
    world = WorldState()
    policy = PolicyConfig(kind="baseline").build()
    for step in range(2000):
        if rng.random() < 0.1 and world.accounts:
            moved = rng.choice(sorted(world.accounts))
            nonces = [t.nonce for t in pool.chain(moved).txs]
            if nonces:
                world.accounts[moved].nonce = rng.randint(nonces[0] + 1, nonces[-1] + 2)
        sender = f"w{rng.randint(0, 12)}"
        if sender not in world.accounts:
            fund(world, sender, rng.choice((10**18, 90_000 * 800)), nonce=rng.randint(0, 2))
        t = tx(sender, rng.randint(0, 6), rng.randint(1, 400), gas=rng.choice((21_000, 90_000)))
        view = ListPendingView(pool.pending())
        confirmed = world.nonce_of(sender)
        if t.nonce < confirmed:
            expected = Reason.STALE
        elif view.get(sender, t.nonce) is not None:
            expected = Reason.DUPLICATE
        elif is_future(t, view, world):
            expected = Reason.INVALID_FUTURE
        elif cumulative_cost(sender, t.nonce, view) + t.cost > world.accounts[sender].balance:
            expected = Reason.INVALID_OVERDRAFT
        else:
            expected = None
        assert pool.precheck(t, world) is expected
        pool.admit(t, world, policy)


def test_admit_never_admits_future_under_cp():
    # no admitted-then-orphaned chains: after any admit with the chain-safe
    # policy, no pending tx is future w.r.t. the pool
    from oracles import ListPendingView, is_future

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
            fund(world, sender, WEI)
            next_nonce.setdefault(sender, 0)
        t = tx(sender, next_nonce[sender] + rng.choice((0, 0, 1)), rng.randint(1, 99))
        outcome = pool.admit(t, world, policy)
        if outcome.admitted:
            next_nonce[sender] = t.nonce + 1
        if outcome.victim is not None:
            next_nonce[outcome.victim.sender] = outcome.victim.nonce
        view = ListPendingView(pool.pending())
        assert not any(is_future(p, view, world) for p in view.txs)


def _oracle_orders(pending, admitted_at):
    """Every order the pool serves, by brute force: sort by (key, admission
    order), with the admission order counted by the caller."""

    def seq(t):
        return admitted_at[t]

    by_price = sorted(pending, key=lambda t: (t.price, seq(t)))
    min_fee_of = {}
    for t in pending:
        min_fee_of[t.sender] = min(min_fee_of.get(t.sender, t.fee), t.fee)
    childless = sorted(
        oracle_childless(pending), key=lambda t: (t.price, min_fee_of[t.sender], seq(t))
    )
    by_fee = sorted(pending, key=lambda t: (t.fee, seq(t)))
    heads = list({t.sender: t for t in reversed(by_fee)}.values())  # each sender's first
    heads.sort(key=lambda t: (t.fee, seq(t)))
    lowest = [t for t in childless if t.price == childless[0].price] if childless else []
    return {
        "pending_by_price": by_price,
        "fee_heads": heads,
        "find_childless": childless,
        "min_price_tx": by_price[0] if by_price else None,
        "min_fee_tx": by_fee[0] if by_fee else None,
        "min_price_childless": (
            min(lowest, key=lambda t: (min_fee_of[t.sender], seq(t))) if lowest else None
        ),
    }


# the readers behind each lazily built order index; the full-order readers
# live in oracles.py
_INDEX_READERS = {
    "price": ("pending_by_price", "min_price_tx"),
    "fee": ("fee_heads", "min_fee_tx"),
    "childless": ("find_childless", "min_price_childless"),
}
_ORACLE_READERS = {
    "pending_by_price": pending_by_price,
    "fee_heads": fee_heads,
    "find_childless": find_childless,
}


def _read(pool, reader):
    oracle = _ORACLE_READERS.get(reader)
    return oracle(pool) if oracle else getattr(pool, reader)()


def _built(pool):
    return [index is not None for index in (pool._by_price, pool._fee_heads, pool._childless)]


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_lazy_indexes_match_eager_ones_and_oracle(policy_kind, seed):
    # pool A reads every order from step 0; pool B reads each order first at
    # its own random later step, so for a stretch it keeps only some indexes
    rng = random.Random(100 + seed)
    steps = 300
    first_read = {group: rng.randint(1, steps - 1) for group in _INDEX_READERS}
    world_a = WorldState(block_gas_limit=4 * 60_000)
    senders = [f"c{i}" for i in range(6)]
    for s in senders:
        fund(world_a, s, WEI)
    world_b = world_a.clone()
    pool_a, pool_b = Mempool(capacity=16), Mempool(capacity=16)
    policy = PolicyConfig(kind=policy_kind).build()
    admitted_at = {}  # tx -> admission order, counted here
    pending = {}  # tx -> tx, the pending set mirrored here in admission order
    partial = 0  # steps at which pool B had built some order indexes but not all
    for step in range(steps):
        roll = rng.random()
        if roll < 0.1:
            built_a = build_block(pool_a, world_a).block.txs
            built_b = build_block(pool_b, world_b).block.txs
            assert built_a == built_b
            for t in built_a:
                del pending[t]
        else:
            sender = rng.choice(senders)
            top = world_a.nonce_of(sender) + len(pool_a.chain(sender))
            nonce = rng.randint(world_a.nonce_of(sender), top + 1)
            t = tx(sender, nonce, rng.randint(1, 300), gas=rng.choice((21_000, 60_000)))
            out_a = pool_a.admit(t, world_a, policy)
            out_b = pool_b.admit(t, world_b, policy)
            assert (out_a.reason, out_a.victim) == (out_b.reason, out_b.victim)
            if out_a.admitted:
                admitted_at[t] = len(admitted_at)
                pending[t] = t
            if out_a.victim is not None:
                del pending[out_a.victim]
        assert set(pool_a.pending()) == set(pending)
        assert set(pool_b.pending()) == set(pending)
        partial += 0 < sum(_built(pool_b)) < 3
        expected = _oracle_orders(list(pending.values()), admitted_at)
        for group, readers in _INDEX_READERS.items():
            for reader in readers:
                assert _read(pool_a, reader) == expected[reader], (step, reader)
                if step >= first_read[group]:
                    assert _read(pool_b, reader) == expected[reader], (step, reader)
    assert partial > 0


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
    arrivals, seeds = AttackPlan("random_adversary", {"steps": 600, "seed": 4}).generate()
    events = []
    for step, event in enumerate(arrivals):
        events.append(event)
        if (step + 1) % 200 == 0:
            events.append(block_trigger(event.ts_ms))
    config = ScenarioConfig(
        policy=PolicyConfig(kind=policy_kind),
        capacity=64,
        account_seeds=seeds,
        drain_mode="interleaved",
    )
    report = replay(config, events)
    assert any(o.victim is not None for o in report.outcomes)  # the pool filled and evicted
    (pool,) = pools
    # built: [_by_price, _fee_heads, _childless]
    expected = {
        "baseline": [True, False, False],
        "cp": [False, False, True],
        "map": [False, True, False],
    }
    assert _built(pool) == expected[policy_kind]


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(3))
def test_indexes_stay_exact_and_serve_minimums(policy_kind, seed):
    # arrivals, evictions, builds and a tail that leaves and is sent again,
    # so a sender's tail key goes A -> B -> A; after every step each order
    # index is exactly its entries rebuilt from pending(), sorted: one per
    # pending tx in _by_price, one per sender in _fee_heads (its chain's
    # lowest (fee, seq)) and _childless, and no leftover entry; each chain's
    # fee list is its txs' entries; and each min_* equals a scan of pending()
    rng = random.Random(300 + seed)
    world = WorldState(block_gas_limit=4 * 60_000)
    senders = [f"k{i}" for i in range(6)]
    for s in senders:
        fund(world, s, WEI)
    pool = Mempool(capacity=8)
    pool.min_price_tx(), pool.min_fee_tx(), pool.min_price_childless()
    policy = PolicyConfig(kind=policy_kind).build()
    admitted_at = {}  # tx -> admission order, counted here
    gone = []  # tails that left, to send again
    resent = 0
    for step in range(500):
        roll = rng.random()
        if roll < 0.05:
            build_block(pool, world)
        elif roll < 0.3 and len(pool):
            tail = pool.chain(rng.choice(pool.pending()).sender).txs[-1]
            pool.remove_included([tail])
            gone.append(tail)
        else:
            sendable = [t for t in gone if [u.nonce for u in pool.chain(t.sender).txs[-1:]] == [t.nonce - 1]]
            again = bool(sendable) and roll < 0.7
            if again:
                t = rng.choice(sendable)
                gone.remove(t)
            else:
                sender = rng.choice(senders)
                top = world.nonce_of(sender) + len(pool.chain(sender))
                nonce = rng.randint(world.nonce_of(sender), top + 1)
                t = tx(sender, nonce, rng.randint(1, 40), gas=rng.choice((21_000, 60_000)))
            outcome = pool.admit(t, world, policy)
            if outcome.admitted:
                admitted_at[t] = len(admitted_at)
                resent += again
        pending = pool.pending()
        seq = admitted_at.__getitem__
        tails = oracle_childless(pending)
        min_fee_of = {t.sender: min(u.fee for u in pending if u.sender == t.sender) for t in tails}
        seq_of = pool._seq_of
        assert pool._by_price == sorted((t.price, seq_of[t], t) for t in pending), step
        heads = {}  # sender -> its chain's lowest (fee, seq) entry
        for entry in sorted((t.fee, seq_of[t], t) for t in pending):
            heads.setdefault(entry[-1].sender, entry)
        assert pool._fee_heads == sorted(heads.values()), step
        for sender, chain in pool.chains().items():
            assert chain.fees == sorted((t.fee, seq_of[t], t) for t in chain.txs), step
        assert pool._childless == sorted(
            (t.price, min_fee_of[t.sender], seq_of[t], t) for t in tails
        ), step
        expected = (
            min(pending, key=lambda t: (t.price, seq(t)), default=None),
            min(pending, key=lambda t: (t.fee, seq(t)), default=None),
            min(tails, key=lambda t: (t.price, min_fee_of[t.sender], seq(t)), default=None),
        )
        assert (pool.min_price_tx(), pool.min_fee_tx(), pool.min_price_childless()) == expected
    assert resent > 10
