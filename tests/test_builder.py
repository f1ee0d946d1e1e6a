import gc
import random
import time

import pytest

import oracles
from mempoolsim import builder
from mempoolsim import (
    AccountState,
    Mempool,
    PolicyConfig,
    Transaction,
    WorldState,
    build_block,
    candidate_order,
    drain,
)
from mempoolsim.core import MIN_TX_GAS

from conftest import WEI, fill_pool, fund, rich_world, tx

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
        fund(world, s, WEI)
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
                (s, n)
                for s, n in evicted
                if n >= world.nonce_of(s) and all(t.nonce != n for t in pool.chain(s).txs)
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
            if outcome.victim is not None:
                evicted.add((outcome.victim.sender, outcome.victim.nonce))
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
        fund(world, s, WEI)
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
        fund(world, s, WEI)
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
    fund(world, "u1", WEI)
    fund(world, "u2", WEI)
    fund(world, "u3", WEI)
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
            fund(world, "u1", WEI)
            fund(world, "u2", WEI)
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
        before = world.accounts["A"].balance
        result = build_block(pool, world)
        assert len(pool) == 0
        assert world.nonce_of("A") == 1
        assert world.accounts["A"].balance == before - result.block.txs[0].fee - 7

    def test_every_pending_tx_accounted_for(self):
        pool, world, _ = _a2a_pool(GAS_LIMIT_30M)
        n = len(pool)
        result = build_block(pool, world)
        assert len(result.block.txs) + len(result.skipped) == n


class TestDrain:
    def test_single_block_fits(self):
        pool, world = _pool([tx("A", 0, 3), tx("B", 0, 2)])
        blocks, leftovers = drain(pool, world)
        assert len(blocks) == 1 and len(pool) == 0 and leftovers == []
        assert sum(b.revenue for b in blocks) == 21_000 * 5

    def test_overfull_pool_takes_two_blocks(self):
        txs = [tx(f"s{i}", 0, 2, gas=10_000_000, gas_limit=10_000_000) for i in range(4)]
        pool, world = _pool(txs)
        blocks, leftovers = drain(pool, world)
        assert [len(b.txs) for b in blocks] == [3, 1] and leftovers == []
        assert sum(b.revenue for b in blocks) == sum(t.fee for t in txs)

    def test_permanent_nonce_gap_becomes_unbuildable(self):
        # world nonce jumps past a pending tx between admission and drain,
        # stranding the rest of the chain
        pool, world = _pool([tx("A", 0, 3), tx("A", 1, 3)])
        world.accounts.setdefault("A", AccountState()).nonce = 5
        txs = pool.pending()
        blocks, leftovers = drain(pool, world)
        assert blocks == [] and len(pool) == 0
        assert leftovers == txs

    def test_a_sender_with_no_account_is_built(self):
        # apply_admission places txs without a precheck, so a sender may
        # have no account: its confirmed nonce reads 0, and the account is
        # made on inclusion, its balance going below zero by the tx's fee
        for build in ("build_block", "drain"):
            world = WorldState()
            pool = Mempool(capacity=3)
            txs = [tx("A", 0, 5), tx("A", 1, 4), tx("B", 1, 9)]
            for t in txs:
                pool.apply_admission(t, None)
            if build == "build_block":
                built, left = build_block(pool, world).block.txs, pool.pending()
            else:
                blocks, left = drain(pool, world)
                built = [t for block in blocks for t in block.txs]
            assert built == txs[:2] and left == txs[2:], build
            assert (world.accounts["A"].nonce, world.accounts["A"].balance) == (2, -9 * 21_000)
            assert "B" not in world.accounts

    def test_terminates_on_oversized_tx(self):
        t = Transaction(sender="A", nonce=0, price=1, gas_used=40_000_000, gas_limit=40_000_000)
        world = WorldState(block_gas_limit=GAS_LIMIT_30M)
        fund(world, "A", WEI)
        pool = Mempool(capacity=1)
        fill_pool(pool, world, [t])
        blocks, leftovers = drain(pool, world)
        assert blocks == [] and sum(b.revenue for b in blocks) == 0
        assert leftovers == [t] and len(pool) == 0


# just over half a block, so a block of these holds one
HALF_BLOCK_PLUS = GAS_LIMIT_30M // 2 + 1


def _one_per_block(n):
    """n one-tx senders whose txs take one block each (cp)."""
    txs = [tx(f"s{i}", 0, 1 + i % 7, gas=HALF_BLOCK_PLUS) for i in range(n)]
    return txs, n, "cp"


def _orphans(k):
    """k senders with nonce 0 at price 1 and nonce 1 at 1000, then k
    one-block txs at 500 that evict every nonce 0 (baseline): the k orphans
    rank first in every drain block and none can ever be built."""
    pairs = [tx(f"o{i}", n, (1, 1000)[n]) for i in range(k) for n in (0, 1)]
    big = [tx(f"b{i}", 0, 500, gas=HALF_BLOCK_PLUS) for i in range(k)]
    return pairs + big, 2 * k, "baseline"


def _promotion(_):
    """A buildable prefix (p:0, p:1) priced below everything else, with a
    gap tx (p:3) above it all: p:3 places p:0 and p:1 first."""
    txs = [tx("p", 0, 5), tx("p", 1, 6), tx("p", 2, 1), tx("p", 3, 900)]
    txs += [tx(f"f{i}", 0, 10 + i) for i in range(6)]
    # the pool is full: this evicts p:2, the cheapest, and leaves the gap
    txs.append(tx("x", 0, 50))
    return txs, 10, "baseline"


def _stale_head(_):
    """A:0..3, whose confirmed nonce the test moves to 2 after admission:
    A:2 and A:3 can be built, A:0 and A:1 never."""
    return [tx("A", nonce, 5) for nonce in range(4)], 4, "cp"


def _overflow_child(_):
    """b:0 takes 60k of a 100k block, then a:0 (50k) overflows it while its
    child a:1 (21k) would fit: a:1 waits for a:0, and both fill block 2."""
    return [tx("b", 0, 100, gas=60_000), tx("a", 0, 50, gas=50_000), tx("a", 1, 40)], 3, "cp"


def _filled(make, n, block_gas_limit=GAS_LIMIT_30M):
    txs, capacity, kind = make(n)
    pool = Mempool(capacity=capacity)
    world = WorldState(block_gas_limit=block_gas_limit)
    fill_pool(pool, world, txs, kind)
    return pool, world


def _assert_drains_alike(pool, world):
    """``drain`` and the block-at-a-time oracle drain the same pool alike:
    the same blocks, leftovers and world; both end empty."""
    txs = pool.pending()
    twin = Mempool(capacity=pool.capacity)
    twin_world = world.clone()
    # the same tx objects, admitted in the same order, give the same seqs
    for t in txs:
        twin.apply_admission(t, None)
    blocks, leftovers = drain(pool, world)
    expected, expected_leftovers = oracles.drain(twin, twin_world)
    assert [b.txs for b in blocks] == [b.txs for b in expected]
    assert leftovers == expected_leftovers
    assert world.accounts == twin_world.accounts
    assert len(pool) == len(twin) == 0
    return blocks, leftovers


@pytest.mark.parametrize(
    "make, n, limit",
    [
        (_one_per_block, 40, GAS_LIMIT_30M),
        (_orphans, 20, GAS_LIMIT_30M),
        (_promotion, 0, 3 * 21_000),
        (_stale_head, 0, GAS_LIMIT_30M),
        (_overflow_child, 0, 100_000),
    ],
    ids=["one_per_block", "orphans", "promotion", "stale_head", "overflow_child"],
)
def test_hostile_drains_match_block_at_a_time_drain(make, n, limit):
    pool, world = _filled(make, n, limit)
    if make is _stale_head:
        world.accounts.setdefault("A", AccountState()).nonce = 2
    blocks, leftovers = _assert_drains_alike(pool, world)
    if make is _stale_head:
        assert [[(t.sender, t.nonce) for t in b.txs] for b in blocks] == [[("A", 2), ("A", 3)]]
        assert [(t.sender, t.nonce) for t in leftovers] == [("A", 0), ("A", 1)]
    if make is _promotion:
        # the gap tx p:3 ranks first, so its prefix leads the first block
        assert [(t.sender, t.nonce) for t in blocks[0].txs][:2] == [("p", 0), ("p", 1)]
        assert [(t.sender, t.nonce) for t in leftovers] == [("p", 3)]
    if make is _overflow_child:
        assert [[(t.sender, t.nonce) for t in b.txs] for b in blocks] == [
            [("b", 0)], [("a", 0), ("a", 1)]
        ]


@pytest.mark.parametrize("policy_kind", ["baseline", "cp", "map"])
@pytest.mark.parametrize("seed", range(8))
def test_drain_matches_block_at_a_time_drain(policy_kind, seed):
    # random pools with gaps (baseline evicts parents), mixed gas, limits
    # from below one minimum tx to room for a few dozen, and now and then a
    # confirmed nonce moved into a sender's chain, so its head is stale
    rng = random.Random(40 + seed)
    world = WorldState()
    senders = [f"d{i}" for i in range(8)]
    for s in senders:
        fund(world, s, WEI)
    pool = Mempool(capacity=40)
    policy = PolicyConfig(kind=policy_kind).build()
    for _ in range(400):
        if rng.random() < 0.05:
            build_block(pool, world)
        else:
            _random_admit(rng, pool, world, policy, senders, {}, (21_000, 50_000, 200_000))
    world.block_gas_limit = rng.choice((MIN_TX_GAS - 1, 150_000, 400_000, 900_000))
    for s in senders:
        chain = pool.chain(s)
        if len(chain) > 1 and rng.random() < 0.3:
            acct = world.accounts.setdefault(s, AccountState())
            acct.nonce = rng.choice([t.nonce for t in chain.txs[1:]])
    _assert_drains_alike(pool, world)


def _drain_seconds(make, n):
    pool, world = _filled(make, n)
    gc.disable()  # as timeit does: a collection's cost is the whole process's
    try:
        start = time.perf_counter()
        drain(pool, world)
        return time.perf_counter() - start
    finally:
        gc.enable()


@pytest.mark.parametrize("make, n", [(_one_per_block, 2_560), (_orphans, 1_280)])
def test_hostile_drain_scales_near_linearly(make, n):
    # a drain that re-ranks or walks the whole pool for every block grows as
    # pool x blocks, 4x per doubling; a near-linear one about 2x. Each round
    # times both sizes back to back, so a slow spell of the host slows both,
    # and the median round is compared
    ratios = sorted(_drain_seconds(make, 2 * n) / _drain_seconds(make, n) for _ in range(7))
    ratio = ratios[len(ratios) // 2]
    assert ratio <= 2.5, f"{make.__name__}: median {ratio:.2f}x of {ratios}"


def _drain_walk(make, n, monkeypatch):
    """How many candidates ``_fill`` takes from its orders over one ``drain``
    of the pool that ``make(n)`` fills."""
    pool, world = _filled(make, n)
    walked = 0
    fill = builder._fill

    def counting_fill(order, *args, **kwargs):
        def counted():
            nonlocal walked
            for tx in order:
                walked += 1
                yield tx

        return fill(counted(), *args, **kwargs)

    monkeypatch.setattr(builder, "_fill", counting_fill)
    drain(pool, world)
    return walked


@pytest.mark.parametrize("make, n", [(_one_per_block, 2_560), (_orphans, 1_280)])
def test_hostile_drain_walks_each_candidate_at_most_twice(make, n, monkeypatch):
    # the count behind the timed gate above: each one-tx block walks the tx
    # it includes and the one it stops at, 2n - 1 in all; a drain that
    # walked each block from the first candidate would walk n^2 / 2
    for size in (n, 2 * n):
        walked = _drain_walk(make, size, monkeypatch)
        assert walked <= 2 * size, f"{make.__name__}({size}): {walked} candidates walked"


# the reader that builds each policy's per-sender index, and with it the
# chains' fee lists, as a full pool under that policy has them
_BUILD_FEE_LISTS = {"cp": Mempool.min_price_childless, "map": Mempool.min_fee_tx}


def _chain_build_seconds(kind, rising, n=5_120):
    """Seconds that ``build_block`` takes to empty a pool of one sender's
    n-tx chain, its fees rising along its nonces or all equal; under cp and
    map the policy's per-sender index is built first."""
    pool = Mempool(capacity=n)
    world = WorldState(block_gas_limit=GAS_LIMIT_30M)
    fill_pool(pool, world, [tx("c", i, 1 + i if rising else n) for i in range(n)], kind)
    if kind in _BUILD_FEE_LISTS:
        _BUILD_FEE_LISTS[kind](pool)
    gc.disable()
    try:
        start = time.perf_counter()
        while len(pool):
            build_block(pool, world)
        return time.perf_counter() - start
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["baseline", "cp", "map"])
def test_rising_fee_chain_builds_as_fast_as_a_flat_one(kind):
    # every inclusion takes the chain's head, which on the rising chain holds
    # its lowest fee: a chain that searched its remaining fees for the new
    # minimum would pay O(chain) per inclusion there and nothing on the flat
    # chain. Each round times both chains back to back; the median round is
    # compared
    ratios = sorted(
        _chain_build_seconds(kind, True) / _chain_build_seconds(kind, False) for _ in range(5)
    )
    ratio = ratios[len(ratios) // 2]
    assert ratio <= 2.0, f"{kind}: median {ratio:.2f}x of {ratios}"


class _ScanCountingList(list):
    """A list that counts the scans of it: each ``__iter__`` call."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


@pytest.mark.parametrize("kind", ["baseline", "cp", "map"])
def test_rising_fee_chain_builds_without_scanning_its_fees(kind):
    # the count behind the timed gate above: each inclusion deletes the
    # chain's head, its lowest fee on the rising chain, and the new minimum
    # is the sorted list's next head, so no inclusion reads the whole list.
    # Only cp's childless index and map's fee-head index read the minimum,
    # so under baseline the chain keeps no fee list at all
    n = 2_000
    pool = Mempool(capacity=n)
    world = WorldState(block_gas_limit=GAS_LIMIT_30M)
    fill_pool(pool, world, [tx("c", i, 1 + i) for i in range(n)], kind)
    chain = pool.chain("c")
    if kind in _BUILD_FEE_LISTS:
        _BUILD_FEE_LISTS[kind](pool)
        chain.fees = _ScanCountingList(chain.fees)
    while len(pool):
        build_block(pool, world)
    if kind == "baseline":
        assert chain.fees is None
    else:
        assert chain.fees.scans == 0, f"{chain.fees.scans} scans of the chain's fees"
