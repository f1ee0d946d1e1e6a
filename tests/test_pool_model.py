"""Stateful model of the pool: hypothesis drives admissions and block
builds against a linear-scan reference pool.

The reference keeps the pending set as a plain list in admission order and
answers every question by scanning it: its precheck and its ``decide`` per
policy share no code with ``Mempool``'s chains and order indexes. After each
step the machine compares every outcome, the pending set, each sender's
chain and every order index the pool has built with the reference, checks
that a pool left to its policy builds no other policy's index, and checks the
policies' invariants: cp's price sum never falls on an admission, neither
cp nor map turns a resident future, and map never admits a future tx.
(cp may evict the arrival's own sender's tail; that case is a known open
defect and is not asserted here.)
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from mempoolsim import (
    AdmissionOutcome,
    Mempool,
    PolicyConfig,
    Reason,
    Transaction,
    WorldState,
    build_block,
)

import oracles
from conftest import WEI, fund
from oracles import (
    ListPendingView,
    cumulative_cost,
    find_childless,
    is_future,
    pending_by_fee,
    pending_by_price,
)

SENDERS = ("a", "b", "c", "d", "e")
# An arrival is (sender, nonce offset, price, gas). The offset is taken
# from the nonce after the sender's pending txs: mostly 0, sometimes above
# (future, or a gap refilled after an eviction) or below (a duplicate, or
# stale when nothing is pending). Few prices and two gas sizes make equal
# prices and equal fees common: price 2 at 21,000 gas and price 1 at
# 42,000 gas carry the same fee.
ARRIVALS = st.lists(
    st.tuples(
        st.sampled_from(SENDERS),
        st.sampled_from((0, 0, 0, 1, -1, -2)),
        st.sampled_from((1, 2, 2, 3, 4)),
        st.sampled_from((21_000, 42_000)),
    ),
    min_size=1,
    max_size=6,
)
# three senders pay for every tx; "d" overdraws after a few, and as every
# cost here is a multiple of 21,000 wei so is its balance, so a chain can cost
# exactly that balance; "e" has no account, so every tx it sends is refused
BALANCES = {"a": WEI, "b": WEI, "c": WEI, "d": 126_000}
# the pool's lazily built order indexes, and the one each policy reads
_INDEXES = ("_by_price", "_by_fee", "_childless")
_POLICY_INDEX = {"baseline": "_by_price", "cp": "_childless", "map": "_by_fee"}


class ReferencePool:
    """The pending set as a list in admission order, queried by scans."""

    def __init__(self, capacity: int, per_sender_limit: Optional[int]):
        self.capacity = capacity
        self.per_sender_limit = per_sender_limit
        self.pending: List[Transaction] = []
        self.admitted_at: Dict[Transaction, int] = {}
        # decisions whose victim or seed shared its price (fee under map)
        # with another candidate
        self.ties = 0

    def sender_txs(self, sender: str) -> List[Transaction]:
        return sorted((t for t in self.pending if t.sender == sender), key=lambda t: t.nonce)

    def min_fee_of(self, sender: str) -> int:
        return min(t.fee for t in self.pending if t.sender == sender)

    def precheck(self, tx: Transaction, world: WorldState) -> Optional[Reason]:
        view = ListPendingView(self.pending)
        if tx.nonce < world.nonce_of(tx.sender):
            return Reason.STALE
        if view.get(tx.sender, tx.nonce) is not None:
            return Reason.DUPLICATE
        if is_future(tx, view, world):
            return Reason.INVALID_FUTURE
        acct = world.accounts.get(tx.sender)
        balance = acct.balance if acct is not None else 0
        if cumulative_cost(tx.sender, tx.nonce - 1, view) + tx.cost > balance:
            return Reason.INVALID_OVERDRAFT
        if self.per_sender_limit is not None:
            if len(view.sender_txs(tx.sender)) >= self.per_sender_limit:
                return Reason.SENDER_LIMIT
        return None

    def decide(self, kind: str, tx: Transaction) -> Tuple[Reason, Optional[Transaction]]:
        if len(self.pending) < self.capacity:
            return Reason.POOL_NOT_FULL, None
        seq = self.admitted_at.__getitem__
        if kind == "baseline":
            victim = min(self.pending, key=lambda t: (t.price, seq(t)))
            self.ties += sum(t.price == victim.price for t in self.pending) > 1
            if tx.price > victim.price:
                return Reason.EVICTION, victim
            return Reason.PRICE_TOO_LOW, None
        if kind == "cp":
            childless = [t for t in self.pending if t is self.sender_txs(t.sender)[-1]]
            victim = min(childless, key=lambda t: (t.price, self.min_fee_of(t.sender), seq(t)))
            self.ties += sum(t.price == victim.price for t in childless) > 1
            if tx.price > victim.price:
                return Reason.EVICTION, victim
            return Reason.PRICE_TOO_LOW, None
        seed = min(self.pending, key=lambda t: (t.fee, seq(t)))
        self.ties += sum(t.fee == seed.fee for t in self.pending) > 1
        if tx.fee <= seed.fee:
            return Reason.FEE_TOO_LOW, None
        if seed.sender == tx.sender:
            return Reason.SELF_EVICTION, None
        return Reason.EVICTION, self.sender_txs(seed.sender)[-1]

    def admit(self, kind: str, tx: Transaction, world: WorldState):
        reason = self.precheck(tx, world)
        victim = None
        if reason is None:
            reason, victim = self.decide(kind, tx)
        if reason is Reason.POOL_NOT_FULL or reason is Reason.EVICTION:
            if victim is not None:
                self.pending.remove(victim)
            self.pending.append(tx)
            self.admitted_at[tx] = len(self.admitted_at)
        return reason, victim


def _check_equal(pool: Mempool, ref: ReferencePool) -> None:
    """``pool`` holds what ``ref`` holds, in every view and in each order
    index it has built; an index not yet built is left unbuilt, so ``pool``
    keeps only the ones its readers asked for."""
    assert pool.pending() == ref.pending
    assert len(pool) == len(ref.pending) <= pool.capacity
    assert (len(pool) >= pool.capacity) == (len(ref.pending) >= ref.capacity)
    for sender in SENDERS:
        chain = pool.chain(sender)
        txs = ref.sender_txs(sender)
        assert chain.txs == txs
        assert chain.cost == sum(t.cost for t in txs)
        if pool._childless is not None and txs:
            assert chain.fees == sorted(t.fee for t in txs)
    seq = ref.admitted_at.__getitem__
    if pool._by_price is not None:
        assert pending_by_price(pool) == sorted(ref.pending, key=lambda t: (t.price, seq(t)))
    if pool._by_fee is not None:
        assert pending_by_fee(pool) == sorted(ref.pending, key=lambda t: (t.fee, seq(t)))
    if pool._childless is not None:
        tails = [ref.sender_txs(s)[-1] for s in SENDERS if ref.sender_txs(s)]
        assert find_childless(pool) == sorted(
            tails, key=lambda t: (t.price, ref.min_fee_of(t.sender), seq(t))
        )


class PoolModel(RuleBasedStateMachine):
    """One pool under one policy (``KIND``) and per-sender limit
    (``LIMIT``), against ``ReferencePool``. A test sets both, and ``seen``,
    on a subclass."""

    KIND: str
    LIMIT: Optional[int]
    # reasons and ties seen across a whole run, for the coverage check
    seen: Counter

    def __init__(self):
        super().__init__()
        self.policy = PolicyConfig(kind=self.KIND).build()

    @initialize(capacity=st.integers(2, 6), every_index=st.booleans())
    def start(self, capacity, every_index):
        # a block holds three small txs, so a build leaves most of a full pool
        self.world = WorldState(block_gas_limit=3 * 21_000)
        for sender, balance in BALANCES.items():
            fund(self.world, sender, balance)
        self.ref_world = self.world.clone()
        self.pool = Mempool(capacity, self.LIMIT)
        self.ref = ReferencePool(capacity, self.LIMIT)
        self.every_index = every_index
        if every_index:
            # read every order index now, so the pool keeps all three
            # current from the first admission, not only its policy's
            self.pool.min_price_tx()
            self.pool.min_fee_tx()
            self.pool.min_price_childless()

    @staticmethod
    def _arrival(arrival, pool: Mempool, world: WorldState) -> Transaction:
        sender, offset, price, gas = arrival
        nonce = max(world.nonce_of(sender) + len(pool.chain(sender)) + offset, 0)
        return Transaction(sender, nonce, price, gas)

    @rule(arrivals=ARRIVALS)
    def admit(self, arrivals):
        for arrival in arrivals:
            self._admit_one(self._arrival(arrival, self.pool, self.world))

    def _admit_one(self, tx: Transaction) -> None:
        before = list(self.ref.pending)
        price_sum = sum(t.price for t in self.pool.pending())
        outcome = self.pool.admit(tx, self.world, self.policy)
        reason, victim = self.ref.admit(self.KIND, tx, self.ref_world)
        # the outcome, beside the arrival passed in, is the only record of a
        # decline or an eviction: it names no arrival, and the arrival is
        # pending iff it was admitted
        assert isinstance(outcome, AdmissionOutcome) and (tx in self.pool) is outcome.admitted
        assert (outcome.reason, outcome.victim) == (reason, victim)
        self.seen[reason] += 1
        if not outcome.admitted:
            return
        if self.KIND == "cp":
            assert sum(t.price for t in self.pool.pending()) >= price_sum
        if self.KIND in ("cp", "map"):
            flags = oracles.transition_flags(before, self.ref.pending, self.world)
            assert not flags.pending_turn_future
        if self.KIND == "map":
            assert not is_future(tx, ListPendingView(self.ref.pending), self.world)

    @rule()
    def build(self):
        result = build_block(self.pool, self.world)
        included, _ = oracles.build_block(self.ref.pending, self.ref.admitted_at, self.ref_world)
        assert result.block.txs == included
        for t in included:
            self.ref.pending.remove(t)
        assert self.world.accounts == self.ref_world.accounts

    @invariant()
    def matches_reference(self):
        _check_equal(self.pool, self.ref)

    @invariant()
    def builds_only_what_is_read(self):
        built = {name for name in _INDEXES if getattr(self.pool, name) is not None}
        if self.every_index:
            assert built == set(_INDEXES)
        else:
            assert built <= {_POLICY_INDEX[self.KIND]}, built
        # only _childless's key reads a chain's minimum fee: until it is
        # built, no chain keeps a fee list
        if "_childless" not in built:
            assert all(chain.fees is None for chain in self.pool.chains().values())
        # matches_reference compares these indexes with the reference
        self.seen["every index" if self.every_index else "policy index"] += bool(built)

    def teardown(self):
        if hasattr(self, "ref"):
            self.seen["tie"] += self.ref.ties


# reasons a run under any policy must reach
_EVERY_POLICY_REASONS = {
    Reason.STALE,
    Reason.DUPLICATE,
    Reason.INVALID_FUTURE,
    Reason.INVALID_OVERDRAFT,
    Reason.POOL_NOT_FULL,
    Reason.EVICTION,
}


# derandomized, so tier-1 runs the same examples every time
MODEL_SETTINGS = settings(max_examples=20, stateful_step_count=30, derandomize=True, deadline=None)


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("kind, declines", [
    ("baseline", {Reason.PRICE_TOO_LOW}),
    ("cp", {Reason.PRICE_TOO_LOW}),
    ("map", {Reason.FEE_TOO_LOW, Reason.SELF_EVICTION}),
])
def test_pool_matches_the_reference(kind, declines, limit):
    model = type(f"{kind}Model", (PoolModel,), {"KIND": kind, "LIMIT": limit, "seen": Counter()})
    run_state_machine_as_test(model, settings=MODEL_SETTINGS)
    # the run reached every reason its policy and limit can give, and ties,
    # and compared built indexes both with every index kept and with only
    # the policy's
    expected = _EVERY_POLICY_REASONS | declines | {"tie", "every index", "policy index"}
    if limit is not None:
        expected.add(Reason.SENDER_LIMIT)
    assert set(model.seen) >= expected, model.seen
