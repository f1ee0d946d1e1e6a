"""Bounded transaction pool with price-ordered and sender/nonce-ordered indexes.

``Mempool.admit`` is the one admission path: ``precheck`` returns the
``Reason`` a tx is invalid (None if it is valid), then the policy's
``decide`` reads the pool and returns an ``AdmissionOutcome``, which
``admit`` applies (``apply_admission`` for an admission) and returns
unchanged.

The pool always keeps these views of the pending set:

* ``_by_key`` - ``(sender, nonce) -> tx`` in admission order: every insert
  adds a fresh key, so ``pending()`` lists txs oldest first
* one ``SenderChain`` per sender (``chain(sender)``) - the sender's txs in
  ascending nonce order with their running cost and minimum fee, and the
  end of the contiguous nonce run from any start (``run_end``), which is
  what the future test reads

and these order indexes, each a ``SortedList`` of ``(key, seq, tx)``
tuples, where ``seq`` is the tx's unique admission number (so ties go
oldest first and a comparison never reaches ``tx``):

* ``_by_price`` / ``_by_fee`` - all pending txs by price or fee
* ``_childless`` - each sender's maximal-nonce tx by price, which is what
  chain-safe eviction scans

An order index does not exist until something first reads it; it is then
built from ``_by_key`` or the chains and kept current by every later
insert and removal. Each policy reads one order, so a replay maintains
only the index its policy uses.

Mutations are single-writer; reads on a snapshot (``clone``) are safe to
share across threads. A first read builds an index from state no reader
changes, so two racing first reads build equal indexes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from sortedcontainers import SortedList

from .core import AdmissionOutcome, OutcomeKind, PoolError, Reason, Transaction, WorldState


class SenderChain:
    """One sender's pending transactions, sorted by nonce.

    ``nonces`` mirrors ``txs`` so lookups bisect a plain ``int`` list.
    ``fees`` counts the chain's txs per fee; ``min_fee`` caches its minimum
    and is recomputed only when the last tx at that fee leaves.
    """

    __slots__ = ("txs", "nonces", "cost", "fees", "min_fee")

    def __init__(self) -> None:
        self.txs: List[Transaction] = []
        self.nonces: List[int] = []
        self.cost = 0
        self.fees: Dict[int, int] = {}
        self.min_fee: Optional[int] = None

    def __len__(self) -> int:
        return len(self.txs)

    def copy(self) -> "SenderChain":
        other = SenderChain()
        other.txs = list(self.txs)
        other.nonces = list(self.nonces)
        other.cost = self.cost
        other.fees = dict(self.fees)
        other.min_fee = self.min_fee
        return other

    def run_end(self, start: int) -> int:
        """First nonce >= ``start`` that the chain does not hold.

        Nonces strictly increase, so ``nonces[i] - i`` never decreases and
        the run that begins at ``start`` is the stretch where it stays equal.
        """
        nonces = self.nonces
        i = bisect_left(nonces, start)
        if i == len(nonces) or nonces[i] != start:
            return start
        last = len(nonces) - 1
        offset = start - i
        if nonces[last] - last == offset:
            return nonces[last] + 1
        # nonces[hi] - hi > offset; find the first index where it exceeds
        lo, hi = i + 1, last
        while lo < hi:
            mid = (lo + hi) // 2
            if nonces[mid] - mid > offset:
                hi = mid
            else:
                lo = mid + 1
        return nonces[lo - 1] + 1

    def insert(self, tx: Transaction) -> None:
        nonce = tx.nonce
        if not self.nonces or nonce > self.nonces[-1]:
            self.txs.append(tx)
            self.nonces.append(nonce)
        else:
            i = bisect_left(self.nonces, nonce)
            self.txs.insert(i, tx)
            self.nonces.insert(i, nonce)
        self.cost += tx.cost
        fee = tx.fee
        self.fees[fee] = self.fees.get(fee, 0) + 1
        if self.min_fee is None or fee < self.min_fee:
            self.min_fee = fee

    def remove(self, tx: Transaction) -> None:
        if self.txs[-1] is tx:
            self.txs.pop()
            self.nonces.pop()
        else:
            i = bisect_left(self.nonces, tx.nonce)
            del self.txs[i]
            del self.nonces[i]
        self.cost -= tx.cost
        fee = tx.fee
        left = self.fees[fee] - 1
        if left:
            self.fees[fee] = left
        else:
            del self.fees[fee]
            if fee == self.min_fee:
                self.min_fee = min(self.fees) if self.fees else None


# returned by ``Mempool.chain`` for a sender with nothing pending; never mutated
_NO_CHAIN = SenderChain()


class Mempool:
    def __init__(self, capacity: int, per_sender_limit: Optional[int] = None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if per_sender_limit is not None and per_sender_limit < 1:
            raise ValueError("per-sender limit must be positive")
        self.capacity = capacity
        self.per_sender_limit = per_sender_limit
        self._by_key: Dict[Tuple[str, int], Transaction] = {}
        self._chains: Dict[str, SenderChain] = {}
        self._seq_of: Dict[Transaction, int] = {}
        self._next_seq = 0
        # order indexes of (key, seq, tx), each built on its first read
        self._by_price: Optional[SortedList] = None
        self._by_fee: Optional[SortedList] = None
        self._childless: Optional[SortedList] = None
        self.declined: List[Tuple[Transaction, Reason]] = []
        self._price_sum = 0
        self._fee_sum = 0

    # ------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, tx: Transaction) -> bool:
        return self._by_key.get((tx.sender, tx.nonce)) is tx

    @property
    def full(self) -> bool:
        return len(self._by_key) >= self.capacity

    def get(self, sender: str, nonce: int) -> Optional[Transaction]:
        return self._by_key.get((sender, nonce))

    def chain(self, sender: str) -> SenderChain:
        """``sender``'s pending chain (read-only; empty if nothing is pending)."""
        return self._chains.get(sender, _NO_CHAIN)

    def pending(self) -> List[Transaction]:
        """All pending txs in admission order, oldest first.

        ``_by_key`` is a dict and every insert adds a fresh key, so its order
        is ascending admission seq; ``candidate_order`` relies on this.
        """
        return list(self._by_key.values())

    def price_sum(self) -> int:
        return self._price_sum

    def fee_sum(self) -> int:
        return self._fee_sum

    def _price_index(self) -> SortedList:
        if self._by_price is None:
            seq_of = self._seq_of
            self._by_price = SortedList((t.price, seq_of[t], t) for t in self._by_key.values())
        return self._by_price

    def _fee_index(self) -> SortedList:
        if self._by_fee is None:
            seq_of = self._seq_of
            self._by_fee = SortedList((t.fee, seq_of[t], t) for t in self._by_key.values())
        return self._by_fee

    def _childless_index(self) -> SortedList:
        if self._childless is None:
            seq_of = self._seq_of
            tails = [chain.txs[-1] for chain in self._chains.values()]
            self._childless = SortedList((t.price, seq_of[t], t) for t in tails)
        return self._childless

    def min_price_tx(self) -> Optional[Transaction]:
        """Globally cheapest pending tx, oldest first among equal prices."""
        index = self._price_index()
        return index[0][2] if index else None

    def min_fee_tx(self) -> Optional[Transaction]:
        """Pending tx with minimal fee, oldest first among equal fees."""
        index = self._fee_index()
        return index[0][2] if index else None

    def min_price_childless(self) -> Optional[Transaction]:
        """Cheapest childless tx.

        Among equal prices the tx whose sender holds the smaller chain-minimum
        fee is preferred, then insertion order (oldest first).
        """
        index = self._childless_index()
        if not index:
            return None
        lowest = index[0][0]
        chains = self._chains
        best = None
        for price, seq, tx in index:
            if price != lowest:
                break
            rank = (chains[tx.sender].min_fee, seq)
            if best is None or rank < best[0]:
                best = (rank, tx)
        return best[1]

    # ------------------------------------------------------------- checks

    def precheck(self, tx: Transaction, world: WorldState) -> Optional[Reason]:
        """Why ``tx`` is invalid, or None if it is valid.

        Checks run in the order stale -> duplicate -> future -> overdraft and
        read the sender's chain: the future test is one ``run_end`` and the
        overdraft test sums the chain's cost below ``tx.nonce`` (O(1) when
        ``tx`` extends the chain).
        """
        confirmed = world.nonce_of(tx.sender)
        if tx.nonce < confirmed:
            return Reason.STALE
        if (tx.sender, tx.nonce) in self._by_key:
            return Reason.DUPLICATE
        chain = self.chain(tx.sender)
        if tx.nonce > confirmed and chain.run_end(confirmed) < tx.nonce:
            return Reason.INVALID_FUTURE
        nonces = chain.nonces
        if not nonces or tx.nonce > nonces[-1]:
            below = chain.cost
        else:
            below = sum(t.cost for t in chain.txs[: bisect_left(nonces, tx.nonce)])
        if below + tx.cost > world.balance_of(tx.sender):
            return Reason.INVALID_OVERDRAFT
        return None

    # ---------------------------------------------------------- mutation

    def _insert(self, tx: Transaction) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seq_of[tx] = seq
        self._by_key[(tx.sender, tx.nonce)] = tx
        chain = self._chains.get(tx.sender)
        if chain is None:
            chain = self._chains[tx.sender] = SenderChain()
        old_tail = chain.txs[-1] if chain.txs else None
        chain.insert(tx)
        price = tx.price
        childless = self._childless
        if childless is not None and chain.txs[-1] is tx:
            if old_tail is not None:
                childless.remove((old_tail.price, self._seq_of[old_tail], old_tail))
            childless.add((price, seq, tx))
        if self._by_price is not None:
            self._by_price.add((price, seq, tx))
        fee = tx.fee
        if self._by_fee is not None:
            self._by_fee.add((fee, seq, tx))
        self._price_sum += price
        self._fee_sum += fee

    def _remove(self, tx: Transaction) -> None:
        key = (tx.sender, tx.nonce)
        if self._by_key.get(key) is not tx:
            raise PoolError(f"{tx!r} not pending")
        del self._by_key[key]
        seq = self._seq_of.pop(tx)
        chain = self._chains[tx.sender]
        was_tail = chain.txs[-1] is tx
        chain.remove(tx)
        price = tx.price
        childless = self._childless
        if childless is not None and was_tail:
            childless.remove((price, seq, tx))
            if chain.txs:
                tail = chain.txs[-1]
                childless.add((tail.price, self._seq_of[tail], tail))
        if not chain.txs:
            del self._chains[tx.sender]
        if self._by_price is not None:
            self._by_price.remove((price, seq, tx))
        fee = tx.fee
        if self._by_fee is not None:
            self._by_fee.remove((fee, seq, tx))
        self._price_sum -= price
        self._fee_sum -= fee

    def apply_admission(self, tx: Transaction, victims: Sequence[Transaction]) -> None:
        """Remove ``victims`` (recorded as evicted), then insert ``tx``."""
        for victim in victims:
            if victim not in self:
                raise PoolError(f"victim {victim!r} not pending")
        if len(self._by_key) - len(victims) + 1 > self.capacity:
            raise PoolError("admission would exceed capacity")
        for victim in victims:
            self._remove(victim)
            self.declined.append((victim, Reason.EVICTION))
        self._insert(tx)

    def remove_included(self, tx: Transaction) -> None:
        """Drop a tx that was included in a block (not an eviction)."""
        self._remove(tx)

    def decline(self, tx: Transaction, reason: Reason) -> None:
        self.declined.append((tx, reason))

    # ---------------------------------------------------------- admission

    def admit(self, tx: Transaction, world: WorldState, policy) -> AdmissionOutcome:
        """Precheck ``tx``, let ``policy.decide`` choose, apply its outcome.

        The outcome returned is the policy's own, or a decline built here
        when the precheck or the per-sender limit refuses ``tx``.
        """
        reason = self.precheck(tx, world)
        if reason is None and self.per_sender_limit is not None:
            if len(self.chain(tx.sender)) >= self.per_sender_limit:
                reason = Reason.SENDER_LIMIT
        if reason is not None:
            self.decline(tx, reason)
            return AdmissionOutcome(OutcomeKind.DECLINED, reason, tx)
        outcome = policy.decide(self, tx)
        if outcome.kind is OutcomeKind.DECLINED:
            self.decline(tx, outcome.reason)
        else:
            self.apply_admission(tx, outcome.victims)
        return outcome

    # ---------------------------------------------------------- snapshot

    def clone(self) -> "Mempool":
        """Independent copy; only the order indexes that exist are copied."""
        other = Mempool(self.capacity, self.per_sender_limit)
        other._by_key = dict(self._by_key)
        other._chains = {s: chain.copy() for s, chain in self._chains.items()}
        other._seq_of = dict(self._seq_of)
        other._next_seq = self._next_seq
        if self._by_price is not None:
            other._by_price = self._by_price.copy()
        if self._by_fee is not None:
            other._by_fee = self._by_fee.copy()
        if self._childless is not None:
            other._childless = self._childless.copy()
        other.declined = list(self.declined)
        other._price_sum = self._price_sum
        other._fee_sum = self._fee_sum
        return other
