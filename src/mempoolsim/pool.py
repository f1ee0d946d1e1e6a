"""Bounded transaction pool with price-ordered and sender/nonce-ordered indexes.

``Mempool.admit`` is the one admission path: ``precheck`` returns the
``Reason`` a tx is invalid (None if it is valid), then the per-sender limit
applies, then a free slot admits the tx as ``POOL_NOT_FULL``; only at a
full pool does the policy's ``decide`` choose. ``admit`` applies an
admission (``apply_admission``) and returns the outcome unchanged.

The pool keeps only its pending set, always in these views:

* ``_seq_of`` - the pending set itself, ``tx -> admission seq`` in
  admission order: every insert adds a fresh key, so ``pending()`` lists
  txs oldest first
* one ``SenderChain`` per sender (``chain(sender)``) - the sender's txs
  in ascending nonce order and their summed cost, and, once a per-sender
  index is built, their fees as ascending ``(fee, seq, tx)`` entries (the
  head is the chain's lowest fee, so no removal rescans for it). The
  duplicate test and ``run_end`` (the end of the contiguous nonce run from
  any start, which is what the future test reads) bisect the txs by nonce

and these order indexes, each a sorted list of tuples that end in
``(seq, tx)``, where ``seq`` is the tx's unique admission number (so ties
go oldest first and a comparison never reaches ``tx``). Each serves one
policy:

* ``_by_price`` (baseline) - one ``(price, seq, tx)`` entry per pending tx
* ``_fee_heads`` (map) - one entry per sender, the head of its chain's fee
  list, so the first entry is the pending tx of lowest ``(fee, seq)``, the
  eviction seed: the paper's per-sender lowest-fee index
* ``_childless`` (cp) - one entry per sender, its maximal-nonce tx as
  ``(price, chain's lowest fee, seq, tx)`` (``_tail_key``), so the first
  entry is chain-safe eviction's victim

An order index does not exist until something first reads it; it is then
built from ``_seq_of`` or the chains and kept exact by every later change.
``_by_price`` takes an insert's entry with ``insort`` and deletes an
eviction's at ``bisect_left`` of its key less ``tx``. A per-sender index
changes only where a chain's entry does: each chain keeps the entries it
holds in them, and ``_rekey`` swaps those for the chain's current ones
after each change to the chain, which is a no-op unless its tail or its
fee head moved. A reader takes the first entry. A change costs O(log pool)
comparisons and one memmove of up to ``capacity`` pointers (~40 KB at
5120), against a heap's O(log pool) work plus the stale entries and
rebuilds of lazy deletion. The memmove grows with the index: one removal
plus one ``insort`` reads ~1.2 us on 192 entries and ~2.7 us on 5,120
(Python 3.11, a shared 2-CPU host). Each policy reads one order, so a
replay maintains only the index its policy uses, and only a per-sender
index makes the chains keep fee lists: building one gives each chain its
sorted entries, and a chain made after that starts with an empty list.

A block leaves the pool in one ``remove_included`` call. It re-keys each
touched chain once when a per-sender index is built and filters a built
price index in one pass, in place of a bisect and a ``del`` per tx: a
block takes hundreds of txs from a pool of thousands, and one pass costs
less than a memmove per tx.

A pool has one owner, the replay or test that fills it; there is no
snapshot, and nothing reads a pool while another caller changes it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (
    _ADMITTING,
    _OUTCOMES,
    AdmissionOutcome,
    PoolError,
    Reason,
    Transaction,
    WorldState,
    check_positive_int,
)

_nonce = attrgetter("nonce")


class SenderChain:
    """One sender's pending transactions, in ascending nonce order.

    ``txs`` holds the txs, bisected by nonce with ``key=_nonce``; ``cost`` is
    their summed cost. ``fees`` is None until the pool builds a per-sender
    index (``_fee_heads`` or ``_childless``), and from then on holds one
    ``(fee, seq, tx)`` entry per tx in ascending order: its head is the
    chain's lowest fee, oldest first, and a removal deletes the tx's entry
    at its bisected place. ``head`` and ``tail`` are the chain's entries in
    ``_fee_heads`` and ``_childless`` as last keyed (None while unkeyed).
    """

    __slots__ = ("txs", "cost", "fees", "head", "tail")

    def __init__(self) -> None:
        self.txs: List[Transaction] = []
        self.cost = 0
        self.fees: Optional[List[Tuple[int, int, Transaction]]] = None
        self.head: Optional[Tuple] = None
        self.tail: Optional[Tuple] = None

    def __len__(self) -> int:
        return len(self.txs)

    def run_end(self, start: int) -> int:
        """First nonce >= ``start`` that the chain does not hold.

        Nonces strictly increase, so ``txs[i].nonce - i`` never decreases and
        the run that begins at ``start`` is the stretch where it stays equal.
        """
        txs = self.txs
        i = bisect_left(txs, start, key=_nonce)
        if i == len(txs) or txs[i].nonce != start:
            return start
        last = len(txs) - 1
        offset = start - i
        end = txs[last].nonce
        if end - last == offset:
            return end + 1
        # the run ends before the first index where nonce - index exceeds offset
        j = bisect_right(range(len(txs)), offset, i + 1, key=lambda j: txs[j].nonce - j)
        return txs[j - 1].nonce + 1

    def insert(self, tx: Transaction, seq: int) -> None:
        txs = self.txs
        nonce = tx.nonce
        if not txs or nonce > txs[-1].nonce:
            txs.append(tx)
        else:
            txs.insert(bisect_left(txs, nonce, key=_nonce), tx)
        self.cost += tx.cost
        fees = self.fees
        if fees is not None:
            insort(fees, (tx.fee, seq, tx))

    def remove(self, tx: Transaction, seq: int) -> None:
        txs = self.txs
        if txs[-1] is tx:
            txs.pop()
        else:
            del txs[bisect_left(txs, tx.nonce, key=_nonce)]
        self.cost -= tx.cost
        fees = self.fees
        if fees is not None:
            del fees[bisect_left(fees, (tx.fee, seq))]


# returned by ``Mempool.chain`` for a sender with nothing pending; never mutated
_NO_CHAIN = SenderChain()
# bound once: precheck and admit run per arrival (see the note above core's enums)
_STALE = Reason.STALE
_DUPLICATE = Reason.DUPLICATE
_INVALID_FUTURE = Reason.INVALID_FUTURE
_INVALID_OVERDRAFT = Reason.INVALID_OVERDRAFT
_SENDER_LIMIT = _OUTCOMES[Reason.SENDER_LIMIT]
_POOL_NOT_FULL = _OUTCOMES[Reason.POOL_NOT_FULL]


def _replace(index: List[Tuple], old: Optional[Tuple], new: Optional[Tuple]) -> Optional[Tuple]:
    """Swap entry ``old`` of sorted ``index`` for ``new`` (None: no entry); return ``new``."""
    if old != new:
        if old is not None:
            del index[bisect_left(index, old[:-1])]
        if new is not None:
            insort(index, new)
    return new


class Mempool:
    def __init__(self, capacity: int, per_sender_limit: Optional[int] = None):
        check_positive_int("capacity", capacity)
        if per_sender_limit is not None:
            check_positive_int("per-sender limit", per_sender_limit)
        self.capacity = capacity
        self.per_sender_limit = per_sender_limit
        self._chains: Dict[str, SenderChain] = {}
        self._seq_of: Dict[Transaction, int] = {}
        self._next_seq = 0
        # sorted order indexes of (..., seq, tx), each built on its first read
        self._by_price: Optional[List[Tuple]] = None
        self._fee_heads: Optional[List[Tuple]] = None
        self._childless: Optional[List[Tuple]] = None

    # ------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self._seq_of)

    def __contains__(self, tx: Transaction) -> bool:
        return tx in self._seq_of

    def chain(self, sender: str) -> SenderChain:
        """``sender``'s pending chain (read-only; empty if nothing is pending)."""
        return self._chains.get(sender, _NO_CHAIN)

    def chains(self) -> Mapping[str, SenderChain]:
        """Each sender with something pending -> its chain: the pool's own
        live mapping, read-only, for a caller that reads many chains."""
        return self._chains

    def pending(self) -> List[Transaction]:
        """All pending txs in admission order, oldest first.

        ``_seq_of`` is a dict and every insert adds a fresh key, so its order
        is ascending admission seq; ``candidate_order`` relies on this.
        """
        return list(self._seq_of)

    def _tail_key(self, chain: SenderChain) -> Tuple:
        """``chain``'s entry in ``_childless``: its tail, keyed by price, then
        the chain's minimum fee, then admission order."""
        tail = chain.txs[-1]
        return (tail.price, chain.fees[0][0], self._seq_of[tail], tail)

    def min_price_tx(self) -> Optional[Transaction]:
        """Globally cheapest pending tx, oldest first among equal prices."""
        index = self._by_price
        if index is None:
            index = self._by_price = sorted((t.price, s, t) for t, s in self._seq_of.items())
        return index[0][-1] if index else None

    def _keyed(self, slot: str, key: Callable[[SenderChain], Tuple]) -> List[Tuple]:
        """A new per-sender index: each chain, given its fee list if it has
        none yet, keeps ``key(chain)`` in ``slot`` as its entry."""
        seq_of = self._seq_of
        chains = self._chains.values()
        for chain in chains:
            if chain.fees is None:
                chain.fees = sorted((t.fee, seq_of[t], t) for t in chain.txs)
            setattr(chain, slot, key(chain))
        return sorted(map(attrgetter(slot), chains))

    def min_fee_tx(self) -> Optional[Transaction]:
        """Pending tx with minimal fee, oldest first among equal fees: the lowest
        chain head in ``_fee_heads``. Its first read gives each chain its fee list."""
        index = self._fee_heads
        if index is None:
            index = self._fee_heads = self._keyed("head", lambda chain: chain.fees[0])
        return index[0][-1] if index else None

    def min_price_childless(self) -> Optional[Transaction]:
        """Cheapest childless tx: the first ``_childless`` entry, so among
        equal prices the tx whose sender holds the smaller chain-minimum fee,
        then the oldest. Its first read gives each chain its fee list."""
        index = self._childless
        if index is None:
            index = self._childless = self._keyed("tail", self._tail_key)
        return index[0][-1] if index else None

    # ------------------------------------------------------------- checks

    def precheck(self, tx: Transaction, world: WorldState) -> Optional[Reason]:
        """Why ``tx`` is invalid, or None if it is valid.

        Checks run in the order stale -> duplicate -> future -> overdraft.
        They read the sender's account once and its chain: one bisect finds
        ``tx.nonce``'s place in it (none when ``tx`` extends the chain), the
        future test compares ``tx.nonce`` with the end of the run from the
        confirmed nonce, and the overdraft test sums the chain's cost below
        that place. A sender with nothing pending has no chain to read:
        ``tx`` is future iff its nonce is above the confirmed one, and
        nothing is reserved below it.

        The run's end is read off the chain's ends when the chain is
        contiguous from the confirmed nonce: its first nonce is the confirmed
        one and its last lies ``len - 1`` above (nonces strictly increase, so
        none is missing between). The run then ends just past the last
        nonce; only another chain costs a ``run_end``. Both conditions are
        needed: once the confirmed nonce moves into the chain, past a tx
        still pending, the span test alone can take a chain with a gap for
        contiguous.
        """
        nonce = tx.nonce
        acct = world.accounts.get(tx.sender)
        confirmed = acct.nonce if acct is not None else 0
        if nonce < confirmed:
            return _STALE
        chain = self._chains.get(tx.sender)
        if chain is None:
            if nonce > confirmed:
                return _INVALID_FUTURE
            below = 0
        else:
            # a pool keeps no empty chain
            txs = chain.txs
            i = n = len(txs)
            last = txs[-1].nonce
            if nonce <= last:
                i = bisect_left(txs, nonce, key=_nonce)
                if txs[i].nonce == nonce:
                    return _DUPLICATE
            if nonce > confirmed:
                if txs[0].nonce == confirmed and last - confirmed == n - 1:
                    run_end = last + 1
                else:
                    run_end = chain.run_end(confirmed)
                if run_end < nonce:
                    return _INVALID_FUTURE
            below = chain.cost if i == n else sum(t.cost for t in txs[:i])
        if below + tx.cost > (acct.balance if acct is not None else 0):
            return _INVALID_OVERDRAFT
        return None

    # ---------------------------------------------------------- mutation

    def _rekey(self, chain: SenderChain) -> None:
        """Swap ``chain``'s entries in each built per-sender index for its
        current ones: its fee head, its tail key, or none once it is empty."""
        index = self._fee_heads
        if index is not None:
            chain.head = _replace(index, chain.head, chain.fees[0] if chain.txs else None)
        index = self._childless
        if index is not None:
            chain.tail = _replace(index, chain.tail, self._tail_key(chain) if chain.txs else None)

    def _insert(self, tx: Transaction) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seq_of[tx] = seq
        chain = self._chains.get(tx.sender)
        if chain is None:
            chain = self._chains[tx.sender] = SenderChain()
            if self._fee_heads is not None or self._childless is not None:
                chain.fees = []
        chain.insert(tx, seq)
        if chain.fees is not None:
            self._rekey(chain)
        index = self._by_price
        if index is not None:
            insort(index, (tx.price, seq, tx))

    def _remove(self, tx: Transaction) -> None:
        """Take ``tx`` out of ``_seq_of``, its chain and every built index: an
        eviction's victim."""
        seq_of = self._seq_of
        if tx not in seq_of:
            raise PoolError(f"{tx!r} not pending")
        chain = self._chains[tx.sender]
        seq = seq_of.pop(tx)
        chain.remove(tx, seq)
        if not chain.txs:
            del self._chains[tx.sender]
        if chain.fees is not None:
            self._rekey(chain)
        index = self._by_price
        if index is not None:
            del index[bisect_left(index, (tx.price, seq))]

    def apply_admission(self, tx: Transaction, victim: Optional[Transaction]) -> None:
        """Remove ``victim``, if any, then insert ``tx``."""
        seq_of = self._seq_of
        if victim is not None and victim not in seq_of:
            raise PoolError(f"victim {victim!r} not pending")
        if len(seq_of) - (victim is not None) >= self.capacity:
            raise PoolError(f"admitting {tx!r} would exceed capacity {self.capacity}")
        if victim is not None:
            self._remove(victim)
        self._insert(tx)

    def remove_included(self, txs: Sequence[Transaction]) -> None:
        """Drop the txs a block included (not evictions), in one call.

        Each tx must be pending and named once; otherwise ``PoolError`` is
        raised before anything changes. Each tx then leaves ``_seq_of`` and
        its chain, each touched chain is re-keyed once if a per-sender index
        is built, and a built price index is filtered once.
        """
        seq_of = self._seq_of
        gone = set()  # the txs' admission seqs
        for tx in txs:
            seq = seq_of.get(tx)
            if seq is None:
                raise PoolError(f"{tx!r} not pending")
            if seq in gone:
                raise PoolError(f"{tx!r} named twice")
            gone.add(seq)
        chains = self._chains
        touched = {tx.sender: chains[tx.sender] for tx in txs}
        for tx in txs:
            chain = touched[tx.sender]
            chain.remove(tx, seq_of.pop(tx))
            if not chain.txs:
                del chains[tx.sender]
        if self._fee_heads is not None or self._childless is not None:
            for chain in touched.values():
                self._rekey(chain)
        index = self._by_price
        if index is not None:
            # a new list, not one filtered in place: the slice assignment read
            # ~0.4 MB more peak RSS on perfbench's block_cadence (Python 3.11,
            # a shared 2-CPU host)
            self._by_price = [entry for entry in index if entry[1] not in gone]

    def pop_all(self) -> List[Transaction]:
        """Empty the pool and return what was pending, in admission order.

        The pool's mappings are cleared in place, so one held from
        ``chains()`` stays the pool's own. An order index that was built
        stays built, empty.
        """
        pending = list(self._seq_of)
        self._seq_of.clear()
        self._chains.clear()
        for index in (self._by_price, self._fee_heads, self._childless):
            if index is not None:
                index.clear()
        return pending

    # ---------------------------------------------------------- admission

    def admit(self, tx: Transaction, world: WorldState, policy) -> AdmissionOutcome:
        """Precheck ``tx``, admit it into a free slot or let ``policy.decide``
        choose at a full pool, and apply the outcome.

        The outcome returned is the policy's own, or the shared one of its
        reason: a decline when the precheck or the per-sender limit refuses
        ``tx``, or ``POOL_NOT_FULL`` when a slot is free.
        """
        reason = self.precheck(tx, world)
        if reason is not None:
            return _OUTCOMES[reason]
        limit = self.per_sender_limit
        if limit is not None and len(self.chain(tx.sender)) >= limit:
            return _SENDER_LIMIT
        if len(self._seq_of) < self.capacity:
            outcome = _POOL_NOT_FULL
        else:
            outcome = policy.decide(self, tx)
        if outcome.reason in _ADMITTING:
            self.apply_admission(tx, outcome.victim)
        return outcome
