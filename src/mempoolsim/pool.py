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
  in ascending nonce order and their summed cost, and, once ``_childless``
  is built, their fees in ascending order (the head is the chain-minimum
  fee, so no removal rescans for it). The duplicate test and ``run_end``
  (the end of the contiguous nonce run from any start, which is what the
  future test reads) bisect the txs by nonce

and these order indexes, each a sorted list of tuples that end in
``(seq, tx)``, where ``seq`` is the tx's unique admission number (so ties
go oldest first and a comparison never reaches ``tx``):

* ``_by_price`` / ``_by_fee`` - one ``(key, seq, tx)`` entry per pending tx,
  by price or fee
* ``_childless`` - one entry per sender, its maximal-nonce tx as ``(price,
  sender's chain-minimum fee, seq, tx)`` (``_tail_key``), so the first
  entry is chain-safe eviction's victim

An order index does not exist until something first reads it; it is then
built from ``_seq_of`` or the chains and kept exact by every later change:
an insert adds the tx's entries with ``insort``, and an eviction or a
change of a sender's tail key (its tail or its chain-minimum fee moved)
deletes the old entry at ``bisect_left`` of its key less ``tx``. A reader
takes the first entry. A change costs O(log pool) comparisons and one
memmove of up to ``capacity`` pointers (~40 KB at 5120), against a heap's
O(log pool) work plus the stale entries and rebuilds of lazy deletion. The
memmove grows with the pool: one removal plus one ``insort`` reads ~1.2 us
on 192 entries and ~2.7 us on 5,120 (Python 3.11, a shared 2-CPU host).
Each policy reads one order, so a replay maintains only the index its
policy uses, and only cp's ``_childless``, whose key reads a chain's
minimum fee, makes the chains keep fee lists: building it gives each chain
its sorted fees, and a chain made after that starts with an empty list.

A block leaves the pool in one ``remove_included`` call. It re-keys each
touched sender's ``_childless`` entry once and filters each built price or
fee index in one pass, in place of a bisect and a ``del`` per tx: a block
takes hundreds of txs from a pool of thousands, and one pass costs less
than a memmove per tx.

A pool has one owner, the replay or test that fills it; there is no
snapshot, and nothing reads a pool while another caller changes it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
_fee = attrgetter("fee")


class SenderChain:
    """One sender's pending transactions, in ascending nonce order.

    ``txs`` holds the txs, bisected by nonce with ``key=_nonce``; ``cost`` is
    their summed cost. ``fees`` is None until the pool's ``_childless`` index
    is built, and from then on holds the txs' fees in ascending order, so the
    chain's minimum fee is ``fees[0]`` and a removal deletes one copy of its
    fee wherever it sits.
    """

    __slots__ = ("txs", "cost", "fees")

    def __init__(self) -> None:
        self.txs: List[Transaction] = []
        self.cost = 0
        self.fees: Optional[List[int]] = None

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

    def insert(self, tx: Transaction) -> None:
        txs = self.txs
        nonce = tx.nonce
        if not txs or nonce > txs[-1].nonce:
            txs.append(tx)
        else:
            txs.insert(bisect_left(txs, nonce, key=_nonce), tx)
        self.cost += tx.cost
        fees = self.fees
        if fees is not None:
            insort(fees, tx.fee)

    def remove(self, tx: Transaction) -> None:
        txs = self.txs
        if txs[-1] is tx:
            txs.pop()
        else:
            del txs[bisect_left(txs, tx.nonce, key=_nonce)]
        self.cost -= tx.cost
        fees = self.fees
        if fees is not None:
            del fees[bisect_left(fees, tx.fee)]


# returned by ``Mempool.chain`` for a sender with nothing pending; never mutated
_NO_CHAIN = SenderChain()
# bound once: precheck and admit run per arrival (see the note above core's enums)
_STALE = Reason.STALE
_DUPLICATE = Reason.DUPLICATE
_INVALID_FUTURE = Reason.INVALID_FUTURE
_INVALID_OVERDRAFT = Reason.INVALID_OVERDRAFT
_SENDER_LIMIT = _OUTCOMES[Reason.SENDER_LIMIT]
_POOL_NOT_FULL = _OUTCOMES[Reason.POOL_NOT_FULL]


def _replace(index: List[Tuple], old: Optional[Tuple], new: Optional[Tuple]) -> None:
    """Swap entry ``old`` of sorted ``index`` for ``new``; None is no entry."""
    if old != new:
        if old is not None:
            del index[bisect_left(index, old[:-1])]
        if new is not None:
            insort(index, new)


def _without(index: Optional[List[Tuple]], seqs: set) -> Optional[List[Tuple]]:
    """A new ``index`` of ``(key, seq, tx)`` entries less those whose seq is in
    ``seqs``; None if the index is not built. A new list, not one filtered in
    place: the slice assignment read ~0.4 MB more peak RSS on perfbench's
    block_cadence (Python 3.11, a shared 2-CPU host)."""
    return None if index is None else [entry for entry in index if entry[1] not in seqs]


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
        self._by_fee: Optional[List[Tuple]] = None
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
        return (tail.price, chain.fees[0], self._seq_of[tail], tail)

    def min_price_tx(self) -> Optional[Transaction]:
        """Globally cheapest pending tx, oldest first among equal prices."""
        index = self._by_price
        if index is None:
            index = self._by_price = sorted((t.price, s, t) for t, s in self._seq_of.items())
        return index[0][-1] if index else None

    def min_fee_tx(self) -> Optional[Transaction]:
        """Pending tx with minimal fee, oldest first among equal fees."""
        index = self._by_fee
        if index is None:
            index = self._by_fee = sorted((t.fee, s, t) for t, s in self._seq_of.items())
        return index[0][-1] if index else None

    def min_price_childless(self) -> Optional[Transaction]:
        """Cheapest childless tx: the first ``_childless`` entry, so among
        equal prices the tx whose sender holds the smaller chain-minimum fee,
        then the oldest. Its first read gives each chain its fee list."""
        index = self._childless
        if index is None:
            chains = self._chains.values()
            for chain in chains:
                chain.fees = sorted(map(_fee, chain.txs))
            index = self._childless = sorted(map(self._tail_key, chains))
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

    def _insert(self, tx: Transaction) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._seq_of[tx] = seq
        childless = self._childless
        chain = self._chains.get(tx.sender)
        if chain is None:
            chain = self._chains[tx.sender] = SenderChain()
            if childless is not None:
                chain.fees = []
        old = self._tail_key(chain) if childless is not None and chain.txs else None
        chain.insert(tx)
        if childless is not None:
            # the tail or the chain's minimum fee may have moved
            _replace(childless, old, self._tail_key(chain))
        index = self._by_price
        if index is not None:
            insort(index, (tx.price, seq, tx))
        index = self._by_fee
        if index is not None:
            insort(index, (tx.fee, seq, tx))

    def _remove(self, tx: Transaction) -> None:
        """Take ``tx`` out of ``_seq_of``, its chain and every built index: an
        eviction's victim."""
        seq_of = self._seq_of
        if tx not in seq_of:
            raise PoolError(f"{tx!r} not pending")
        chain = self._chains[tx.sender]
        childless = self._childless
        old = self._tail_key(chain) if childless is not None else None
        chain.remove(tx)
        seq = seq_of.pop(tx)
        if not chain.txs:
            del self._chains[tx.sender]
        if childless is not None:
            _replace(childless, old, self._tail_key(chain) if chain.txs else None)
        index = self._by_price
        if index is not None:
            del index[bisect_left(index, (tx.price, seq))]
        index = self._by_fee
        if index is not None:
            del index[bisect_left(index, (tx.fee, seq))]

    def apply_admission(self, tx: Transaction, victim: Optional[Transaction]) -> None:
        """Remove ``victim``, if any, then insert ``tx``."""
        seq_of = self._seq_of
        if victim is not None and victim not in seq_of:
            raise PoolError(f"victim {victim!r} not pending")
        if len(seq_of) - (victim is not None) >= self.capacity:
            raise PoolError("admission would exceed capacity")
        if victim is not None:
            self._remove(victim)
        self._insert(tx)

    def remove_included(self, txs: Sequence[Transaction]) -> None:
        """Drop the txs a block included (not evictions), in one call.

        Each tx must be pending and named once; otherwise ``PoolError`` is
        raised before anything changes. Each tx then leaves ``_seq_of`` and
        its chain, each touched sender's ``_childless`` entry is re-keyed
        once, and each built price or fee index is filtered once.
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
        childless = self._childless
        old_keys: Dict[str, Tuple] = {}  # touched sender -> its _childless entry
        for tx in txs:
            sender = tx.sender
            chain = chains[sender]
            if childless is not None and sender not in old_keys:
                # the sender's txs are all still in _seq_of
                old_keys[sender] = self._tail_key(chain)
            chain.remove(tx)
            del seq_of[tx]
            if not chain.txs:
                del chains[sender]
        for sender, old in old_keys.items():
            chain = chains.get(sender)
            _replace(childless, old, None if chain is None else self._tail_key(chain))
        self._by_price = _without(self._by_price, gone)
        self._by_fee = _without(self._by_fee, gone)

    def pop_all(self) -> List[Transaction]:
        """Empty the pool and return what was pending, in admission order.

        The pool's mappings are cleared in place, so one held from
        ``chains()`` stays the pool's own. An order index that was built
        stays built, empty.
        """
        pending = list(self._seq_of)
        self._seq_of.clear()
        self._chains.clear()
        for index in (self._by_price, self._by_fee, self._childless):
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
