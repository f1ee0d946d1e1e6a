"""Brute-force reference predicates the tests check the engine against.

Each one is a linear scan over plain transaction lists or a read-only view,
and shares no code with the pool's per-sender chains or order indexes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from mempoolsim import Transaction, WorldState
from mempoolsim.metrics import OutcomeFlags


class PendingView:
    """Minimal read interface over a set of pending transactions.

    ``is_future`` needs only ``get``, so a ``Mempool`` serves as one too;
    ``cumulative_cost`` also needs ``sender_txs``.
    """

    def get(self, sender: str, nonce: int) -> Optional[Transaction]:
        raise NotImplementedError

    def sender_txs(self, sender: str) -> Iterable[Transaction]:
        raise NotImplementedError


class ListPendingView(PendingView):
    """Brute-force view over a transaction list."""

    def __init__(self, txs: Iterable[Transaction]):
        self.txs = list(txs)

    def get(self, sender: str, nonce: int) -> Optional[Transaction]:
        for tx in self.txs:
            if tx.sender == sender and tx.nonce == nonce:
                return tx
        return None

    def sender_txs(self, sender: str) -> List[Transaction]:
        return [tx for tx in self.txs if tx.sender == sender]


def is_future(tx: Transaction, pool, world: WorldState) -> bool:
    """True iff some ancestor nonce of ``tx`` is neither confirmed nor pending.

    The nonce chain from the sender's confirmed nonce up to ``tx.nonce - 1``
    must be fully covered by pending transactions for ``tx`` to be executable.
    ``pool`` is anything with ``get(sender, nonce)``.
    """
    start = world.nonce_of(tx.sender)
    for nonce in range(start, tx.nonce):
        if pool.get(tx.sender, nonce) is None:
            return True
    return False


def cumulative_cost(sender: str, up_to_nonce: int, pool: PendingView) -> int:
    """Sum of cost over the sender's pending transactions with nonce <= up_to_nonce."""
    return sum(tx.cost for tx in pool.sender_txs(sender) if tx.nonce <= up_to_nonce)


def transition_flags(
    before: Sequence[Transaction], after: Sequence[Transaction], world: WorldState
) -> OutcomeFlags:
    """Diff the future status of transactions resident in both states."""
    before_view = ListPendingView(before)
    after_view = ListPendingView(after)
    before_ids = {tx.id for tx in before}
    ftp = ptf = False
    for tx in after:
        if tx.id not in before_ids:
            continue
        was = is_future(tx, before_view, world)
        now = is_future(tx, after_view, world)
        if was and not now:
            ftp = True
        elif now and not was:
            ptf = True
    return OutcomeFlags(future_turn_pending=ftp, pending_turn_future=ptf)

