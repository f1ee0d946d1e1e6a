"""Brute-force reference predicates the tests check the engine against.

Each predicate is a linear scan over plain transaction lists or a read-only
view, and shares no code with the pool's per-sender chains or order indexes.
Two test-only readers list a pool's order indexes in full, and
``parse_trace_lines`` is the per-line trace parser that the library's
chunked parser, one decode per chunk of lines, must match.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from mempoolsim import Mempool, TraceError, TraceEvent, Transaction, WorldState
from mempoolsim.metrics import OutcomeFlags
from mempoolsim.trace import _record_to_event


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
    resident_before = set(before)
    ftp = ptf = False
    for tx in after:
        if tx not in resident_before:
            continue
        was = is_future(tx, before_view, world)
        now = is_future(tx, after_view, world)
        if was and not now:
            ftp = True
        elif now and not was:
            ptf = True
    return OutcomeFlags(future_turn_pending=ftp, pending_turn_future=ptf)


def candidate_order(
    pending: Sequence[Transaction], admitted_at: Dict[int, int]
) -> List[Transaction]:
    """Rank by (-price, admission order), then let each ranked tx place its
    sender's unplaced txs up to its own nonce, found by list scans.

    ``admitted_at`` maps tx -> admission order, counted by the caller.
    """
    ranked = sorted(pending, key=lambda t: (-t.price, admitted_at[t]))
    order: List[Transaction] = []
    for t in ranked:
        group = [u for u in pending if u.sender == t.sender and u.nonce <= t.nonce]
        order.extend(sorted((u for u in group if u not in order), key=lambda u: u.nonce))
    return order


def build_block(
    pending: Sequence[Transaction],
    admitted_at: Dict[int, int],
    world: WorldState,
    gas_fn: Optional[Callable[[Transaction, Sequence[Transaction]], int]] = None,
) -> Tuple[List[Transaction], List[Tuple[Transaction, str]]]:
    """Greedy block over the whole eager ``candidate_order``, never stopping
    early; returns (included txs, skipped (tx, reason) pairs) and advances
    ``world`` as an inclusion does."""
    included: List[Transaction] = []
    skipped: List[Tuple[Transaction, str]] = []
    gas_total = 0
    for t in candidate_order(pending, admitted_at):
        expected = world.nonce_of(t.sender) + sum(u.sender == t.sender for u in included)
        if t.nonce != expected:
            skipped.append((t, "nonce-gap"))
            continue
        gas = gas_fn(t, included) if gas_fn else t.gas_used
        if gas_total + gas > world.block_gas_limit:
            skipped.append((t, "gas-overflow"))
            continue
        gas_total += gas
        included.append(t)
    for t in included:
        acct = world.account(t.sender)
        acct.nonce = t.nonce + 1
        acct.balance -= t.fee + t.value
    return included, skipped


def pending_by_price(pool: Mempool) -> List[Transaction]:
    """The pool's price index read in full: pending txs by (price, seq)."""
    return [entry[2] for entry in pool._price_index()]


def find_childless(pool: Mempool) -> List[Transaction]:
    """The pool's childless index read in full: each sender's maximal-nonce
    pending tx, by (price, seq)."""
    return [entry[2] for entry in pool._childless_index()]


def parse_trace_lines(text: str) -> List[TraceEvent]:
    """Reference trace parser: one ``json.loads`` and one record check per
    line, raising ``TraceError`` with the line number at the first bad line."""
    events: List[TraceEvent] = []
    last_ts = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise TraceError(f"malformed JSON: {exc}", lineno) from exc
        if not isinstance(record, dict):
            raise TraceError("record is not an object", lineno)
        event = _record_to_event(record, lineno)
        if last_ts is not None and event.ts_ms < last_ts:
            raise TraceError(f"timestamp regression {event.ts_ms} < {last_ts}", lineno)
        last_ts = event.ts_ms
        events.append(event)
    return events
