"""Brute-force reference predicates the tests check the engine against.

Each predicate is a linear scan over plain transaction lists or a read-only
view, and shares no code with the pool's per-sender chains or order indexes.
Three test-only readers list a pool's order indexes in full, each entry's
tx in index order (a read first builds an index not yet built), so a
duplicate or leftover entry shows. ``drain`` is the block-at-a-time drain,
this module's ``build_block`` on the pending list once per block, that the
library's one-ranking drain must match; the library's ``build_block`` and
``drain`` share one fill loop, so neither can check the other. And
``parse_trace_lines`` is the per-line trace parser that the library's
parser, which reads the writer's arrival lines through one pattern, must
match.
``replay_per_event`` is the replay loop that books one dUtil record into a
ledger of its own and sums the pool's pending prices once per arrival,
takes each admission's flags from ``transition_flags`` into a list of its
own, and drains with ``drain``; the library's ``replay`` moves a running
price sum by each admission and block and books nothing else, its report
deriving the dUtil ledger and the flags when read, and both must report
the same. It also keeps the declined ledger as the events happen,
and a copy of the pool's pending set at each snapshot, which the report's
derived ``declined`` and ``pending_sets`` must equal.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from mempoolsim import (
    AccountState,
    Block,
    Mempool,
    Reason,
    RunReport,
    ScenarioConfig,
    TraceError,
    TraceEvent,
    Transaction,
    WorldState,
    build_block as library_build_block,
    world_for_trace,
)
from mempoolsim.metrics import OutcomeClass, OutcomeFlags, UtilEntry, UtilLedger, classify_outcome
from mempoolsim.replay import Snapshot
from mempoolsim.trace import _record_to_event

# the flags of an admission that changed no resident's status
NO_FLAGS = OutcomeFlags()


class PendingView:
    """Minimal read interface over a set of pending transactions.

    ``is_future`` needs only ``get``; ``cumulative_cost`` also needs
    ``sender_txs``.
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


def is_future(tx: Transaction, pool: PendingView, world: WorldState) -> bool:
    """True iff some ancestor nonce of ``tx`` is neither confirmed nor pending.

    The nonce chain from the sender's confirmed nonce up to ``tx.nonce - 1``
    must be fully covered by pending transactions for ``tx`` to be executable.
    ``pool`` is a ``PendingView``: anything with ``get(sender, nonce)``.
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
    pending: Sequence[Transaction], admitted_at: Dict[Transaction, int]
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
    admitted_at: Dict[Transaction, int],
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
        acct = world.accounts.setdefault(t.sender, AccountState())
        acct.nonce = t.nonce + 1
        acct.balance -= t.fee + t.value
    return included, skipped


def drain(pool: Mempool, world: WorldState) -> Tuple[List[Block], List[Transaction]]:
    """Drain block by block: ``build_block`` on what is left of the pending
    list, ranked by its admission order, until a block comes out empty;
    then the pool is emptied. Returns the blocks and the leftovers in
    admission order."""
    pending = pool.pending()
    admitted_at = {t: i for i, t in enumerate(pending)}
    blocks: List[Block] = []
    while pending:
        included, _ = build_block(pending, admitted_at, world)
        if not included:
            break
        blocks.append(Block(included))
        pending = [t for t in pending if t not in included]
    pool.remove_included(pool.pending())
    return blocks, pending


def pending_by_price(pool: Mempool) -> List[Transaction]:
    """The pool's price index read in full: pending txs by (price, seq)."""
    pool.min_price_tx()
    return [entry[-1] for entry in pool._by_price]


def pending_by_fee(pool: Mempool) -> List[Transaction]:
    """The pool's fee index read in full: pending txs by (fee, seq)."""
    pool.min_fee_tx()
    return [entry[-1] for entry in pool._by_fee]


def find_childless(pool: Mempool) -> List[Transaction]:
    """The pool's childless index read in full: each sender's maximal-nonce
    pending tx, by (price, sender's chain-minimum fee, seq)."""
    pool.min_price_childless()
    return [entry[-1] for entry in pool._childless]


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


def book(
    util: UtilLedger,
    outcome_class: OutcomeClass,
    inside_delta: int,
    outside_delta: int,
    flags: OutcomeFlags = NO_FLAGS,
) -> None:
    """Book one record into ``util``: its deltas to its class's entry and to
    the entry of each flag it sets."""
    util.per_class.setdefault(outcome_class, UtilEntry()).add(inside_delta, outside_delta)
    for name in ("future_turn_pending", "pending_turn_future"):
        if getattr(flags, name):
            util.flagged.setdefault(name, UtilEntry()).add(inside_delta, outside_delta)


def replay_per_event(
    config: ScenarioConfig, events: Sequence[TraceEvent], world: Optional[WorldState] = None
) -> Tuple[
    RunReport,
    List[Tuple[Transaction, Reason]],
    List[List[Transaction]],
    UtilLedger,
    List[Tuple[int, OutcomeFlags]],
]:
    """``replay`` with one sum of the pool's pending prices per arrival, a
    declined one included, and with this module's ``drain`` at the end.
    Also returns the declined ledger as the events happen: ``(tx, reason)``
    on a decline, ``(victim, EVICTION)`` on an eviction, then the drain's
    leftovers as ``(tx, UNBUILDABLE)``; a copy of ``pool.pending()`` per
    snapshot, at each marker and at the end of the trace; the dUtil ledger
    it books with ``book``, one record per arrival and per leftover; and
    ``(event index, flags)`` per admission whose ``transition_flags``, over
    the pending lists around it, are not ``NO_FLAGS``."""
    pool = Mempool(config.capacity, config.per_sender_limit)
    if world is None:
        world = world_for_trace(
            events, overrides=config.account_seeds, block_gas_limit=config.block_gas_limit
        )
    policy = config.policy.build()
    report = RunReport(
        policy=config.policy.kind,
        capacity=config.capacity,
        interleaved=config.drain_mode == "interleaved",
    )
    ledger: List[Tuple[Transaction, Reason]] = []
    util = UtilLedger()
    pendings: List[List[Transaction]] = []
    flag_list: List[Tuple[int, OutcomeFlags]] = []

    def snapshot(index: int, ts_ms: int) -> None:
        pendings.append(pool.pending())
        report.snapshots.append(Snapshot(index, ts_ms, len(report.outcomes), len(report.blocks)))

    for index, event in enumerate(events):
        if event.kind == "tx_arrival":
            tx = event.tx
            before = pool.pending()
            outcome = pool.admit(tx, world, policy)
            if outcome.admitted:
                victim = outcome.victim
                if victim is not None:
                    ledger.append((victim, Reason.EVICTION))
                flags = transition_flags(before, pool.pending(), world)
                if flags != NO_FLAGS:
                    flag_list.append((index, flags))
                evicted = 0 if victim is None else victim.fee
                book(util, classify_outcome(outcome, tx), tx.fee - evicted, evicted, flags)
            else:
                ledger.append((tx, outcome.reason))
                book(util, OutcomeClass.O1, 0, tx.fee)
            report.outcomes.append(outcome)
            report.arrivals.append(tx)
            report.price_sum_series.append(sum(t.price for t in pool.pending()))
        elif event.kind == "snapshot_marker":
            snapshot(index, event.ts_ms)
        else:
            report.triggers.append(index)
            if report.interleaved:
                report.blocks.append(library_build_block(pool, world).block)
    report.event_count = len(events)
    end_ts = events[-1].ts_ms if events else 0
    snapshot(len(events), end_ts)
    if config.final_drain:
        blocks, leftovers = drain(pool, world)
        report.blocks.extend(blocks)
        for tx in leftovers:
            ledger.append((tx, Reason.UNBUILDABLE))
            book(util, OutcomeClass.UNBUILDABLE, -tx.fee, tx.fee)
        report.unbuildable = leftovers
    report.final_pending = pool.pending()
    return report, ledger, pendings, util, flag_list
