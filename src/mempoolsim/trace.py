"""Line-delimited trace file format and the synthetic performance workloads.

A trace file is UTF-8 JSON-lines: one object per line with the fields
{kind, ts_ms, sender, nonce, price, gas_used, gas_limit, value, source}.
Transaction fields are only present for ``tx_arrival`` events. Parsing is
strict: unknown fields, timestamp regressions, numbers that are not JSON
integers or lie outside Ethereum's uint256 range, a non-string sender and an
unknown source are rejected with the offending line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .core import Transaction, WorldState

KINDS = ("tx_arrival", "block_trigger", "snapshot_marker")
_TX_FIELDS = ("sender", "nonce", "price", "gas_used", "gas_limit", "value", "source")
_ALL_FIELDS = frozenset(("kind", "ts_ms") + _TX_FIELDS)
_SOURCES = ("benign", "adversarial")


class TraceError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class TraceEvent:
    """One trace line; an arrival's ``source`` field is its ``tx.label``."""

    kind: str
    ts_ms: int = 0
    tx: Optional[Transaction] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown event kind: {self.kind}")
        if self.kind == "tx_arrival" and self.tx is None:
            raise ValueError("tx_arrival event needs a transaction payload")


def arrival(tx: Transaction, ts_ms: int = 0) -> TraceEvent:
    return TraceEvent("tx_arrival", ts_ms, tx)


def block_trigger(ts_ms: int = 0) -> TraceEvent:
    return TraceEvent("block_trigger", ts_ms)


def snapshot_marker(ts_ms: int = 0) -> TraceEvent:
    return TraceEvent("snapshot_marker", ts_ms)


def _event_to_record(event: TraceEvent) -> Dict:
    record: Dict = {"kind": event.kind, "ts_ms": event.ts_ms}
    if event.kind == "tx_arrival":
        tx = event.tx
        record.update(
            sender=tx.sender,
            nonce=tx.nonce,
            price=tx.price,
            gas_used=tx.gas_used,
            gas_limit=tx.gas_limit,
            value=tx.value,
            source=tx.label,
        )
    return record


def _record_to_event(record: Dict, line: int) -> TraceEvent:
    if not _ALL_FIELDS.issuperset(record):
        raise TraceError(f"unknown fields {sorted(set(record) - _ALL_FIELDS)}", line)
    if "kind" not in record or "ts_ms" not in record:
        raise TraceError("missing kind or ts_ms", line)
    kind = record["kind"]
    if kind not in KINDS:
        raise TraceError(f"unknown event kind {kind!r}", line)
    ts_ms = record["ts_ms"]
    # bool is an int subclass, and JSON numbers such as 1.0 or 1e3 are floats
    if type(ts_ms) is not int:
        raise TraceError(f"ts_ms must be an integer, got {ts_ms!r}", line)
    # the record holds known fields only, so its size tells which are present
    if kind != "tx_arrival":
        if len(record) != 2:
            extra = [f for f in _TX_FIELDS if f in record]
            raise TraceError(f"{kind} event carries tx fields {extra}", line)
        return TraceEvent(kind, ts_ms)
    if len(record) != len(_ALL_FIELDS):
        missing = [f for f in _TX_FIELDS if f not in record]
        raise TraceError(f"tx_arrival missing fields {missing}", line)
    source = record["source"]
    # Transaction checks the field types (exact int, str sender), then ranges
    try:
        tx = Transaction(
            sender=record["sender"],
            nonce=record["nonce"],
            price=record["price"],
            gas_used=record["gas_used"],
            gas_limit=record["gas_limit"],
            value=record["value"],
            label=source,
        )
    except ValueError as exc:
        raise TraceError(str(exc), line) from exc
    if source not in _SOURCES:
        raise TraceError(f"source must be one of {_SOURCES}, got {source!r}", line)
    return TraceEvent(kind, ts_ms, tx)


def dump_events(events: Iterable[TraceEvent]) -> str:
    lines = [json.dumps(_event_to_record(e), sort_keys=True) for e in events]
    return "".join(line + "\n" for line in lines)


def write_trace(path, events: Iterable[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_events(events))


def parse_trace_text(text: str) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    last_ts = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError as exc:
            # a JSONDecodeError, or an integer with more digits than Python
            # converts from a string
            raise TraceError(f"malformed JSON: {exc}", lineno) from exc
        if not isinstance(record, dict):
            raise TraceError("record is not an object", lineno)
        event = _record_to_event(record, lineno)
        if last_ts is not None and event.ts_ms < last_ts:
            raise TraceError(f"timestamp regression {event.ts_ms} < {last_ts}", lineno)
        last_ts = event.ts_ms
        events.append(event)
    return events


def parse_trace(path) -> List[TraceEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace_text(fh.read())


def world_for_trace(
    events: Iterable[TraceEvent],
    overrides: Optional[Dict[str, tuple]] = None,
    block_gas_limit: Optional[int] = None,
) -> WorldState:
    """Default world for a trace: each sender's confirmed nonce is its lowest
    nonce in the trace and its balance covers the summed cost of all its
    transactions. ``overrides`` maps sender -> (balance, nonce)."""
    world = WorldState()
    if block_gas_limit is not None:
        world.block_gas_limit = block_gas_limit
    min_nonce: Dict[str, int] = {}
    budget: Dict[str, int] = {}
    for event in events:
        if event.kind != "tx_arrival":
            continue
        tx = event.tx
        min_nonce[tx.sender] = min(min_nonce.get(tx.sender, tx.nonce), tx.nonce)
        budget[tx.sender] = budget.get(tx.sender, 0) + tx.cost
    for sender in min_nonce:
        world.fund(sender, balance=budget[sender], nonce=min_nonce[sender])
    if overrides:
        for sender, (balance, nonce) in overrides.items():
            world.fund(sender, balance=balance, nonce=nonce)
    return world


# ------------------------------------------------------------ workloads


def workload_batch_insert(n0: int, price: int = 10_000, start_ms: int = 0) -> List[TraceEvent]:
    """One sender, nonces 1..n0, fixed price; stresses single-chain admission."""
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    return [
        arrival(Transaction(sender="batch-0", nonce=i, price=price), ts_ms=start_ms + i)
        for i in range(1, n0 + 1)
    ]


def workload_tn1(
    n1: int,
    n1_prime: int,
    capacity: int = 5120,
    n_future: int = 1024,
    start_ms: int = 0,
) -> List[TraceEvent]:
    """Chained pending txs, a future-tx burst, fillers, then parent-evicting txs.

    Phase A: ``n1_prime`` accounts, each with a chain of ``n1 / n1_prime`` txs;
    the nonce-1 parents are cheap (1000 wei) and the rest expensive (200000 wei).
    Phase B: ``n_future`` future txs plus ``capacity - n1`` single-tx fillers.
    Phase C: ``n1_prime`` txs at 20000 wei that evict the cheap parents.
    """
    if n1_prime < 1 or n1 % n1_prime != 0:
        raise ValueError("n1 must be divisible by n1_prime")
    if n1 > capacity:
        raise ValueError("n1 exceeds pool capacity")
    chain_len = n1 // n1_prime
    events: List[TraceEvent] = []
    ts = start_ms
    for acct in range(n1_prime):
        sender = f"tn1-a{acct}"
        for nonce in range(1, chain_len + 1):
            price = 1_000 if nonce == 1 else 200_000
            events.append(arrival(Transaction(sender=sender, nonce=nonce, price=price), ts_ms=ts))
            ts += 1
    for i in range(n_future):
        # nonce 3 with confirmed nonce 1 (set by the scenario): a future tx
        events.append(
            arrival(Transaction(sender=f"tn1-f{i}", nonce=3, price=50_000), ts_ms=ts)
        )
        ts += 1
    for i in range(capacity - n1):
        events.append(
            arrival(Transaction(sender=f"tn1-p{i}", nonce=1, price=150_000), ts_ms=ts)
        )
        ts += 1
    for i in range(n1_prime):
        events.append(
            arrival(Transaction(sender=f"tn1-e{i}", nonce=1, price=20_000), ts_ms=ts)
        )
        ts += 1
    return events


def tn1_account_overrides(events: Iterable[TraceEvent]) -> Dict[str, tuple]:
    """Confirmed-nonce overrides that make the tn1 burst txs genuinely future."""
    overrides: Dict[str, tuple] = {}
    for event in events:
        if event.kind == "tx_arrival" and event.tx.sender.startswith("tn1-f"):
            overrides[event.tx.sender] = (event.tx.cost * 4, 1)
    return overrides
