"""Line-delimited trace file format and the synthetic performance workloads.

A trace file is UTF-8 JSON-lines: one object per line with the fields
{kind, ts_ms, sender, nonce, price, gas_used, gas_limit, value, source}.
Transaction fields are only present for ``tx_arrival`` events. Parsing is
strict: unknown fields, timestamp regressions, numbers that are not JSON
integers or lie outside Ethereum's uint256 range, a non-string sender and an
unknown source are rejected with the offending line number. A key repeated
within a record keeps its last value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .core import AccountState, Transaction, WorldState

KINDS = ("tx_arrival", "block_trigger", "snapshot_marker")
_TX_FIELDS = ("sender", "nonce", "price", "gas_used", "gas_limit", "value", "source")
_ALL_FIELDS = frozenset(("kind", "ts_ms") + _TX_FIELDS)
_MARKER_FIELDS = frozenset(("kind", "ts_ms"))
_SOURCES = ("benign", "adversarial")
# lines per json.loads on the one-decode path: bounds the decoded records
# alive at once, so the parse's peak memory stays near the per-line loop's
_DECODE_CHUNK = 64


class TraceError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True, slots=True)
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
    """The events of a trace's text; a ``TraceError`` names the first bad line."""
    events = _parse_chunks([raw for raw in text.splitlines() if raw.strip()])
    if events is None:
        events = _parse_lines(text)
    return events


def _parse_chunks(lines: List[str]) -> Optional[List[TraceEvent]]:
    """The events of a valid trace's non-blank lines, decoded a chunk of lines
    per ``json.loads``; None if any line or record is not plainly valid.

    This accepts exactly what ``_parse_lines`` accepts. Every line here starts
    with ``{`` and ends with ``}``, and no line holds a ``[``. The newline in
    each ``,\\n`` separator cannot sit in a JSON string, so the separator lies
    between two values, and the ``{`` after it can only open an element of an
    array: with no ``[`` in the lines, of the outer array. So every separator
    ends a record, no record spans two lines, and as many records as lines
    means one record per line, the object a per-line decode gives. Without
    these guards one decode would accept what the per-line parser rejects:
    two bad lines merged into one record, directly or through a nested array,
    a string cut in two, or two records on one line balancing a merge
    elsewhere. A valid trace with a ``[`` in a sender just takes the per-line
    path. On None the caller reruns the per-line parser, which then reports
    the error and its line.
    """
    events: List[TraceEvent] = []
    append = events.append
    last_ts = -math.inf
    for start in range(0, len(lines), _DECODE_CHUNK):
        chunk = lines[start : start + _DECODE_CHUNK]
        if not all(raw[0] == "{" and raw[-1] == "}" for raw in chunk):
            return None
        body = ",\n".join(chunk)
        if "[" in body:
            return None
        try:
            records = json.loads("[" + body + "]")
        except (ValueError, RecursionError):
            return None
        if len(records) != len(chunk):
            return None
        for record in records:
            if type(record) is not dict:
                return None
            kind = record.get("kind")
            ts_ms = record.get("ts_ms")
            if type(ts_ms) is not int or ts_ms < last_ts:
                return None
            if kind == "tx_arrival":
                source = record["source"] if record.keys() == _ALL_FIELDS else None
                if source not in _SOURCES:
                    return None
                try:
                    tx = Transaction(
                        record["sender"],
                        record["nonce"],
                        record["price"],
                        record["gas_used"],
                        record["gas_limit"],
                        record["value"],
                        source,
                    )
                except ValueError:
                    return None
                append(TraceEvent(kind, ts_ms, tx))
            elif record.keys() == _MARKER_FIELDS and kind in KINDS:
                append(TraceEvent(kind, ts_ms))
            else:
                return None
            last_ts = ts_ms
    return events


def _parse_lines(text: str) -> List[TraceEvent]:
    """Per-line parser: one ``json.loads`` per line, and the only path that
    raises ``TraceError``, with the offending line's number."""
    events: List[TraceEvent] = []
    last_ts = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer with more digits than Python
            # converts from a string, or nesting deeper than the decoder's
            # recursion limit
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
    accounts: Dict[str, AccountState] = {}
    for event in events:
        if event.kind != "tx_arrival":
            continue
        tx = event.tx
        acct = accounts.get(tx.sender)
        if acct is None:
            accounts[tx.sender] = AccountState(tx.cost, tx.nonce)
        else:
            acct.balance += tx.cost
            if tx.nonce < acct.nonce:
                acct.nonce = tx.nonce
    if overrides:
        # an override keeps a trace sender's place; the others follow in order
        for sender, (balance, nonce) in overrides.items():
            accounts[sender] = AccountState(balance, nonce)
    world = WorldState(accounts)
    if block_gas_limit is not None:
        world.block_gas_limit = block_gas_limit
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
