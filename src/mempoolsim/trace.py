"""Line-delimited trace file format and the synthetic performance workloads.

A trace file is UTF-8 JSON-lines: one object per line with the fields
{kind, ts_ms, sender, nonce, price, gas_used, gas_limit, value, source}.
Transaction fields are only present for ``tx_arrival`` events. Parsing is
strict: unknown fields, timestamp regressions, numbers that are not JSON
integers or lie outside Ethereum's uint256 range, a non-string sender and an
unknown source are rejected with the offending line number. A key repeated
within a record keeps its last value.

The text is read and cut into lines a block at a time, so no copy of the
whole text or list of all its lines is held: a parse's transient memory is a
block and a chunk, whatever the trace's size. A block is at least
``_READ_BLOCK`` characters and ends just after a line break (or at the end of
the text), so no line or ``\r\n`` spans two blocks, and ``str.splitlines`` of
each block in turn gives exactly the lines of the whole text. Lines are
decoded a chunk per ``json.loads``, and a chunk that one decode cannot split
exactly into its lines is decoded line by line, so the events and errors are
those of a per-line parse. A trace is written a line at a time too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core import (
    AccountState,
    Transaction,
    WorldState,
    _collector_paused,
    frozen_slots,
    short_repr,
)

KINDS = ("tx_arrival", "block_trigger", "snapshot_marker")
_TX_FIELDS = ("sender", "nonce", "price", "gas_used", "gas_limit", "value", "source")
_ALL_FIELDS = frozenset(("kind", "ts_ms") + _TX_FIELDS)
_SOURCES = _BENIGN, _ADVERSARIAL = ("benign", "adversarial")
# lines per json.loads: bounds the decoded records alive at once, so the
# parse's peak memory stays near a per-line loop's
_DECODE_CHUNK = 64
# the fewest characters in a block of text cut into lines at a time
_READ_BLOCK = 1 << 16
# one line break as str.splitlines cuts at it: "\r\n" first, as it is one break
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class TraceError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@frozen_slots
@dataclass(frozen=True, slots=True, init=False)
class TraceEvent:
    """One trace line; an arrival's ``source`` field is its ``tx.label``.

    Built by hand, as ``Transaction`` is: the checks run first, then each
    slot is set through its own descriptor, not ``object.__setattr__``.
    """

    kind: str
    ts_ms: int = 0
    tx: Optional[Transaction] = None

    def __init__(self, kind: str, ts_ms: int = 0, tx: Optional[Transaction] = None) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown event kind: {kind}")
        if kind == "tx_arrival" and tx is None:
            raise ValueError("tx_arrival event needs a transaction payload")
        _set_kind(self, kind)
        _set_ts_ms(self, ts_ms)
        _set_tx(self, tx)


_set_kind = TraceEvent.kind.__set__
_set_ts_ms = TraceEvent.ts_ms.__set__
_set_tx = TraceEvent.tx.__set__


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
        raise TraceError(f"unknown fields {short_repr(sorted(set(record) - _ALL_FIELDS))}", line)
    if "kind" not in record or "ts_ms" not in record:
        raise TraceError("missing kind or ts_ms", line)
    kind = record["kind"]
    if kind not in KINDS:
        raise TraceError(f"unknown event kind {short_repr(kind)}", line)
    ts_ms = record["ts_ms"]
    # bool is an int subclass, and JSON numbers such as 1.0 or 1e3 are floats
    if type(ts_ms) is not int:
        raise TraceError(f"ts_ms must be an integer, got {short_repr(ts_ms)}", line)
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
    # the event holds _SOURCES's string, not the line's copy of it
    label = _BENIGN if source == _BENIGN else _ADVERSARIAL if source == _ADVERSARIAL else None
    # Transaction checks the field types (exact int, str sender), then ranges
    try:
        tx = Transaction(
            record["sender"],
            record["nonce"],
            record["price"],
            record["gas_used"],
            record["gas_limit"],
            record["value"],
            source if label is None else label,
        )
    except ValueError as exc:
        raise TraceError(str(exc), line) from exc
    if label is None:
        raise TraceError(f"source must be one of {_SOURCES}, got {short_repr(source)}", line)
    # the literal, not the line's copy of the kind
    return TraceEvent("tx_arrival", ts_ms, tx)


def _event_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event's trace line, its line break included."""
    for event in events:
        yield json.dumps(_event_to_record(event), sort_keys=True) + "\n"


def dump_events(events: Iterable[TraceEvent]) -> str:
    return "".join(_event_lines(events))


def write_trace(path, events: Iterable[TraceEvent]) -> None:
    """Write ``events`` to ``path`` as ``dump_events`` gives them, a line at a
    time, so the whole text is never held."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_event_lines(events))


def parse_trace_text(text: str) -> List[TraceEvent]:
    """The events of a trace's text; a ``TraceError`` names the first bad line.

    The text is cut into blocks that end just after the first line break at
    or past ``_READ_BLOCK`` characters, as ``parse_trace`` reads a file, and
    each block into its lines. Non-blank lines are decoded ``_DECODE_CHUNK``
    at a time by one ``json.loads``; a chunk that fails ``_decode_chunk``'s
    guards is decoded again line by line. Either way each record then passes
    the one schema check and the one timestamp check, in line order.
    """
    return _parse_blocks(_text_blocks(text))


def _text_blocks(text: str) -> Iterator[str]:
    """The blocks of ``text``: each ends just after the first line break that
    starts ``_READ_BLOCK`` or more characters into it, or at the end. Every
    break ``str.splitlines`` cuts at ends a block, so a text whose lines end
    in ``\\r`` alone is cut as finely as one whose lines end in ``\\n``."""
    start = 0
    while start < len(text):
        found = _LINE_BREAK.search(text, start + _READ_BLOCK)
        end = found.end() if found else len(text)
        yield text[start:end]
        start = end


def parse_trace(path) -> List[TraceEvent]:
    """The events of the trace file at ``path``, read in text mode (universal
    newlines, so a CRLF or CR file reads as LF) a block at a time: at least
    ``_READ_BLOCK`` characters, then the rest of the line they end in. Bytes
    that are not UTF-8 raise a ``TraceError`` naming their offset in the file,
    unless a bad line read before them raises first."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse_blocks(iter(lambda: fh.read(_READ_BLOCK) + fh.readline(), ""))
        except UnicodeDecodeError as exc:
            # the decoder was given the bytes that end where the file is read to
            at = fh.buffer.tell() - len(exc.object) + exc.start
            raise TraceError(f"invalid UTF-8 at byte {at}: {exc.reason}") from exc


def _parse_blocks(blocks: Iterable[str]) -> List[TraceEvent]:
    """The events of the trace text that ``blocks`` cut, each just after a
    line break; see ``parse_trace_text``. The cyclic collector is paused
    while the events are built: they hold no cycles."""
    events: List[TraceEvent] = []
    append = events.append
    last_ts = -math.inf
    split = chain.from_iterable(map(str.splitlines, blocks))
    numbered = ((n, raw) for n, raw in enumerate(split, 1) if raw.strip())
    with _collector_paused():
        while chunk := list(islice(numbered, _DECODE_CHUNK)):
            linenos, lines = zip(*chunk)
            records = _decode_chunk(lines)
            if records is None:
                # lazy: a line is decoded only after the lines before it are checked
                records = map(_decode_line, lines, linenos)
            for lineno, record in zip(linenos, records):
                event = _record_to_event(record, lineno)
                if event.ts_ms < last_ts:
                    raise TraceError(f"timestamp regression {event.ts_ms} < {last_ts}", lineno)
                last_ts = event.ts_ms
                append(event)
    return events


def _decode_chunk(lines: Sequence[str]) -> Optional[list]:
    """The records of ``lines`` from one ``json.loads``, exactly what decoding
    each line alone gives; None if the guards below cannot ensure that.

    Every line here starts with ``{`` and ends with ``}``, and no line holds a
    ``[``. The newline in each ``,\\n`` separator cannot sit in a JSON string,
    so the separator lies between two values, and the ``{`` after it can only
    open an element of an array: with no ``[`` in the lines, of the outer
    array. So every separator ends a record, no record spans two lines, and as
    many records as lines means one record per line, the object a per-line
    decode gives. Without these guards one decode would accept what a per-line
    decode rejects: two bad lines merged into one record, directly or through
    a nested array, a string cut in two, or two records on one line balancing
    a merge elsewhere. A valid chunk with a ``[`` in a sender is just decoded
    line by line.
    """
    if not all(raw[0] == "{" and raw[-1] == "}" for raw in lines):
        return None
    body = ",\n".join(lines)
    if "[" in body:
        return None
    try:
        records = json.loads("[" + body + "]")
    except (ValueError, RecursionError):
        return None
    return records if len(records) == len(lines) else None


def _decode_line(raw: str, lineno: int) -> Dict:
    """One line's record, or a ``TraceError`` naming the line."""
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer with more digits than Python converts
        # from a string, or nesting deeper than the decoder's recursion limit
        raise TraceError(f"malformed JSON: {exc}", lineno) from exc
    if not isinstance(record, dict):
        raise TraceError("record is not an object", lineno)
    return record


def world_for_trace(
    events: Iterable[TraceEvent],
    overrides: Optional[Mapping[str, tuple]] = None,
    block_gas_limit: Optional[int] = None,
) -> WorldState:
    """Default world for a trace: each sender's confirmed nonce is its lowest
    nonce in the trace and its balance covers the summed cost of all its
    transactions. ``overrides`` maps sender -> (balance, nonce). The cyclic
    collector is paused while the accounts are built: they hold no cycles."""
    accounts: Dict[str, AccountState] = {}
    with _collector_paused():
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
) -> Tuple[List[TraceEvent], Dict[str, tuple]]:
    """Chained pending txs, a future-tx burst, fillers, then parent-evicting
    txs: the events and the account seeds they need.

    Phase A: ``n1_prime`` accounts, each with a chain of ``n1 / n1_prime`` txs;
    the nonce-1 parents are cheap (1000 wei) and the rest expensive (200000 wei).
    Phase B: ``n_future`` nonce-3 txs, future because their senders are seeded
    with confirmed nonce 1, plus ``capacity - n1`` single-tx fillers.
    Phase C: ``n1_prime`` txs at 20000 wei that evict the cheap parents.
    """
    if n1_prime < 1 or n1 % n1_prime != 0:
        raise ValueError("n1 must be divisible by n1_prime")
    if n1 > capacity:
        raise ValueError("n1 exceeds pool capacity")
    chain_len = n1 // n1_prime
    events: List[TraceEvent] = []
    seeds: Dict[str, tuple] = {}
    ts = start_ms
    for acct in range(n1_prime):
        sender = f"tn1-a{acct}"
        for nonce in range(1, chain_len + 1):
            price = 1_000 if nonce == 1 else 200_000
            events.append(arrival(Transaction(sender=sender, nonce=nonce, price=price), ts_ms=ts))
            ts += 1
    for i in range(n_future):
        tx = Transaction(sender=f"tn1-f{i}", nonce=3, price=50_000)
        events.append(arrival(tx, ts_ms=ts))
        seeds[tx.sender] = (tx.cost * 4, 1)
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
    return events, seeds
