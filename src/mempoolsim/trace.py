"""Line-delimited trace file format and the synthetic performance workloads.

A trace file is UTF-8 JSON-lines: one object per line with the fields
{kind, ts_ms, sender, nonce, price, gas_used, gas_limit, value, source}.
Transaction fields are only present for ``tx_arrival`` events. Parsing is
strict: unknown fields, timestamp regressions, numbers that are not JSON
integers or lie outside Ethereum's uint256 range, a non-string sender and an
unknown source are rejected with the offending line number. A key repeated
within a record keeps its last value.

A trace file is read and cut into lines a block at a time, so no copy of the
whole text or list of all its lines is held: a parse's transient memory is a
block, whatever the trace's size. The file is read with universal newlines,
so a ``\r\n`` or ``\r`` reads as ``\n``. A block is the next ``_READ_BLOCK``
characters and then the rest of the line they end in, so no line spans two
blocks, and ``str.splitlines`` of each block in turn gives exactly the lines
of the whole text. An arrival line exactly as the writer emits it, with a
sender of printable ASCII that needed no escape, is read through one compiled
pattern, ``_ARRIVAL_LINE``, and its tx keeps its report fragment written from
the line's own texts; any other line is decoded on its own by ``json.loads``.
Both give the events and errors of a per-line decode. A trace is written a
line at a time too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .core import (
    AccountState,
    Transaction,
    WorldState,
    _LABELS,
    _collector_paused,
    _set_report_json,
    check_account_seed,
    check_positive_int,
    frozen_slots,
    short_repr,
)

KINDS = ("tx_arrival", "block_trigger", "snapshot_marker")
_TX_FIELDS = ("sender", "nonce", "price", "gas_used", "gas_limit", "value", "source")
_ALL_FIELDS = frozenset(("kind", "ts_ms") + _TX_FIELDS)
_SOURCES = _BENIGN, _ADVERSARIAL = _LABELS
# the fewest characters in a block of text cut into lines at a time
_READ_BLOCK = 1 << 16


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
    # Transaction checks the field types (exact int, str sender), then
    # ranges; an unknown source passes a valid placeholder, so that the
    # source's own error below comes after those checks
    try:
        tx = Transaction(
            record["sender"],
            record["nonce"],
            record["price"],
            record["gas_used"],
            record["gas_limit"],
            record["value"],
            _BENIGN if label is None else label,
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


# The one line _event_lines writes for an arrival whose sender needs no
# escape, and no other: the keys sorted, json.dumps's default ", " and ": "
# separators, each int 1 to 78 ASCII digits with no leading zero (ts_ms alone
# may be negative), a sender of printable ASCII other than '"' and '\' (the
# writer escapes every other character), and a known source. So a matched
# line is a JSON object with exactly the arrival fields, each decoded value
# is its group's text, the texts are what the report fragment writes (``str``
# of each int, the sender as ``encode_basestring_ascii`` writes it, quotes
# aside), and ``int`` of at most 78 digits never reaches
# ``sys.get_int_max_str_digits``. The groups are the values in key order,
# the literal kind left out.
_DIGITS = "(?:0|[1-9][0-9]{0,77})"
_ARRIVAL_VALUE = {
    "kind": '"tx_arrival"',
    "ts_ms": f"(-?{_DIGITS})",
    "sender": r'"([ !#-\[\]-~]*)"',
    "source": f'"({_BENIGN}|{_ADVERSARIAL})"',
}
_ARRIVAL_LINE = re.compile(
    r"\{"
    + ", ".join(
        f'"{name}": ' + _ARRIVAL_VALUE.get(name, f"({_DIGITS})") for name in sorted(_ALL_FIELDS)
    )
    + r"\}"
)
# a matched source's label: the library's string, not the line's copy
_LABEL = {_BENIGN: _BENIGN, _ADVERSARIAL: _ADVERSARIAL}


def dump_events(events: Iterable[TraceEvent]) -> str:
    return "".join(_event_lines(events))


def write_trace(path, events: Iterable[TraceEvent]) -> None:
    """Write ``events`` to ``path`` as ``dump_events`` gives them, a line at a
    time, so the whole text is never held."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_event_lines(events))


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
    line break or at the end; a ``TraceError`` names the first bad line.

    A line that ``_ARRIVAL_LINE`` matches builds its arrival from the
    pattern's groups, and its tx's report fragment (``_ReportJsonSlot``)
    from their texts, so no report of the trace encodes that tx again; any
    other non-blank line is decoded by ``json.loads`` and passes the schema
    check, and its tx gets its fragment at its first hash. Either way the
    ``Transaction`` and ``TraceEvent`` constructors and the one timestamp
    check run in line order, so each error names the line a per-line decode
    names. The cyclic collector is paused while the events are built: they
    hold no cycles."""
    events: List[TraceEvent] = []
    append = events.append
    last_ts = -math.inf
    arrival_line = _ARRIVAL_LINE.fullmatch
    lines = chain.from_iterable(map(str.splitlines, blocks))
    with _collector_paused():
        for lineno, raw in enumerate(lines, 1):
            match = arrival_line(raw)
            if match is not None:
                # the groups in key order: see _ARRIVAL_LINE
                gas_limit, gas_used, nonce, price, sender, source, ts_ms, value = match.groups()
                # Transaction reads a gas_limit of 0 as gas_used, and so must
                # the fragment
                if gas_limit == "0":
                    gas_limit = gas_used
                used = int(gas_used)
                try:
                    tx = Transaction(
                        sender, int(nonce), int(price), used,
                        used if gas_limit == gas_used else int(gas_limit),
                        0 if value == "0" else int(value), _LABEL[source],
                    )
                except ValueError as exc:
                    raise TraceError(str(exc), lineno) from exc
                # each text is what the fragment writes: see _ARRIVAL_LINE
                _set_report_json(
                    tx, f'["{sender}",{nonce},{price},{gas_used},{gas_limit},{value}]'
                )
                event = TraceEvent("tx_arrival", int(ts_ms), tx)
            elif raw.strip():
                event = _record_to_event(_decode_line(raw, lineno), lineno)
            else:
                continue
            if event.ts_ms < last_ts:
                raise TraceError(f"timestamp regression {event.ts_ms} < {last_ts}", lineno)
            last_ts = event.ts_ms
            append(event)
    return events


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
    transactions. ``overrides`` maps sender -> (balance, nonce), each checked
    as ``ScenarioConfig`` checks an account seed, and a ``block_gas_limit``
    other than None must be an exact positive int, as there. The cyclic
    collector is paused while the accounts are built: they hold no cycles."""
    if block_gas_limit is not None:
        check_positive_int("block_gas_limit", block_gas_limit)
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
        for sender, seed in overrides.items():
            check_account_seed(sender, seed)
            accounts[sender] = AccountState(seed[0], seed[1])
    world = WorldState(accounts)
    if block_gas_limit is not None:
        world.block_gas_limit = block_gas_limit
    return world


# ------------------------------------------------------------ workloads


def workload_batch_insert(n0: int) -> List[TraceEvent]:
    """One sender, nonces 1..n0, fixed price; stresses single-chain admission."""
    check_positive_int("n0", n0)
    return [
        arrival(Transaction(sender="batch-0", nonce=i, price=10_000), ts_ms=i)
        for i in range(1, n0 + 1)
    ]


def workload_tn1(
    n1: int, n1_prime: int, capacity: int = 5120, n_future: int = 1024
) -> Tuple[List[TraceEvent], Dict[str, tuple]]:
    """Chained pending txs, a future-tx burst, fillers, then parent-evicting
    txs: the events and the account seeds they need.

    Phase A: ``n1_prime`` accounts, each with a chain of ``n1 / n1_prime`` txs;
    the nonce-1 parents are cheap (1000 wei) and the rest expensive (200000 wei).
    Phase B: ``n_future`` nonce-3 txs, future because their senders are seeded
    with confirmed nonce 1, plus ``capacity - n1`` single-tx fillers.
    Phase C: ``n1_prime`` txs at 20000 wei that evict the cheap parents.

    ``n1``, ``n1_prime`` and ``capacity`` must be exact positive ints and
    ``n_future`` an exact non-negative int.
    """
    check_positive_int("n1", n1)
    check_positive_int("n1_prime", n1_prime)
    check_positive_int("capacity", capacity)
    if type(n_future) is not int or n_future < 0:
        raise ValueError(f"n_future must be a non-negative integer, got {short_repr(n_future)}")
    if n1 % n1_prime != 0:
        raise ValueError("n1 must be divisible by n1_prime")
    if n1 > capacity:
        raise ValueError("n1 exceeds pool capacity")
    chain_len = n1 // n1_prime
    events: List[TraceEvent] = []
    seeds: Dict[str, tuple] = {}
    ts = 0
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
