import dataclasses
import gc
import importlib
import inspect
import io
import json
import re
import string
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from mempoolsim import (
    AttackPlan,
    AdmissionOutcome,
    AttackCostReport,
    ChildlessPricePolicy,
    PolicyConfig,
    PoolError,
    PriceOnlyPolicy,
    Reason,
    ReplayAbort,
    ScenarioConfig,
    TraceError,
    TraceEvent,
    Transaction,
    arrival,
    bench,
    block_trigger,
    dump_events,
    parse_trace,
    replay,
    snapshot_marker,
    workload_batch_insert,
    workload_tn1,
    world_for_trace,
    write_trace,
)
from mempoolsim import attacks, cli, trace
from mempoolsim.cli import main
from mempoolsim.core import MIN_TX_GAS, _collector_paused
from mempoolsim.replay import _cache_report_json

from conftest import parse_text, tx
from oracles import parse_trace_lines

# the package's ``replay`` attribute is the function
replay_module = importlib.import_module("mempoolsim.replay")


def _overlong_price_line():
    """An arrival line whose price has more digits than Python converts."""
    line = dump_events([arrival(tx("A", 0, 5), 1)])
    return line.replace('"price": 5', '"price": ' + "9" * 5000)


class TestTraceFormat:
    def test_empty_text(self):
        assert parse_text("") == []
        assert parse_text("\n  \n") == []

    def test_order_preserved(self):
        events = [arrival(tx("A", 0, 5), 1), block_trigger(2), snapshot_marker(3)]
        parsed = parse_text(dump_events(events))
        assert [e.kind for e in parsed] == ["tx_arrival", "block_trigger", "snapshot_marker"]

    def test_source_field_is_the_transaction_label(self):
        labels = ["adversarial", "benign"]
        text = dump_events([arrival(tx("A", n, 5, label=label), n) for n, label in enumerate(labels)])
        assert [json.loads(line)["source"] for line in text.splitlines()] == labels
        assert [e.tx.label for e in parse_text(text)] == labels

    def test_round_trip_is_identity_on_serialized_form(self):
        events = AttackPlan("random_adversary", {"steps": 100, "seed": 9}).events()
        text = dump_events(events)
        assert dump_events(parse_text(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_random_events(self, data):
        events = []
        ts = 0
        for _ in range(data.draw(st.integers(1, 8))):
            ts += data.draw(st.integers(0, 10))
            kind = data.draw(st.sampled_from(("tx", "block", "snap")))
            if kind == "tx":
                t = tx(
                    data.draw(st.sampled_from(("A", "B"))),
                    data.draw(st.integers(0, 5)),
                    data.draw(st.integers(1, 1000)),
                    value=data.draw(st.integers(0, 100)),
                    label=data.draw(st.sampled_from(("benign", "adversarial"))),
                )
                events.append(arrival(t, ts))
            elif kind == "block":
                events.append(block_trigger(ts))
            else:
                events.append(snapshot_marker(ts))
        text = dump_events(events)
        assert dump_events(parse_text(text)) == text

    def test_malformed_json_reports_line(self):
        text = dump_events([arrival(tx("A", 0, 5), 1)]) + "{not json\n"
        with pytest.raises(TraceError) as exc:
            parse_text(text)
        assert exc.value.line == 2

    def test_unknown_field_rejected(self):
        record = {"kind": "block_trigger", "ts_ms": 0, "priority": 3}
        with pytest.raises(TraceError, match="unknown fields"):
            parse_text(json.dumps(record))

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown event kind"):
            parse_text(json.dumps({"kind": "reorg", "ts_ms": 0}))

    def test_tx_fields_on_trigger_rejected(self):
        record = {"kind": "block_trigger", "ts_ms": 0, "sender": "A"}
        with pytest.raises(TraceError, match="carries tx fields"):
            parse_text(json.dumps(record))

    def test_missing_tx_fields_rejected(self):
        record = {"kind": "tx_arrival", "ts_ms": 0, "sender": "A"}
        with pytest.raises(TraceError, match="missing fields"):
            parse_text(json.dumps(record))

    def test_timestamp_regression_rejected(self):
        events = [block_trigger(5), block_trigger(4)]
        lines = dump_events(events)
        with pytest.raises(TraceError, match="regression") as exc:
            parse_text(lines)
        assert exc.value.line == 2

    def test_non_object_line_rejected(self):
        with pytest.raises(TraceError, match="not an object"):
            parse_text("[1, 2, 3]")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nonce", True),
            ("price", 1.5),
            ("gas_used", "21000"),
            ("gas_limit", 21000.0),
            ("value", None),
            ("ts_ms", 0.5),
            ("sender", 5),
            ("source", "friendly"),
        ],
    )
    def test_wrong_field_type_rejected(self, field, value):
        record = json.loads(dump_events([arrival(tx("A", 0, 5), 1)]))
        record[field] = value
        with pytest.raises(TraceError, match=field) as exc:
            parse_text(dump_events([block_trigger(0)]) + json.dumps(record))
        assert exc.value.line == 2

    @pytest.mark.parametrize("field", ["nonce", "price", "gas_used", "gas_limit", "value"])
    def test_field_at_2_256_rejected(self, field):
        record = json.loads(dump_events([arrival(tx("A", 0, 5), 1)]))
        record[field] = 2**256
        with pytest.raises(TraceError, match=f"{field} must be .* below 2") as exc:
            parse_text(dump_events([block_trigger(0)]) + json.dumps(record))
        assert exc.value.line == 2

    def test_nesting_too_deep_to_decode_rejected_with_line(self):
        # a decoder that recurses refuses the nesting; one that does not
        # (CPython 3.13's) decodes it, and the kind, a list, is refused
        deep = '{"kind": ' + "[" * 5000 + "]" * 5000 + ', "ts_ms": 0}'
        with pytest.raises(
            TraceError, match="malformed JSON: maximum recursion|unknown event kind"
        ) as exc:
            parse_text(dump_events([block_trigger(0)]) + deep)
        assert exc.value.line == 2

    def test_number_too_long_to_convert_rejected_with_line(self):
        # past Python's int/str digit limit json.loads raises a bare ValueError
        line = _overlong_price_line()
        with pytest.raises(TraceError, match="malformed JSON") as exc:
            parse_text(dump_events([block_trigger(0)]) + line)
        assert exc.value.line == 2

    def test_non_integer_trigger_timestamp_rejected(self):
        with pytest.raises(TraceError, match="ts_ms"):
            parse_text(json.dumps({"kind": "block_trigger", "ts_ms": False}))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "x" * 100_000}, "unknown event kind 'xxx"),
            ({"ts_ms": [0] * 50_000}, "ts_ms must be an integer, got [0, 0"),
            ({"source": "x" * 100_000}, "source must be one of"),
            ({"nonce": [0] * 50_000}, "nonce must be an integer, got [0, 0"),
            ({"sender": [0] * 50_000}, "sender must be a string, got [0, 0"),
            ({"x" * 100_000: 0}, "unknown fields ['xxx"),
        ],
        ids=["kind", "ts_ms", "source", "int-field", "sender", "unknown-field"],
    )
    def test_huge_bad_value_is_echoed_cut(self, fields, message):
        record = {**json.loads(dump_events([arrival(tx("A", 0, 5), 1)])), **fields}
        with pytest.raises(TraceError) as exc:
            parse_text(json.dumps(record))
        assert exc.value.line == 1
        assert str(exc.value).startswith(f"line 1: {message}")
        assert len(str(exc.value)) < 200

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events, _ = AttackPlan("cp_lock", {"chain_len": 8}).generate()
        write_trace(path, events)
        assert dump_events(parse_trace(path)) == dump_events(events)

    def test_file_round_trip_keeps_each_label(self, tmp_path):
        # a Transaction takes only a label that the parser reads back
        path = tmp_path / "trace.jsonl"
        labels = ["benign", "adversarial"]
        events = [arrival(tx("A", n, 5, label=label), n) for n, label in enumerate(labels)]
        write_trace(path, events)
        parsed = parse_trace(path)
        assert [e.tx.label for e in parsed] == labels
        assert dump_events(parsed) == dump_events(events)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"source": "whale"}, "source must be one of ('benign', 'adversarial'), got 'whale'"),
            ({"source": None}, "source must be one of ('benign', 'adversarial'), got None"),
            # the field checks run first
            ({"source": "whale", "price": 0}, "price must be positive and below 2**256, got 0"),
        ],
    )
    def test_unknown_source_is_the_parsers_error(self, fields, message):
        record = {**json.loads(dump_events([arrival(tx("A", 0, 5), 1)])), **fields}
        with pytest.raises(TraceError) as exc:
            parse_text(dump_events([block_trigger(0)]) + json.dumps(record))
        assert (str(exc.value), exc.value.line) == (f"line 2: {message}", 2)


def _outcome(parse, text):
    """What a parser makes of ``text``: the events' fields, or the TraceError's
    message and line. Any other exception propagates."""
    try:
        events = parse(text)
    except TraceError as exc:
        return ("error", str(exc), exc.line)
    return ("events", [_event_fields(e) for e in events])


def _event_fields(event):
    t = event.tx
    if t is None:
        return (event.kind, event.ts_ms)
    fields = (t.sender, t.nonce, t.price, t.gas_used, t.gas_limit, t.value, t.label)
    return (event.kind, event.ts_ms) + fields + (t.fee, t.cost)


def _same_as_per_line(text):
    got = _outcome(parse_text, text)
    assert got == _outcome(parse_trace_lines, text)
    return got


_ARRIVAL = json.dumps(
    {"kind": "tx_arrival", "ts_ms": 1, "sender": "a", "nonce": 0, "price": 5,
     "gas_used": 21000, "gas_limit": 21000, "value": 0, "source": "benign"}
)
_TRIGGER = '{"kind": "block_trigger", "ts_ms": 2}'
_SPLIT_SENDER = _ARRIVAL.replace('"sender": "a"', '"sender": "a\nb"').split("\n")
_DEEP = '{"kind": ' + "[" * 5000 + "]" * 5000 + "}"
_SEPARATED_SENDER = _ARRIVAL.replace('"sender": "a"', '"sender": "}\u2028{"')


# an arrival line as the writer emits it, which the parser's pattern reads
_SORTED_ARRIVAL = dump_events([arrival(tx("a", 0, 5), 1)]).rstrip("\n")
# a number with more digits than Python converts: json.dumps cannot write it,
# so a record holds it as a string that is unquoted after the dump
_HUGE = "9" * 5000
_HOSTILE_INTS = st.sampled_from(
    [0, 2**256 - 1, 2**256, 10**78, 10**78 - 1, -1, -(2**256), True, False, 1.5, 1e300, _HUGE]
)
_HOSTILE_SENDERS = st.one_of(
    st.text(st.sampled_from('a"\\\x00\x1f\x7f\u00fc\u0663\u2028'), max_size=4),
    st.sampled_from([5, None, ["a"]]),
)
_ARRIVAL_INTS = ("ts_ms", "nonce", "price", "gas_used", "gas_limit", "value")
_SENDER_CHARS = string.ascii_letters + string.digits + "-_:. "


class TestOneDecodeMatchesPerLine:
    """``parse_trace`` reads the writer's arrival lines through one pattern
    and decodes the others by ``json.loads``; on every input it must give
    what the per-line reference parser gives."""

    @pytest.mark.parametrize(
        "lines, line",
        [
            # two bad lines that one decode would merge into one good record
            (['{"kind": "block_trigger"', '"ts_ms": 5}'], 1),
            # a string cut in two
            (_SPLIT_SENDER, 1),
            # two records on one line, balancing a merge further down
            ([_TRIGGER + "," + _TRIGGER, '{"kind": "block_trigger"', '"ts_ms": 5}'], 1),
            # two records on one line alone
            ([_ARRIVAL, _TRIGGER + ", " + _TRIGGER], 2),
            # the cut string's halves each start with { and end with }
            (['{"kind": "tx_arrival", "sender": "}', '{", "ts_ms": 1}'], 1),
            # the same cut by a raw line separator, balanced by two records
            # on one line: joined by a bare comma, this decodes to 3 records
            (_SEPARATED_SENDER.splitlines() + [_TRIGGER + ", " + _TRIGGER], 1),
            # two lines merged through a nested array that a repeated key
            # then discards, balanced by two records on one line
            (
                [
                    '{"kind": [{"b": 1}',
                    '{"c": 2}], "kind": "block_trigger", "ts_ms": 1}',
                    '{"kind": "block_trigger", "ts_ms": 1}, {"kind": "block_trigger", "ts_ms": 1}',
                ],
                1,
            ),
        ],
    )
    def test_hostile_shapes_fail_on_their_line(self, lines, line):
        got = _same_as_per_line("\n".join(lines) + "\n")
        assert got[0] == "error" and got[2] == line

    @pytest.mark.parametrize(
        "text",
        [
            "\n\n" + _ARRIVAL + "\n   \n\t\n" + _TRIGGER + "\n\n",
            "  " + _ARRIVAL + " \n\t" + _TRIGGER + "\t",
            _ARRIVAL + "\r\n" + _TRIGGER + "\r\n",
            _ARRIVAL + "\r" + _TRIGGER,
            "\u00a0\n" + _ARRIVAL + "\n\u2028\n" + _TRIGGER,
            # an escaped line separator is an ordinary sender character
            _ARRIVAL.replace('"sender": "a"', '"sender": "a\\u2028b"'),
            # a bracket in a sender sends a valid trace down the per-line path
            _ARRIVAL.replace('"sender": "a"', '"sender": "[a]"') + "\n" + _TRIGGER,
        ],
    )
    def test_blank_padded_and_crlf_lines_parse(self, text):
        assert _same_as_per_line(text)[0] == "events"

    @pytest.mark.parametrize(
        "text, line",
        [
            # a raw line separator ends the line inside the sender
            (_ARRIVAL.replace('"sender": "a"', '"sender": "a\u2028b"'), 1),
            (_TRIGGER + "\n" + _SEPARATED_SENDER, 2),
            # JSON whitespace pads a line; a no-break space does not
            (_TRIGGER + "\n\u00a0" + _TRIGGER, 2),
            (_TRIGGER + "\n" + _overlong_price_line(), 2),
            (_TRIGGER + "\n[1, 2, 3]", 2),
            (_TRIGGER + '\n"{}"', 2),
            (_TRIGGER + "\n{}", 2),
            (_TRIGGER + '\n{"kind": "block_trigger", "ts_ms": 1}', 2),
            (_TRIGGER + "\n" + _ARRIVAL.replace(', "value": 0', ""), 2),
            (_TRIGGER + "\n" + _ARRIVAL.replace('"value": 0', '"value": 0, "tip": 1'), 2),
            (_TRIGGER + '\n{"kind": "block_trigger", "ts_ms": NaN}', 2),
            (_TRIGGER + '\n{"kind": "block_trigger", "ts_ms": {"ts_ms": 3}}', 2),
            (_TRIGGER + '\n{"kind": "snapshot_marker"}', 2),
            (_TRIGGER + '\n{"kind": "reorg", "ts_ms": 3}', 2),
            (_TRIGGER + '\n{"kind": "block_trigger", "ts_ms": 3, "sender": "a"}', 2),
            (_TRIGGER + "\n" + _ARRIVAL.replace('"benign"', '"friendly"'), 2),
            (_TRIGGER + "\n" + _ARRIVAL.replace('"price": 5', '"price": 0'), 2),
            (_TRIGGER + "\n" + _ARRIVAL.replace('"nonce": 0', '"nonce": true'), 2),
            ("\ufeff" + _TRIGGER, 1),
            # nesting past the decoder's recursion limit, after a bad line
            ('{"kind": "reorg", "ts_ms": 1}\n' + _DEEP, 1),
            (_TRIGGER + "\n" + _DEEP, 2),
        ],
    )
    def test_bad_lines_fail_as_per_line(self, text, line):
        got = _same_as_per_line(text)
        assert got[0] == "error" and got[2] == line

    def test_errors_and_regressions_across_chunks(self):
        triggers = [json.dumps({"kind": "block_trigger", "ts_ms": ts}) for ts in (1, 2, 3, 2, 5)]
        assert _same_as_per_line("\n".join(triggers)) == (
            "error", "line 4: timestamp regression 2 < 3", 4
        )
        events = AttackPlan("random_adversary", {"steps": 25, "seed": 3}).events()
        text = dump_events(events)
        assert _same_as_per_line(text)[0] == "events"
        lines = text.splitlines()
        lines[20] = lines[20][:-1]
        assert _same_as_per_line("\n".join(lines))[2] == 21

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("random_adversary", {"steps": 300, "seed": 1}),
            ("xt6", {}),
            ("cp_lock", {"chain_len": 8}),
        ],
    )
    def test_decode_line_sees_only_the_trigger_and_marker_lines(self, monkeypatch, kind, params):
        decoded = []
        decode_line = trace._decode_line

        def per_line(raw, lineno):
            decoded.append(raw)
            return decode_line(raw, lineno)

        monkeypatch.setattr(trace, "_decode_line", per_line)
        events = AttackPlan(kind, params).events()
        text = dump_events(events + [block_trigger(events[-1].ts_ms), snapshot_marker(10**9)])
        assert _same_as_per_line(text)[0] == "events"
        assert decoded == text.splitlines()[len(events):]

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(_SORTED_ARRIVAL, id="as-written"),
            pytest.param(" " + _SORTED_ARRIVAL + "\t", id="padded"),
            # a leading zero, and a digit that int() takes and JSON refuses
            pytest.param(_SORTED_ARRIVAL.replace('"nonce": 0', '"nonce": 00'), id="nonce-00"),
            pytest.param(_SORTED_ARRIVAL.replace('"price": 5', '"price": 05'), id="price-05"),
            pytest.param(
                _SORTED_ARRIVAL.replace('"price": 5', '"price": 5\u0663'), id="arabic-indic-digit"
            ),
            pytest.param(
                _SORTED_ARRIVAL.replace('"ts_ms": 1', '"ts_ms": \u0661'), id="arabic-indic-ts"
            ),
            # 78 digits are read by the pattern, and past 2**256; 79 are decoded
            pytest.param(
                _SORTED_ARRIVAL.replace('"price": 5', '"price": 1' + "0" * 77), id="78-digits"
            ),
            pytest.param(
                _SORTED_ARRIVAL.replace('"price": 5', '"price": 1' + "0" * 78), id="79-digits"
            ),
            pytest.param(_SORTED_ARRIVAL.replace('"value": 0', '"value": ' + _HUGE), id="huge"),
            pytest.param(
                _SORTED_ARRIVAL.replace('"ts_ms": 1', '"ts_ms": -' + _HUGE), id="huge-ts"
            ),
            pytest.param(_SORTED_ARRIVAL.replace('"ts_ms": 1', '"ts_ms": -0'), id="ts-minus-0"),
            pytest.param(
                _SORTED_ARRIVAL.replace('"ts_ms": 1', '"ts_ms": -1' + "0" * 77), id="ts-78-digits"
            ),
            pytest.param(_SORTED_ARRIVAL.replace('"nonce": 0', '"nonce": -0'), id="nonce-minus-0"),
            pytest.param(
                _SORTED_ARRIVAL.replace('"gas_used": 21000', '"gas_used": 21000.0'), id="float"
            ),
            # escapes decode to another text; raw non-ASCII is its own text
            pytest.param(
                _SORTED_ARRIVAL.replace('"sender": "a"', '"sender": "a\\\\b"'), id="backslash"
            ),
            pytest.param(
                _SORTED_ARRIVAL.replace('"sender": "a"', '"sender": "a\\"b"'), id="quote"
            ),
            pytest.param(
                _SORTED_ARRIVAL.replace('"sender": "a"', '"sender": "a\\u00fc"'), id="escape"
            ),
            pytest.param(
                _SORTED_ARRIVAL.replace('"sender": "a"', '"sender": "a\u00fc\u0663"'),
                id="raw-non-ascii",
            ),
            pytest.param(
                _SORTED_ARRIVAL.replace('"sender": "a"', '"sender": "a\tb"'), id="raw-tab"
            ),
            pytest.param(_SORTED_ARRIVAL.replace('"sender": "a"', '"sender": ""'), id="no-sender"),
            pytest.param(
                _SORTED_ARRIVAL.replace('"benign"', '"adversarial"'), id="adversarial"
            ),
            pytest.param(_SORTED_ARRIVAL.replace('"benign"', '"friendly"'), id="friendly"),
            pytest.param(_SORTED_ARRIVAL.replace('"benign"', '"benign "'), id="benign-space"),
            pytest.param(_SORTED_ARRIVAL.replace(", ", ","), id="no-spaces"),
            pytest.param(
                _SORTED_ARRIVAL + "\n" + _SORTED_ARRIVAL.replace('"ts_ms": 1', '"ts_ms": 0'),
                id="regression",
            ),
            pytest.param(
                _SORTED_ARRIVAL + "\n" + _SORTED_ARRIVAL.replace('"price": 5', '"price": 0'),
                id="price-0-on-line-2",
            ),
        ],
    )
    def test_lines_near_the_arrival_pattern_parse_as_per_line(self, text):
        _same_as_per_line(text + "\n")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_sorted_arrival_records_parse_as_per_line(self, data):
        lines = []
        for _ in range(data.draw(st.integers(1, 4))):
            gas_used = data.draw(st.integers(21_000, 10**7))
            record = {
                "kind": "tx_arrival",
                "ts_ms": data.draw(st.integers(-3, 3) | st.integers(-(10**77), 10**77)),
                "sender": data.draw(st.text(_SENDER_CHARS, max_size=6) | st.text(max_size=4)),
                "nonce": data.draw(st.integers(0, 2**256 - 1)),
                "price": data.draw(st.integers(1, 2**256 - 1)),
                "gas_used": gas_used,
                "gas_limit": data.draw(st.sampled_from((0, gas_used, gas_used + 1))),
                "value": data.draw(st.integers(0, 2**256 - 1)),
                "source": data.draw(st.sampled_from(("benign", "adversarial"))),
            }
            hostile = data.draw(st.none() | st.sampled_from(("sender", "source") + _ARRIVAL_INTS))
            if hostile == "sender":
                record["sender"] = data.draw(_HOSTILE_SENDERS)
            elif hostile == "source":
                record["source"] = data.draw(st.sampled_from(("friendly", "", "Benign", 1, None)))
            elif hostile is not None:
                record[hostile] = data.draw(_HOSTILE_INTS)
            line = json.dumps(record, sort_keys=True, ensure_ascii=data.draw(st.booleans()))
            lines.append(line.replace(f'"{_HUGE}"', _HUGE))
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(lines) - 1))
            at = data.draw(st.integers(0, len(lines[i])))
            char = data.draw(st.sampled_from(("0", "-", "\\", "\u0663", " ")))
            lines[i] = lines[i][:at] + char + lines[i][at:]
        _same_as_per_line("\n".join(lines) + "\n")

    def test_repeated_key_keeps_its_last_value(self):
        text = _ARRIVAL.replace('"price": 5', '"price": 5, "price": 7') + "\n"
        text += '{"kind": "block_trigger", "ts_ms": 9, "ts_ms": 3}\n'
        got = _same_as_per_line(text)
        assert [(e[0], e[1]) for e in got[1]] == [("tx_arrival", 1), ("block_trigger", 3)]
        assert got[1][0][4] == 7

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.data())
    def test_cut_joined_and_garbled_lines_parse_as_per_line(self, data):
        events = AttackPlan("random_adversary", {"steps": 6, "seed": 5}).events()
        base = dump_events(events).splitlines()
        base += [_TRIGGER.replace("2", "99"), '{"kind": "snapshot_marker", "ts_ms": 99}']
        lines = data.draw(st.lists(st.sampled_from(base), min_size=1, max_size=6))
        for _ in range(data.draw(st.integers(0, 4))):
            i = data.draw(st.integers(0, len(lines) - 1))
            op = data.draw(st.sampled_from(("cut", "join", "dup", "insert", "blank")))
            line = lines[i]
            at = data.draw(st.integers(0, len(line)))
            if op == "cut":
                lines[i : i + 1] = [line[:at], line[at:]]
            elif op == "join" and i + 1 < len(lines):
                sep = data.draw(st.sampled_from(("", ",", ", ", " ")))
                lines[i : i + 2] = [line + sep + lines[i + 1]]
            elif op == "dup":
                lines.insert(i, line)
            elif op == "insert":
                char = data.draw(st.sampled_from('{}[]",'))
                lines[i] = line[:at] + char + line[at:]
            else:
                lines.insert(i, data.draw(st.sampled_from(("", " ", "\t"))))
        _same_as_per_line("\n".join(lines) + "\n")


_UINT256_MAX = 2**256 - 1


class TestParsedFragment:
    """The parser writes a pattern-read arrival's report fragment from the
    line's texts, a second writer of the format ``_cache_report_json``
    writes (``core._ReportJsonSlot``); both must write the same string."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_written_arrival_holds_the_fragment_the_hash_writes(self, data):
        gas_used = data.draw(st.integers(MIN_TX_GAS, _UINT256_MAX))
        fields = {
            # printable ASCII, the empty sender, '"' and '\' among them
            "sender": data.draw(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))),
            # small ints, and up to 78 digits below 2**256
            "nonce": data.draw(st.integers(0, 9) | st.integers(0, _UINT256_MAX)),
            "price": data.draw(st.integers(1, 9) | st.integers(1, _UINT256_MAX)),
            "gas_used": gas_used,
            "gas_limit": data.draw(
                st.sampled_from((0, gas_used)) | st.integers(gas_used, _UINT256_MAX)
            ),
            "value": data.draw(st.integers(0, 9) | st.integers(0, _UINT256_MAX)),
        }
        # the writer's form, written from a record: a Transaction's own
        # gas_limit is never 0, but a line's may be
        record = {"kind": "tx_arrival", "ts_ms": 1, "source": "benign", **fields}
        (event,) = parse_text(json.dumps(record, sort_keys=True) + "\n")
        hand_built = Transaction(**fields)
        _cache_report_json([hand_built])
        if '"' in fields["sender"] or "\\" in fields["sender"]:
            # written escaped: json.loads reads the line, and the first hash
            # writes the fragment
            assert not hasattr(event.tx, "_report_json")
            _cache_report_json([event.tx])
        assert event.tx._report_json == hand_built._report_json

    @pytest.mark.parametrize("raw, escaped", [("é", "\\u00e9"), ("\x7f", "\\u007f")])
    def test_a_raw_sender_outside_the_pattern_gets_its_fragment_at_the_first_hash(
        self, raw, escaped
    ):
        # the writer escapes both characters; a line with either raw is
        # still a valid trace, read by json.loads
        text = _SORTED_ARRIVAL.replace('"sender": "a"', f'"sender": "a{raw}"') + "\n"
        _same_as_per_line(text)
        (event,) = parse_text(text)
        assert event.tx.sender == "a" + raw
        assert not hasattr(event.tx, "_report_json")
        replay(ScenarioConfig(capacity=4), [event]).report_hash()
        assert event.tx._report_json == f'["a{escaped}",0,5,21000,21000,0]'


_BREAKS = ["\r", "\n", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_TRIGGER_0 = _TRIGGER.replace("2", "0")
_LONG_SENDER = _ARRIVAL.replace('"sender": "a"', '"sender": "' + "s" * 100 + '"')
_EURO = "\u20ac".encode()
# multi-byte sender characters, so a character offset is not a byte offset
_UTF8_LINE = (_ARRIVAL.replace('"sender": "a"', '"sender": "\u00fc\u20ac"') + "\n").encode()
_RANDOM_TRACE = dump_events(AttackPlan("random_adversary", {"steps": 30, "seed": 2}).events())
# whole lines, valid and hostile, all at ts_ms 1 so any order may parse
_LINES = [
    _ARRIVAL,
    _TRIGGER.replace("2", "1"),
    '{"kind": "snapshot_marker", "ts_ms": 1}',
    _LONG_SENDER,
    _ARRIVAL.replace('"sender": "a"', '"sender": "[a]"'),
    '{"kind": "reorg", "ts_ms": 1}',
    '{"kind": "block_trigger", "ts_ms": 1.0}',
    # a raw line separator ends the line inside the sender
    _ARRIVAL.replace('"sender": "a"', '"sender": "a\u2028b"'),
    "",
    " \t",
]
# a replayable mix at one timestamp, the lines above, and bytes that are not UTF-8
_FILE_LINES = [
    line.encode()
    for line in _LINES + re.sub(r'"ts_ms": \d+', '"ts_ms": 1', _RANDOM_TRACE).splitlines()
] + [b"\xff", b"\xc3(", _EURO[:2]]


class TestBlockwiseParse:
    """``parse_trace`` reads the text a block at a time; the lines, events
    and errors are those of the whole text."""

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize(
        "text",
        [
            _RANDOM_TRACE,
            _RANDOM_TRACE.replace("\n", "\r\n"),
            _RANDOM_TRACE.replace("\n", "\r"),
            # a line longer than many blocks, after blank and padded lines
            "\r\n \r\n" + _TRIGGER_0 + "\r\r\n" + _LONG_SENDER + "\r" + _TRIGGER,
            # a raw line separator and a form feed end lines in text mode too
            _TRIGGER + "\u2028" + _TRIGGER + "\f" + _TRIGGER.replace("2", "3") + "\n",
            # bad lines: the error names the same line
            _RANDOM_TRACE.replace("\n", "\r\n") + '{"kind": "reorg", "ts_ms": 9}\r\n',
            _TRIGGER_0 + "\r" + _LONG_SENDER + "\r\n" + _LONG_SENDER[:-1] + "\r\n" + _TRIGGER,
            _TRIGGER.replace("2", "5") + "\r\n\r\n" + _TRIGGER,
            _TRIGGER + "\n" + _ARRIVAL.replace('"sender": "a"', '"sender": "a\u2028b"'),
        ],
    )
    def test_small_blocks_parse_as_the_whole_text(self, tmp_path, monkeypatch, text, block):
        monkeypatch.setattr(trace, "_READ_BLOCK", block)
        path = tmp_path / "trace.jsonl"
        path.write_bytes(text.encode("utf-8"))
        # a file is read with universal newlines, as read_text reads it
        assert _outcome(parse_trace, path) == _outcome(parse_trace_lines, path.read_text("utf-8"))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.sampled_from(_LINES), st.sampled_from(_BREAKS)), max_size=10),
        st.booleans(),
        st.sampled_from([1, 2, 7, 64, trace._READ_BLOCK]),
    )
    def test_lines_cut_anywhere_parse_as_per_line(self, tmp_path_factory, lines, ended, block):
        text = "".join(line + brk for line, brk in lines)
        if lines and not ended:
            text = text[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with patch.object(trace, "_READ_BLOCK", block):
            # universal newlines: "\r" and "\r\n" read as "\n", the others stay
            read = path.read_text("utf-8")
            assert _outcome(parse_trace, path) == _outcome(parse_trace_lines, read)

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\n",
            _UTF8_LINE + b"\xff",
            _UTF8_LINE * 300 + b"\xc3\x28",
            _UTF8_LINE * 3000 + b"\xff",
            # an incomplete character at the end of the file
            _UTF8_LINE * 3000 + _EURO[:2],
            # a character cut between two of the file's reads, then a bad byte
            b" " * (trace._READ_BLOCK - 1) + _EURO + b"\xff",
        ],
        ids=["alone", "after-a-line", "bad-pair", "blocks-in", "cut-at-end", "cut-between-reads"],
    )
    def test_invalid_utf8_is_named_by_its_offset_in_the_file(self, tmp_path, data):
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        path = tmp_path / "trace.jsonl"
        path.write_bytes(data)
        with pytest.raises(TraceError, match=f"^invalid UTF-8 at byte {whole.value.start}: "):
            parse_trace(path)

    def test_bad_line_blocks_before_invalid_utf8_is_named(self, tmp_path):
        # the bad bytes lie blocks past line 1, which is checked before they are read
        text = '{"kind": "reorg", "ts_ms": 1}\n' + (_TRIGGER + "\n") * 5000
        assert len(text) > 2 * trace._READ_BLOCK
        path = tmp_path / "trace.jsonl"
        path.write_bytes(text.encode() + b"\xff\n")
        with pytest.raises(TraceError, match="unknown event kind") as err:
            parse_trace(path)
        assert err.value.line == 1


class TestTraceEvent:
    def test_signature_fields_and_messages_are_the_dataclass_ones(self):
        params = inspect.signature(TraceEvent).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("kind", inspect.Parameter.empty), ("ts_ms", 0), ("tx", None)
        ]
        assert [f.name for f in dataclasses.fields(TraceEvent)] == ["kind", "ts_ms", "tx"]
        with pytest.raises(ValueError, match="^unknown event kind: reorg$"):
            TraceEvent("reorg", 1)
        with pytest.raises(ValueError, match="^tx_arrival event needs a transaction payload$"):
            TraceEvent("tx_arrival", 1)

    def test_every_slot_is_set_and_frozen(self):
        t = tx("A", 0, 5)
        event = TraceEvent("tx_arrival", 3, t)
        assert (event.kind, event.ts_ms, event.tx) == ("tx_arrival", 3, t)
        assert TraceEvent(kind="block_trigger") == block_trigger(0)
        assert not hasattr(event, "__dict__")
        for name in ("kind", "ts_ms", "tx"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, name, None)
        assert dataclasses.replace(event, ts_ms=4) == TraceEvent("tx_arrival", 4, t)
        with pytest.raises(ValueError, match="needs a transaction payload"):
            dataclasses.replace(event, tx=None)


class TestWorldForTrace:
    def test_nonce_is_min_seen_and_balance_covers_costs(self):
        txs = [tx("A", 2, 5), tx("A", 3, 5), tx("B", 0, 1)]
        world = world_for_trace([arrival(t, i) for i, t in enumerate(txs)])
        assert world.nonce_of("A") == 2
        assert world.accounts["A"].balance == txs[0].cost + txs[1].cost
        assert world.nonce_of("B") == 0

    @pytest.mark.parametrize("limit", [2.5, True, 0, -1, "1"])
    def test_block_gas_limit_must_be_a_positive_int(self, limit):
        with pytest.raises(ValueError, match="^block_gas_limit must be (an integer|positive), got "):
            world_for_trace([arrival(tx("A", 0, 5), 0)], block_gas_limit=limit)

    def test_overrides_win(self):
        events = [arrival(tx("A", 2, 5), 0)]
        world = world_for_trace(events, overrides={"A": (77, 1)})
        assert (world.accounts["A"].balance, world.nonce_of("A")) == (77, 1)

    def test_accounts_in_trace_order_then_override_only_senders(self):
        txs = [tx("B", 3, 5), tx("A", 1, 2), tx("B", 2, 1), tx("C", 0, 9)]
        events = [arrival(t, i) for i, t in enumerate(txs)]
        events.insert(2, block_trigger(1))
        world = world_for_trace(events, overrides={"Z": (5, 0), "A": (7, 4)}, block_gas_limit=99)
        assert list(world.accounts) == ["B", "A", "C", "Z"]
        assert [(a.balance, a.nonce) for a in world.accounts.values()] == [
            (txs[0].cost + txs[2].cost, 2), (7, 4), (txs[3].cost, 0), (5, 0)
        ]
        assert world.block_gas_limit == 99

    @given(
        value=st.one_of(
            st.booleans(),
            st.floats(),
            st.integers(max_value=-1),
            st.integers(min_value=2**256),
            st.text(max_size=8),
        ),
        slot=st.sampled_from((0, 1)),
    )
    @example(value=True, slot=0)
    @example(value=2.0, slot=1)
    @example(value=2**256, slot=0)
    @example(value="7", slot=1)
    def test_overrides_must_be_exact_uint256_ints(self, value, slot):
        events = [arrival(tx("A", 2, 5), 0)]
        pair = [10**30, 0]
        pair[slot] = value
        name = ("balance", "nonce")[slot]
        with pytest.raises(ValueError, match=f"^seeded {name} of 'A' must be "):
            world_for_trace(events, overrides={"A": tuple(pair)})

    @given(
        balance=st.integers(min_value=0, max_value=2**256 - 1),
        nonce=st.integers(min_value=0, max_value=2**256 - 1),
    )
    @example(balance=1, nonce=2)
    @example(balance=2**256 - 1, nonce=0)
    def test_overrides_of_exact_uint256_ints_build_the_world(self, balance, nonce):
        events = [arrival(tx("A", 2, 5), 0)]
        # a pair read from JSON is a list
        for seed in ((balance, nonce), [balance, nonce]):
            world = world_for_trace(events, overrides={"A": seed, "Z": seed})
            assert [(a.balance, a.nonce) for a in world.accounts.values()] == [(balance, nonce)] * 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({5: (1, 0)}, "account seed sender must be a string, got 5"),
            ({b"A": (1, 0)}, "account seed sender must be a string, got b'A'"),
            ({"A": (1,)}, "account seed of 'A' must be a (balance, nonce) pair, got (1,)"),
            ({"A": (1, 0, 0)}, "account seed of 'A' must be a (balance, nonce) pair, got (1, 0, 0)"),
            ({"A": "10"}, "account seed of 'A' must be a (balance, nonce) pair, got '10'"),
            ({"A": 7}, "account seed of 'A' must be a (balance, nonce) pair, got 7"),
        ],
    )
    def test_overrides_must_be_sender_and_pair(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            world_for_trace([arrival(tx("A", 2, 5), 0)], overrides=overrides)


class TestCollectorPause:
    """Parsing a trace and building its world pause the cyclic collector and
    give the caller back the state it had, also after a ``TraceError``."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_state_is_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        with _collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(TraceError):
            with _collector_paused():
                raise TraceError("bad", 1)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_parse_and_world_run_paused(self, monkeypatch, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        seen = []
        make_tx = trace.Transaction

        # both the pattern and the per-line path build each tx through it
        def spy(*fields):
            seen.append(gc.isenabled())
            return make_tx(*fields)

        monkeypatch.setattr(trace, "Transaction", spy)
        text = dump_events([arrival(tx("A", 0, 5), 1), arrival(tx("A", 1, 5), 2)])
        path = tmp_path / "t.jsonl"
        path.write_text(text, encoding="utf-8")
        events = parse_trace(path)
        assert dump_events(events) == text and seen == [False] * 2
        assert gc.isenabled() is enabled
        for bad in (text + "{}\n", text + '{"kind": "tx_arrival", "ts_ms": 0}\n'):
            with pytest.raises(TraceError):
                parse_text(bad)
            assert gc.isenabled() is enabled

        def arrivals():
            for event in events:
                seen.append(gc.isenabled())
                yield event

        seen.clear()
        world_for_trace(arrivals())
        assert seen == [False, False] and gc.isenabled() is enabled


class TestWorkloads:
    def test_batch_insert_shape(self):
        events = workload_batch_insert(5)
        assert [e.tx.nonce for e in events] == [1, 2, 3, 4, 5]
        assert {e.tx.sender for e in events} == {"batch-0"}
        assert {e.tx.price for e in events} == {10_000}

    def test_batch_insert_single(self):
        assert len(workload_batch_insert(1)) == 1

    def test_batch_insert_rejects_zero(self):
        with pytest.raises(ValueError):
            workload_batch_insert(0)

    @pytest.mark.parametrize(
        "n0, message",
        [(-3, "n0 must be positive, got -3"), (True, "n0 must be an integer, got True"),
         (2.0, "n0 must be an integer, got 2.0")],
    )
    def test_batch_insert_rejects_a_size_that_is_not_a_positive_int(self, n0, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            workload_batch_insert(n0)

    def test_batch_insert_fills_pool_exactly(self):
        config = ScenarioConfig(policy=PolicyConfig(kind="cp"), capacity=50, final_drain=False)
        report = replay(config, workload_batch_insert(50))
        assert len(report.final_pending) == 50

    def test_tn1_chain_lengths(self):
        events, _ = workload_tn1(10, 10, capacity=192, n_future=4)
        a_events = [e for e in events if e.tx.sender.startswith("tn1-a")]
        assert len(a_events) == 10  # chains of length 1
        assert {e.tx.price for e in a_events} == {1_000}

    def test_tn1_phase_prices(self):
        events, _ = workload_tn1(100, 10, capacity=192, n_future=8)
        prices = {}
        for e in events:
            prefix = e.tx.sender.split("-")[1][0]
            prices.setdefault(prefix, set()).add(e.tx.price)
        assert prices["a"] == {1_000, 200_000}
        assert prices["f"] == {50_000}
        assert prices["p"] == {150_000}
        assert prices["e"] == {20_000}
        assert len(events) == 100 + 8 + (192 - 100) + 10

    def test_tn1_divisibility_enforced(self):
        with pytest.raises(ValueError):
            workload_tn1(7, 10)

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((-10, 10), {}, "n1 must be positive, got -10"),
            ((20.0, 10), {}, "n1 must be an integer, got 20.0"),
            ((20, True), {}, "n1_prime must be an integer, got True"),
            ((20, 0), {}, "n1_prime must be positive, got 0"),
            ((20, 10), {"capacity": 0}, "capacity must be positive, got 0"),
            ((20, 10), {"n_future": -5}, "n_future must be a non-negative integer, got -5"),
            ((20, 10), {"n_future": True}, "n_future must be a non-negative integer, got True"),
            ((20, 10), {"n_future": 2.0}, "n_future must be a non-negative integer, got 2.0"),
            ((200, 10), {"capacity": 192}, "n1 exceeds pool capacity"),
        ],
    )
    def test_tn1_rejects_hostile_sizes(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            workload_tn1(*args, **kwargs)

    def test_tn1_future_burst_declined(self):
        events, seeds = workload_tn1(20, 10, capacity=64, n_future=16)
        assert list(seeds) == [f"tn1-f{i}" for i in range(16)]
        config = ScenarioConfig(
            policy=PolicyConfig(kind="cp"), capacity=64, account_seeds=seeds, final_drain=False
        )
        report = replay(config, events)
        assert report.summary()["reasons"].get("invalid-future", 0) == 16


class TestReplayHarness:
    def test_event_count_matches_trace_length(self):
        events = AttackPlan("random_adversary", {"steps": 120, "seed": 2}).events()
        report = replay(ScenarioConfig(capacity=32), events)
        assert report.event_count == 120
        assert len(report.outcomes) == sum(1 for e in events if e.kind == "tx_arrival")

    def test_snapshot_markers(self):
        events = [arrival(tx("A", n, 5), n) for n in range(6)]
        events.insert(3, snapshot_marker(2))
        events.insert(5, snapshot_marker(3))
        report = replay(ScenarioConfig(capacity=32), events)
        # two markers, one end snapshot
        assert [(s.event_index, len(report.pending_at(s))) for s in report.snapshots] == [
            (3, 3), (5, 4), (8, 6)
        ]

    def test_interleaved_block_triggers(self):
        events = [arrival(tx("A", 0, 5), 0), block_trigger(1), arrival(tx("B", 0, 5), 2)]
        report = replay(ScenarioConfig(capacity=8, drain_mode="interleaved"), events)
        assert len(report.blocks) >= 2
        assert [t.sender for t in report.blocks[0].txs] == ["A"]

    def test_end_only_ignores_triggers(self):
        events = [arrival(tx("A", 0, 5), 0), block_trigger(1), arrival(tx("B", 0, 5), 2)]
        report = replay(ScenarioConfig(capacity=8, drain_mode="end_only"), events)
        assert len(report.blocks) == 1

    def test_a_passed_world_must_have_the_configs_block_gas_limit(self):
        # a 100k-gas block holds one of four 60k-gas arrivals
        events = [arrival(tx(s, 0, 5, gas=60_000), 0) for s in "ABCD"] + [block_trigger(1)]
        config = ScenarioConfig(block_gas_limit=100_000, drain_mode="interleaved")
        assert len(replay(config, events).blocks[0].txs) == 1
        world = world_for_trace(events, block_gas_limit=100_000)
        assert len(replay(config, events, world).blocks[0].txs) == 1
        message = "^world.block_gas_limit 30000000 is not the config's 100000$"
        with pytest.raises(ValueError, match=message):
            replay(config, events, world_for_trace(events))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(capacity=0)
        with pytest.raises(ValueError):
            ScenarioConfig(drain_mode="lazy")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ScenarioConfig(capacity=True), "capacity must be an integer, got True"),
            (lambda: ScenarioConfig(capacity=2.5), "capacity must be an integer, got 2.5"),
            (lambda: ScenarioConfig(capacity="8"), "capacity must be an integer, got '8'"),
            (lambda: ScenarioConfig(capacity=-3), "capacity must be positive, got -3"),
            (
                lambda: ScenarioConfig(block_gas_limit=1.5),
                "block_gas_limit must be an integer, got 1.5",
            ),
            (lambda: ScenarioConfig(block_gas_limit=-1), "block_gas_limit must be positive, got -1"),
            (lambda: ScenarioConfig(block_gas_limit=0), "block_gas_limit must be positive, got 0"),
            (
                lambda: ScenarioConfig(per_sender_limit=1.5),
                "per-sender limit must be an integer, got 1.5",
            ),
            (
                lambda: ScenarioConfig(per_sender_limit=False),
                "per-sender limit must be an integer, got False",
            ),
            (lambda: ScenarioConfig(per_sender_limit=0), "per-sender limit must be positive, got 0"),
        ],
    )
    def test_config_sizes_must_be_exact_positive_ints(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_config_sizes_accept_exact_positive_ints_and_no_sender_limit(self):
        config = ScenarioConfig(capacity=1, per_sender_limit=None, block_gas_limit=21_000)
        assert (config.capacity, config.block_gas_limit) == (1, 21_000)
        assert config.per_sender_limit is None
        assert ScenarioConfig(per_sender_limit=1).per_sender_limit == 1

    def test_replay_applies_the_config_sender_limit(self):
        events = [arrival(tx("A", 0, 5), 1), arrival(tx("A", 1, 5), 2), arrival(tx("B", 0, 5), 3)]
        report = replay(ScenarioConfig(capacity=4, per_sender_limit=1), events)
        assert [o.reason for o in report.outcomes] == [
            Reason.POOL_NOT_FULL,
            Reason.SENDER_LIMIT,
            Reason.POOL_NOT_FULL,
        ]

    @pytest.mark.parametrize(
        "config",
        [ScenarioConfig(drain_mode="interleaved"), PolicyConfig()],
        ids=["scenario", "policy"],
    )
    def test_config_fields_cannot_be_reassigned(self, config):
        # checked once at construction: a later typo such as "interleavd"
        # cannot slip past the drain-mode check
        for f in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, "interleavd")

    def test_account_seeds_are_a_read_only_copy(self):
        seeds = {"A": (77, 1)}
        config = ScenarioConfig(account_seeds=seeds)
        seeds["A"] = (0, 0)
        seeds["B"] = (1, 0)
        assert dict(config.account_seeds) == {"A": (77, 1)}
        with pytest.raises(TypeError):
            config.account_seeds["A"] = (0, 0)
        # replace(), as bench's tn1 seeding uses it, copies the new seeds too
        other = dataclasses.replace(config, account_seeds=seeds)
        assert dict(other.account_seeds) == seeds and other.capacity == config.capacity
        # a read-only mapping has no hash, so neither has the config
        with pytest.raises(TypeError):
            hash(config)

    @given(
        value=st.one_of(
            st.booleans(),
            st.floats(),
            st.integers(max_value=-1),
            st.integers(min_value=2**256),
            st.text(max_size=8),
        ),
        slot=st.sampled_from((0, 1)),
    )
    @example(value=1000000.5, slot=0)
    @example(value=0.0, slot=1)
    @example(value=2**256, slot=0)
    def test_account_seeds_must_be_exact_uint256_ints(self, value, slot):
        pair = [10**30, 0]
        pair[slot] = value
        name = ("balance", "nonce")[slot]
        with pytest.raises(ValueError, match=f"^seeded {name} of 'a' must be "):
            ScenarioConfig(account_seeds={"a": tuple(pair)})

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ({5: (1, 0)}, "account seed sender must be a string, got 5"),
            ({None: (1, 0)}, "account seed sender must be a string, got None"),
            ({"a": (1,)}, "account seed of 'a' must be a (balance, nonce) pair, got (1,)"),
            (
                {"a": (1, 0, 0)},
                "account seed of 'a' must be a (balance, nonce) pair, got (1, 0, 0)",
            ),
            ({"a": "10"}, "account seed of 'a' must be a (balance, nonce) pair, got '10'"),
            ({"a": 7}, "account seed of 'a' must be a (balance, nonce) pair, got 7"),
        ],
    )
    def test_account_seeds_must_be_sender_and_pair(self, seeds, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioConfig(account_seeds=seeds)

    @given(
        balance=st.integers(min_value=0, max_value=2**256 - 1),
        nonce=st.integers(min_value=0, max_value=2**256 - 1),
    )
    def test_account_seeds_of_exact_uint256_ints_are_kept(self, balance, nonce):
        # a pair read from JSON is a list; either is kept as a tuple of the
        # same int objects
        for pair in ((balance, nonce), [balance, nonce]):
            config = ScenarioConfig(account_seeds={"a": pair})
            kept = config.account_seeds["a"]
            assert type(kept) is tuple and kept == tuple(pair)
            assert kept[0] is pair[0] and kept[1] is pair[1]

    def test_a_list_seed_changed_after_construction_does_not_reach_the_config(self):
        seed = [10**18, 0]
        config = ScenarioConfig(account_seeds={"a": seed})
        seed[1] = 5
        assert config.account_seeds["a"] == (10**18, 0)
        report = replay(config, [arrival(tx("a", 0, 5), 0)])
        assert [o.reason for o in report.outcomes] == [Reason.POOL_NOT_FULL]

    def test_bench_single_round(self):
        report = bench(ScenarioConfig(capacity=64), workload_batch_insert(50), rounds=1)
        assert report.rounds == 1 and report.stdev_s == 0.0
        assert len(report.csv_row().split(",")) == len(report.CSV_HEADER.split(","))

    def test_bench_rejects_zero_rounds(self):
        for rounds, message in (
            (0, "rounds must be positive, got 0"),
            (True, "rounds must be an integer, got True"),
            (2.5, "rounds must be an integer, got 2.5"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                bench(ScenarioConfig(capacity=64), workload_batch_insert(5), rounds=rounds)


class TestCli:
    def test_attack_generate_and_replay_file(self, tmp_path, capsys):
        trace = tmp_path / "lock.jsonl"
        code = main(["attack", "cp_lock", "--out", str(trace), "--capacity", "64"])
        assert code == 0
        code = main(["replay", str(trace), "--policy", "cp", "--capacity", "64"])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{") :])
        assert summary["policy"] == "cp" and summary["events"] == 64

    def test_attack_run_inline(self, capsys):
        code = main(["attack", "deter_future", "--run", "--capacity", "32"])
        assert code == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{") :])
        assert summary["reasons"] == {"invalid-future": 10}
        assert summary["fees_charged"] == 0

    def test_attack_run_puts_the_final_drains_leftovers_at_risk(self, capsys):
        # xt6 strands its adversarial chain in a baseline pool: the final
        # drain empties the pool but builds one block, and what it leaves
        # unbuilt is still at risk, never charged
        assert main(["attack", "xt6", "--run", "--policy", "baseline"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pending"] == 0
        assert summary["fees_charged"] == 2_247_000
        assert summary["fees_at_risk"] == 423_402_000

    def test_attack_xt6_params_override_the_profile_full_picks(self, tmp_path):
        # a partial --params is merged into the desk profile, or with --full
        # into the full one: seq_len 8 is the desk value, 16 the full one
        def lines(*argv):
            out = tmp_path / "xt6.jsonl"
            assert main(["attack", "xt6", *argv, "--out", str(out)]) == 0
            return out.read_text().splitlines()

        plain = lines()
        assert len(plain) == 390
        assert lines("--params", '{"seq_len": 8}') == plain
        assert len(lines("--full", "--params", '{"seq_len": 16}')) == 11_334

    def test_bounds_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "lock.jsonl"
        main(["attack", "cp_lock", "--out", str(trace), "--capacity", "64"])
        code = main(["bounds", str(trace), "--capacity", "64"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["cp_bound_wei"] == 21_000 * (63 * 1 + 10_000)

    def test_gamma_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "lock.jsonl"
        main(["attack", "cp_lock", "--out", str(trace), "--capacity", "64"])
        code = main(["gamma", str(trace), "--capacity", "64"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["gamma_max"] == 10_000 / 1 - 1

    def test_gamma_on_an_empty_end_of_trace_pool_is_an_error(self, tmp_path, capsys):
        # the interleaved block takes the one arrival, so the pool ends empty
        trace = tmp_path / "emptied.jsonl"
        write_trace(trace, [arrival(tx("A", 0, 5), 1), block_trigger(2)])
        assert main(["gamma", str(trace), "--drain-mode", "interleaved"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: empty end-of-trace pool; nothing to report"

    def test_bench_subcommand_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code = main(
            ["bench", "batch_insert", "--n0", "200", "--rounds", "2", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("workload,policy,rounds")
        assert lines[1].startswith("batch_insert,cp,2,")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["replay"], 1),
            (["replay", "t.jsonl", "--policy", "lru"], 1),
            (["attack", "nope"], 1),
            (["replay", "t.jsonl", "--capacity", "abc"], 1),
            (["replay", "t.jsonl", "--seed", "99"], 1),
            (["bench", "batch_insert", "--json", "b.json"], 1),
            (["--help"], 0),
            (["replay", "--help"], 0),
        ],
        ids=[
            "missing-trace", "unknown-policy", "unknown-attack", "non-integer-capacity",
            "seed-off-attack", "json-on-bench", "help", "subcommand-help",
        ],
    )
    def test_argparse_exit_codes(self, argv, code, capsys):
        # an argparse usage error exits 1: 2 is reserved for invariant violations
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert "usage: mempoolsim" in (captured.err if code else captured.out)

    def test_bench_tn1_with_a_negative_size_is_usage_error(self, capsys):
        # capacity - n1 would be 202 fillers for a 192-slot pool
        argv = ["bench", "tn1", "--n1", "-10", "--n1-prime", "10", "--rounds", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: n1 must be positive, got -10" in captured.err

    def test_missing_trace_is_usage_error(self, capsys):
        assert main(["replay", "/nonexistent/trace.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert main(["replay", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_fractional_price_is_usage_error(self, tmp_path, capsys):
        record = json.loads(dump_events([arrival(tx("A", 0, 5), 1)]))
        record["price"] = 1.5
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        assert main(["replay", str(bad)]) == 1
        assert "line 1: price must be an integer" in capsys.readouterr().err

    def test_overlong_price_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_overlong_price_line())
        assert main(["replay", str(bad)]) == 1
        assert "line 1: malformed JSON" in capsys.readouterr().err

    def test_broken_outcome_in_replay_exits_2_with_event_index(self, tmp_path, monkeypatch, capsys):
        # cp claims an eviction but names no victim once the pool is full
        decide = ChildlessPricePolicy.decide

        def broken(self, pool, t):
            if len(pool) >= pool.capacity:
                return AdmissionOutcome(Reason.EVICTION)
            return decide(self, pool, t)

        monkeypatch.setattr(ChildlessPricePolicy, "decide", broken)
        trace = tmp_path / "three.jsonl"
        write_trace(trace, [arrival(tx(s, 0, 5), i) for i, s in enumerate("ABC")])
        assert main(["replay", str(trace), "--policy", "cp", "--capacity", "2"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: replay aborted at event 2: eviction outcome" in err

    def test_non_pending_victim_in_replay_exits_2_with_event_index(
        self, tmp_path, monkeypatch, capsys
    ):
        # once the pool is full, baseline names a victim the pool never held;
        # the snapshot marker puts that arrival at event 3, not arrival 2
        stranger = tx("Z", 0, 1)
        decide = PriceOnlyPolicy.decide

        def broken(self, pool, t):
            if len(pool) >= pool.capacity:
                return AdmissionOutcome(Reason.EVICTION, stranger)
            return decide(self, pool, t)

        monkeypatch.setattr(PriceOnlyPolicy, "decide", broken)
        trace = tmp_path / "marked.jsonl"
        write_trace(trace, [
            arrival(tx("A", 0, 5), 0), snapshot_marker(1),
            arrival(tx("B", 0, 5), 2), arrival(tx("C", 0, 9), 3),
        ])
        assert main(["replay", str(trace), "--policy", "baseline", "--capacity", "2"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: replay aborted at event 3: victim <Z:0 @1> not pending" in err

    def test_broken_final_drain_exits_2_with_end_index(self, tmp_path, monkeypatch, capsys):
        # the final drain runs after the last event: its index is the trace's length
        def broken(pool, world):
            raise PoolError("drain broke")

        monkeypatch.setattr(replay_module, "drain", broken)
        events = [arrival(tx(s, 0, 5), i) for i, s in enumerate("AB")] + [snapshot_marker(2)]
        with pytest.raises(ReplayAbort) as exc:
            replay(ScenarioConfig(capacity=2), events)
        assert exc.value.index == 3 and str(exc.value.cause) == "drain broke"
        trace = tmp_path / "drained.jsonl"
        write_trace(trace, events)
        assert main(["replay", str(trace), "--capacity", "2"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: replay aborted at event 3: drain broke" in err

    def test_broken_attack_cost_exits_2(self, monkeypatch, capsys):
        # outside a replay a bare PoolError is an invariant violation too
        monkeypatch.setattr(
            cli, "attack_cost", lambda *_: AttackCostReport(fees_charged=2, fees_at_risk=1)
        )
        assert main(["attack", "deter_future", "--run", "--capacity", "32"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: charged fees cannot exceed fees at risk" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--capacity", "0"], "capacity must be positive"),
            (["--per-sender-limit", "0"], "per-sender limit must be positive"),
            (["--per-sender-limit", "-2"], "per-sender limit must be positive"),
        ],
    )
    def test_bounds_below_one_are_usage_errors(self, argv, message, capsys):
        assert main(["attack", "cp_lock", "--run"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err

    def test_a_negative_seeded_balance_is_a_usage_error(self, capsys):
        assert main(["attack", "mempurge_overdraft", "--params", '{"balance": -5}', "--run"]) == 1
        captured = capsys.readouterr()
        message = "error: seeded balance of 'mempurge-0' must be non-negative and below 2**256"
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("kind, params", [("random_adversary", "[1]"), ("xt6", "[]")])
    def test_params_not_an_object_is_usage_error(self, kind, params, capsys):
        assert main(["attack", kind, "--params", params]) == 1
        assert "error: --params must be a JSON object" in capsys.readouterr().err

    def test_params_nested_too_deep_is_usage_error(self, capsys):
        # a decoder that stops at its recursion limit gives malformed JSON;
        # one that decodes this deep (Python 3.13's) gives a list, not an object
        params = "[" * 5000 + "]" * 5000
        assert main(["attack", "xt6", "--params", params]) == 1
        err = capsys.readouterr().err
        assert re.search(
            r"^error: --params (is malformed JSON: maximum recursion|must be a JSON object)", err
        ), err

    def test_param_value_nested_too_deep_is_usage_error(self, capsys):
        # decoded or not, a deep value inside the object is a usage error,
        # not a RecursionError from copying the params
        params = '{"mix": ' + "[" * 990 + "]" * 990 + "}"
        assert main(["attack", "random_adversary", "--params", params]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: (--params is malformed JSON|attack parameters are nested)", err)

    @pytest.mark.parametrize("delay", ["inf", "nan", "-1"])
    def test_delay_not_finite_or_negative_is_usage_error(self, delay, capsys):
        assert main(["attack", "cp_lock", "--delay", delay, "--capacity", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: delay must be finite and non-negative" in captured.err

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("random_adversary", '{"stepz": 5}', "unknown random_adversary parameter 'stepz'"),
            ("random_adversary", '{"steps": "5"}', "'steps' must be an integer, got '5'"),
            ("random_adversary", '{"seed": 1.0}', "'seed' must be an integer, got 1.0"),
            ("random_adversary", '{"mix": {"chian": 2}}', "unknown random_adversary mix parameter"),
            ("random_adversary", '{"mix": {"fresh": 0.5}}', "mix parameter 'fresh' must be an int"),
            ("random_adversary", '{"mix": [1]}', "mix parameters must be a JSON object"),
            ("cp_lock", '{"bogus": 5}', "unknown cp_lock parameter 'bogus'"),
            ("cp_lock", '{"capacity": "96"}', "cp_lock parameter 'capacity' must be an integer"),
            ("xt6", '{"n_seq": true}', "xt6 parameter 'n_seq' must be an integer, got True"),
            ("xt6", '{"price_schedule": ["a", "b", "c", "d"]}', "strictly increasing integer"),
            ("deter_future", '{"count": 2.0}', "'count' must be an integer"),
            ("mempurge_overdraft", '{"balance": "1"}', "'balance' must be an integer"),
        ],
    )
    def test_bad_params_are_usage_errors(self, kind, params, message, capsys):
        # a misspelt key used to replay the defaults, a wrong type to crash
        assert main(["attack", kind, "--params", params, "--capacity", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"steps": "x" * 100_000}, "random_adversary parameter 'steps' must be an integer"),
            ({"x" * 100_000: 1}, "unknown random_adversary parameter 'xxx"),
        ],
    )
    def test_huge_bad_param_is_named_in_a_short_error(self, params, message, capsys):
        assert main(["attack", "random_adversary", "--params", json.dumps(params)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err) < 200

    def test_attack_run_generates_once(self, monkeypatch, capsys):
        calls = []
        generate = attacks.ATTACKS["random_adversary"]

        def counted(params, start_ms):
            calls.append((dict(params), start_ms))
            return generate(params, start_ms)

        monkeypatch.setitem(attacks.ATTACKS, "random_adversary", counted)
        argv = ["attack", "random_adversary", "--params", '{"steps": 60}', "--seed", "2"]
        assert main(argv + ["--run", "--capacity", "16"]) == 0
        assert calls == [({"steps": 60, "seed": 2}, 0)]
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 60

    def test_replay_csv_has_one_row_per_block(self, tmp_path, capsys):
        # four 10M-gas txs: the final drain fills a 30M block with the three
        # dearest and builds a second block for the cheapest
        txs = [tx(f"s{i}", 0, 2 + i, gas=10_000_000) for i in range(4)]
        trace = tmp_path / "big.jsonl"
        write_trace(trace, [arrival(t, step) for step, t in enumerate(txs)])
        csv_path = tmp_path / "blocks.csv"
        assert main(["replay", str(trace), "--capacity", "16", "--csv", str(csv_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["blocks"] == 2
        assert csv_path.read_text().splitlines() == [
            "block,revenue",
            f"0,{10_000_000 * (5 + 4 + 3)}",
            f"1,{10_000_000 * 2}",
        ]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_FILE_LINES), st.sampled_from([b"\n", b"\r\n", b"\r"])),
            max_size=12,
        ),
        st.integers(1, 4),
        st.sampled_from(sorted(cli.POLICIES)),
        st.sampled_from(("end_only", "interleaved")),
    )
    def test_replay_of_a_hostile_file_exits_0_or_1(
        self, tmp_path_factory, lines, capacity, policy, drain_mode
    ):
        path = tmp_path_factory.mktemp("cli") / "trace.jsonl"
        path.write_bytes(b"".join(line + brk for line, brk in lines))
        argv = ["replay", str(path), "--capacity", str(capacity), "--policy", policy]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv + ["--drain-mode", drain_mode])
        # 2 means a broken invariant, and must name its event
        assert code in (0, 1) or (
            code == 2 and re.search(r"replay aborted at event \d+", err.getvalue())
        ), (code, err.getvalue())

    def test_json_report_written(self, tmp_path):
        trace = tmp_path / "lock.jsonl"
        out = tmp_path / "report.json"
        main(["attack", "cp_lock", "--out", str(trace), "--capacity", "64"])
        main(["replay", str(trace), "--capacity", "64", "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["events"] == 64
