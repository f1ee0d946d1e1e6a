import json

import pytest
from hypothesis import given, settings, strategies as st

from mempoolsim import (
    AdmissionOutcome,
    AttackCostReport,
    ChildlessPricePolicy,
    OutcomeKind,
    PolicyConfig,
    Reason,
    ScenarioConfig,
    TraceError,
    arrival,
    bench,
    block_trigger,
    dump_events,
    gen_cp_lock,
    gen_random_adversary,
    parse_trace,
    parse_trace_text,
    replay,
    snapshot_marker,
    workload_batch_insert,
    workload_tn1,
    world_for_trace,
    write_trace,
)
from mempoolsim import cli, trace
from mempoolsim.cli import main
from mempoolsim.trace import tn1_account_overrides

from conftest import tx
from oracles import parse_trace_lines


def _overlong_price_line():
    """An arrival line whose price has more digits than Python converts."""
    line = dump_events([arrival(tx("A", 0, 5), 1)])
    return line.replace('"price": 5', '"price": ' + "9" * 5000)


class TestTraceFormat:
    def test_empty_text(self):
        assert parse_trace_text("") == []
        assert parse_trace_text("\n  \n") == []

    def test_order_preserved(self):
        events = [arrival(tx("A", 0, 5), 1), block_trigger(2), snapshot_marker(3)]
        parsed = parse_trace_text(dump_events(events))
        assert [e.kind for e in parsed] == ["tx_arrival", "block_trigger", "snapshot_marker"]

    def test_source_field_is_the_transaction_label(self):
        labels = ["adversarial", "benign"]
        text = dump_events([arrival(tx("A", n, 5, label=label), n) for n, label in enumerate(labels)])
        assert [json.loads(line)["source"] for line in text.splitlines()] == labels
        assert [e.tx.label for e in parse_trace_text(text)] == labels

    def test_round_trip_is_identity_on_serialized_form(self):
        events = gen_random_adversary({"steps": 100, "seed": 9})
        text = dump_events(events)
        assert dump_events(parse_trace_text(text)) == text

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
        assert dump_events(parse_trace_text(text)) == text

    def test_malformed_json_reports_line(self):
        text = dump_events([arrival(tx("A", 0, 5), 1)]) + "{not json\n"
        with pytest.raises(TraceError) as exc:
            parse_trace_text(text)
        assert exc.value.line == 2

    def test_unknown_field_rejected(self):
        record = {"kind": "block_trigger", "ts_ms": 0, "priority": 3}
        with pytest.raises(TraceError, match="unknown fields"):
            parse_trace_text(json.dumps(record))

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown event kind"):
            parse_trace_text(json.dumps({"kind": "reorg", "ts_ms": 0}))

    def test_tx_fields_on_trigger_rejected(self):
        record = {"kind": "block_trigger", "ts_ms": 0, "sender": "A"}
        with pytest.raises(TraceError, match="carries tx fields"):
            parse_trace_text(json.dumps(record))

    def test_missing_tx_fields_rejected(self):
        record = {"kind": "tx_arrival", "ts_ms": 0, "sender": "A"}
        with pytest.raises(TraceError, match="missing fields"):
            parse_trace_text(json.dumps(record))

    def test_timestamp_regression_rejected(self):
        events = [block_trigger(5), block_trigger(4)]
        lines = dump_events(events)
        with pytest.raises(TraceError, match="regression") as exc:
            parse_trace_text(lines)
        assert exc.value.line == 2

    def test_non_object_line_rejected(self):
        with pytest.raises(TraceError, match="not an object"):
            parse_trace_text("[1, 2, 3]")

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
            parse_trace_text(dump_events([block_trigger(0)]) + json.dumps(record))
        assert exc.value.line == 2

    @pytest.mark.parametrize("field", ["nonce", "price", "gas_used", "gas_limit", "value"])
    def test_field_at_2_256_rejected(self, field):
        record = json.loads(dump_events([arrival(tx("A", 0, 5), 1)]))
        record[field] = 2**256
        with pytest.raises(TraceError, match=f"{field} must be .* below 2") as exc:
            parse_trace_text(dump_events([block_trigger(0)]) + json.dumps(record))
        assert exc.value.line == 2

    def test_nesting_too_deep_to_decode_rejected_with_line(self):
        deep = '{"kind": ' + "[" * 5000 + "]" * 5000 + ', "ts_ms": 0}'
        with pytest.raises(TraceError, match="line 2: malformed JSON: maximum recursion"):
            parse_trace_text(dump_events([block_trigger(0)]) + deep)

    def test_number_too_long_to_convert_rejected_with_line(self):
        # past Python's int/str digit limit json.loads raises a bare ValueError
        line = _overlong_price_line()
        with pytest.raises(TraceError, match="malformed JSON") as exc:
            parse_trace_text(dump_events([block_trigger(0)]) + line)
        assert exc.value.line == 2

    def test_non_integer_trigger_timestamp_rejected(self):
        with pytest.raises(TraceError, match="ts_ms"):
            parse_trace_text(json.dumps({"kind": "block_trigger", "ts_ms": False}))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = gen_cp_lock({"chain_len": 8})
        write_trace(path, events)
        assert dump_events(parse_trace(path)) == dump_events(events)


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
    got = _outcome(parse_trace_text, text)
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


def _per_line_decodes(monkeypatch):
    """Set 2-line chunks; return the line numbers ``_decode_line`` is called with."""
    monkeypatch.setattr(trace, "_DECODE_CHUNK", 2)
    decoded = []
    decode_line = trace._decode_line

    def per_line(raw, lineno):
        decoded.append(lineno)
        return decode_line(raw, lineno)

    monkeypatch.setattr(trace, "_decode_line", per_line)
    return decoded


class TestOneDecodeMatchesPerLine:
    """``parse_trace_text`` decodes many lines per ``json.loads``; on every
    input it must give what the per-line reference parser gives."""

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

    def test_errors_and_regressions_across_chunks(self, monkeypatch):
        monkeypatch.setattr(trace, "_DECODE_CHUNK", 2)
        triggers = [json.dumps({"kind": "block_trigger", "ts_ms": ts}) for ts in (1, 2, 3, 2, 5)]
        assert _same_as_per_line("\n".join(triggers)) == (
            "error", "line 4: timestamp regression 2 < 3", 4
        )
        events = gen_random_adversary({"steps": 25, "seed": 3})
        text = dump_events(events)
        assert _same_as_per_line(text)[0] == "events"
        lines = text.splitlines()
        lines[20] = lines[20][:-1]
        assert _same_as_per_line("\n".join(lines))[2] == 21

    def test_valid_trace_is_decoded_without_the_per_line_parser(self, monkeypatch):
        def per_line(raw, lineno):
            raise AssertionError("valid trace fell back to the per-line parser")

        monkeypatch.setattr(trace, "_decode_line", per_line)
        events = gen_random_adversary({"steps": 300, "seed": 1})
        text = dump_events(events + [block_trigger(events[-1].ts_ms), snapshot_marker(10**9)])
        assert _outcome(parse_trace_text, text) == _outcome(parse_trace_lines, text)

    def test_only_the_chunk_failing_the_guards_is_decoded_per_line(self, monkeypatch):
        decoded = _per_line_decodes(monkeypatch)
        lines = [json.dumps({"kind": "block_trigger", "ts_ms": ts}) for ts in range(7)]
        # line 4 (second in the chunk of lines 3 and 4) holds a bracket
        lines[3] = _ARRIVAL.replace('"sender": "a"', '"sender": "[a]"').replace(
            '"ts_ms": 1', '"ts_ms": 3'
        )
        got = _same_as_per_line("\n".join(lines))
        assert got[0] == "events" and len(got[1]) == 7
        assert decoded == [3, 4]

    def test_bad_last_line_leaves_earlier_chunks_decoded_once(self, monkeypatch):
        decoded = _per_line_decodes(monkeypatch)
        chunks = []
        decode_chunk = trace._decode_chunk

        def one_decode(lines):
            chunks.append(list(lines))
            return decode_chunk(lines)

        monkeypatch.setattr(trace, "_decode_chunk", one_decode)
        lines = [json.dumps({"kind": "block_trigger", "ts_ms": ts}) for ts in range(7)]
        lines[6] = lines[6][:-1]
        with pytest.raises(TraceError, match="malformed JSON") as err:
            parse_trace_text("\n".join(lines))
        assert err.value.line == 7
        assert chunks == [lines[0:2], lines[2:4], lines[4:6], lines[6:]]
        assert decoded == [7]

    def test_repeated_key_keeps_its_last_value(self):
        text = _ARRIVAL.replace('"price": 5', '"price": 5, "price": 7') + "\n"
        text += '{"kind": "block_trigger", "ts_ms": 9, "ts_ms": 3}\n'
        got = _same_as_per_line(text)
        assert [(e[0], e[1]) for e in got[1]] == [("tx_arrival", 1), ("block_trigger", 3)]
        assert got[1][0][4] == 7

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.data())
    def test_cut_joined_and_garbled_lines_parse_as_per_line(self, data):
        base = dump_events(gen_random_adversary({"steps": 6, "seed": 5})).splitlines()
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


class TestWorldForTrace:
    def test_nonce_is_min_seen_and_balance_covers_costs(self):
        txs = [tx("A", 2, 5), tx("A", 3, 5), tx("B", 0, 1)]
        world = world_for_trace([arrival(t, i) for i, t in enumerate(txs)])
        assert world.nonce_of("A") == 2
        assert world.balance_of("A") == txs[0].cost + txs[1].cost
        assert world.nonce_of("B") == 0

    def test_overrides_win(self):
        events = [arrival(tx("A", 2, 5), 0)]
        world = world_for_trace(events, overrides={"A": (77, 1)})
        assert (world.balance_of("A"), world.nonce_of("A")) == (77, 1)

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

    def test_batch_insert_fills_pool_exactly(self):
        config = ScenarioConfig(policy=PolicyConfig(kind="cp"), capacity=50, final_drain=False)
        report = replay(config, workload_batch_insert(50))
        assert len(report.final_pending) == 50

    def test_tn1_chain_lengths(self):
        events = workload_tn1(10, 10, capacity=192, n_future=4)
        a_events = [e for e in events if e.tx.sender.startswith("tn1-a")]
        assert len(a_events) == 10  # chains of length 1
        assert {e.tx.price for e in a_events} == {1_000}

    def test_tn1_phase_prices(self):
        events = workload_tn1(100, 10, capacity=192, n_future=8)
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

    def test_tn1_future_burst_declined(self):
        events = workload_tn1(20, 10, capacity=64, n_future=16)
        config = ScenarioConfig(
            policy=PolicyConfig(kind="cp"),
            capacity=64,
            account_seeds=tn1_account_overrides(events),
            final_drain=False,
        )
        report = replay(config, events)
        assert report.summary()["reasons"].get("invalid-future", 0) == 16


class TestReplayHarness:
    def test_event_count_matches_trace_length(self):
        events = gen_random_adversary({"steps": 120, "seed": 2})
        report = replay(ScenarioConfig(capacity=32), events)
        assert report.event_count == 120
        assert len(report.outcomes) == sum(1 for e in events if e.kind == "tx_arrival")

    def test_snapshot_markers(self):
        events = [arrival(tx("A", n, 5), n) for n in range(6)]
        events.insert(3, snapshot_marker(2))
        events.insert(5, snapshot_marker(3))
        report = replay(ScenarioConfig(capacity=32), events)
        # two markers, one end snapshot
        assert [(s.event_index, len(s.pending)) for s in report.snapshots] == [
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(capacity=0)
        with pytest.raises(ValueError):
            ScenarioConfig(drain_mode="lazy")

    def test_bench_single_round(self):
        report = bench(ScenarioConfig(capacity=64), workload_batch_insert(50), rounds=1)
        assert report.rounds == 1 and report.stdev_s == 0.0
        assert len(report.csv_row().split(",")) == len(report.CSV_HEADER.split(","))

    def test_bench_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            bench(ScenarioConfig(capacity=64), workload_batch_insert(5), rounds=0)


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

    def test_bench_subcommand_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code = main(
            ["bench", "batch_insert", "--n0", "200", "--rounds", "2", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("workload,policy,rounds")
        assert lines[1].startswith("batch_insert,cp,2,")

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
            if pool.full:
                return AdmissionOutcome(OutcomeKind.ADMITTED_EVICTING, Reason.EVICTION, t)
            return decide(self, pool, t)

        monkeypatch.setattr(ChildlessPricePolicy, "decide", broken)
        trace = tmp_path / "three.jsonl"
        write_trace(trace, [arrival(tx(s, 0, 5), i) for i, s in enumerate("ABC")])
        assert main(["replay", str(trace), "--policy", "cp", "--capacity", "2"]) == 2
        err = capsys.readouterr().err
        assert "invariant violation: replay aborted at event 2: eviction outcome" in err

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

    @pytest.mark.parametrize("kind, params", [("random_adversary", "[1]"), ("xt6", "[]")])
    def test_params_not_an_object_is_usage_error(self, kind, params, capsys):
        assert main(["attack", kind, "--params", params]) == 1
        assert "error: --params must be a JSON object" in capsys.readouterr().err

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

    def test_json_report_written(self, tmp_path):
        trace = tmp_path / "lock.jsonl"
        out = tmp_path / "report.json"
        main(["attack", "cp_lock", "--out", str(trace), "--capacity", "64"])
        main(["replay", str(trace), "--capacity", "64", "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["events"] == 64
