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
from mempoolsim import cli
from mempoolsim.cli import main
from mempoolsim.trace import tn1_account_overrides

from conftest import tx


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

    def test_non_integer_trigger_timestamp_rejected(self):
        with pytest.raises(TraceError, match="ts_ms"):
            parse_trace_text(json.dumps({"kind": "block_trigger", "ts_ms": False}))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = gen_cp_lock({"chain_len": 8})
        write_trace(path, events)
        assert dump_events(parse_trace(path)) == dump_events(events)


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
        assert report.reason_counts.get("invalid-future", 0) == 16


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

    def test_json_report_written(self, tmp_path):
        trace = tmp_path / "lock.jsonl"
        out = tmp_path / "report.json"
        main(["attack", "cp_lock", "--out", str(trace), "--capacity", "64"])
        main(["replay", str(trace), "--capacity", "64", "--json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["events"] == 64
