"""Memory of the set-up, the pool and the report hash, measured with
``tracemalloc``: what a call allocates beyond what it leaves behind, and
what a parse or a pool keeps.

A parse reads the trace a block at a time, ``write_trace`` writes it a line
at a time and ``report_hash`` feeds the hash a batch of entries at a time, so
none holds a copy of the whole trace or the whole report. A parsed arrival
keeps no copy of what the library already holds: its kind and source are the
library's strings, and an equal ``gas_limit`` and ``cost`` are the
``gas_used`` and ``fee`` objects. A pool keeps only its pending set: the
outcome ``admit`` returns, beside the arrival in ``report.arrivals``, is the
only record of a decline, and that outcome is its reason's shared constant.
A report's snapshot records where it fell among the outcomes and blocks, not
a copy of the pool.
"""

import gc
import json
import tracemalloc

import pytest

from mempoolsim import (
    AttackPlan,
    Mempool,
    PolicyConfig,
    ScenarioConfig,
    Transaction,
    arrival,
    dump_events,
    parse_trace,
    replay,
    snapshot_marker,
    workload_batch_insert,
    write_trace,
)

from conftest import fill_pool, parse_text, rich_world, tx
from test_report_hash import canonical


def _traced(call):
    """``call()``'s result, the bytes it allocated that are alive when it
    returned (the result among them), and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def _transient(call):
    """Peak bytes that ``call()`` allocated beyond those alive when it returned."""
    _, kept, peak = _traced(call)
    return peak - kept


def test_parse_transient_does_not_grow_with_the_trace(tmp_path):
    transients = {}
    for lines in (2_000, 8_000):
        text = dump_events(workload_batch_insert(lines))
        # lines ended by "\r" alone are cut into blocks as finely
        cr_text = text.replace("\n", "\r")
        path = tmp_path / f"trace-{lines}.jsonl"
        path.write_text(text, encoding="utf-8")
        cr_path = tmp_path / f"trace-{lines}-cr.jsonl"
        cr_path.write_bytes(cr_text.encode("utf-8"))
        transients[lines] = (
            _transient(lambda: parse_trace(path)),
            _transient(lambda: parse_trace(cr_path)),
        )
    for small, large in zip(transients[2_000], transients[8_000]):
        assert large <= 1.25 * small, transients


def test_write_trace_transient_does_not_grow_with_the_trace(tmp_path):
    transients = {}
    for lines in (2_000, 8_000):
        events = workload_batch_insert(lines)
        path = tmp_path / f"trace-{lines}.jsonl"
        transients[lines] = _transient(lambda: write_trace(path, events))
        assert path.read_text("utf-8") == dump_events(events)
    assert transients[8_000] <= 1.25 * transients[2_000], transients


def _written_random_adversary():
    """The text of a 4,000-arrival random_adversary trace as the writer
    writes it, and the account seeds it needs."""
    events, seeds = AttackPlan("random_adversary", {"steps": 4_000, "seed": 5}).generate()
    return dump_events(events), seeds


def test_a_parsed_arrival_keeps_at_most_500_bytes():
    # ~432 B an arrival: the event, its tx, the tx's sender and ints (~349 B)
    # and the tx's report fragment (~83 B), which the parse writes in place
    # of the first report_hash; a parse that also kept its own copy of each
    # kind, source, gas_limit and cost would keep ~550 B
    text, _ = _written_random_adversary()
    parsed, kept, _ = _traced(lambda: parse_text(text))
    arrivals = sum(event.kind == "tx_arrival" for event in parsed)
    assert arrivals == 4_000
    assert kept / arrivals <= 500, kept / arrivals


def test_the_first_report_hash_of_a_parsed_trace_keeps_at_most_8_bytes_per_arrival():
    # the parse wrote each arrival's fragment, so the first hash, like any
    # later one, encodes no tx: a hash that filled the fragments would keep
    # ~84 B an arrival
    text, seeds = _written_random_adversary()
    events = parse_text(text)
    config = ScenarioConfig(policy=PolicyConfig(kind="baseline"), capacity=192, account_seeds=seeds)
    report = replay(config, events)
    first = _traced(report.report_hash)[1]
    assert first / 4_000 <= 8, first / 4_000


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_report_hash_transient_is_at_most_3x_the_canonical_json(warm):
    # a cold report fills its txs' fragments first; a warm one reads them
    plan = AttackPlan("random_adversary", {"steps": 6_000, "seed": 2})
    config = ScenarioConfig(
        policy=PolicyConfig(kind="cp"), capacity=192, account_seeds=plan.account_seeds()
    )
    report = replay(config, plan.events())
    if warm:
        report.report_hash()
    size = len(json.dumps(canonical(report), sort_keys=True, separators=(",", ":")))
    transient = _transient(report.report_hash)
    assert transient <= 3 * size, (transient, size)


def test_report_hash_keeps_one_fragment_per_arrival_for_the_trace():
    # the first report of a trace caches each arrival's fragment, ~84 B
    # (one short string); a later report of the same trace reads them
    plan = AttackPlan("random_adversary", {"steps": 6_000, "seed": 2})
    events, seeds = plan.generate()
    reports = [
        replay(
            ScenarioConfig(policy=PolicyConfig(kind=kind), capacity=192, account_seeds=seeds),
            events,
        )
        for kind in ("baseline", "cp")
    ]
    first = _traced(reports[0].report_hash)[1]
    second = _traced(reports[1].report_hash)[1]
    assert first / 6_000 <= 120, first / 6_000
    assert second / 6_000 <= 8, second / 6_000


def test_a_decline_only_report_keeps_at_most_32_bytes_per_arrival():
    # a decline's outcome is its reason's shared constant, so the report
    # keeps three pointers per arrival (its outcome, its tx and its price
    # sum), ~26 B with the lists' spare room; an object per decline kept ~73 B
    n = 20_000
    events = [
        arrival(Transaction("poor", 0, 5) if i % 2 else Transaction("gap", 1 + i, 5), i)
        for i in range(n)
    ]
    # "poor" cannot pay, and "gap"'s nonces all lie above its confirmed 0
    seeds = {"poor": (0, 0), "gap": (10**30, 0)}
    for kind in ("baseline", "cp", "map"):
        config = ScenarioConfig(policy=PolicyConfig(kind=kind), capacity=16, account_seeds=seeds)
        report, kept, _ = _traced(lambda: replay(config, events))
        assert report.summary()["reasons"] == {"invalid-future": n // 2, "invalid-overdraft": n // 2}
        assert kept / n <= 32, (kind, kept / n)
        del report


def test_a_snapshot_keeps_its_position_not_a_copy_of_the_pool():
    # a snapshot is its event index, one int and a list slot; a copy of the
    # full 5,120-tx pool's pending list would keep ~41 KB
    events = workload_batch_insert(5_120)
    config = ScenarioConfig(
        policy=PolicyConfig(kind="baseline"), capacity=5_120, final_drain=False
    )
    peaks = {}
    for markers in (1, 2_000):
        trace = events + [snapshot_marker(events[-1].ts_ms) for _ in range(markers)]
        report, _, peaks[markers] = _traced(lambda: replay(config, trace))
        assert len(report.snapshots) == markers + 1
        assert len(report.pending_at(report.snapshots[-2])) == 5_120
        del report
    per_marker = (peaks[2_000] - peaks[1]) / 1_999
    assert per_marker <= 256, (per_marker, peaks)


def test_a_full_pool_keeps_nothing_of_its_declines():
    pool, world = Mempool(capacity=4), rich_world("a", "b", "x")
    fill_pool(pool, world, [tx("a", 0, 5), tx("a", 1, 5), tx("b", 0, 5), tx("b", 1, 5)])
    policy = PolicyConfig(kind="cp").build()

    def decline(n):
        # each arrival is made in the call, so a pool that kept it would
        # keep its bytes too: below the pool's prices (the policy declines)
        # or a nonce gap (the precheck declines)
        for i in range(n):
            outcome = pool.admit(Transaction("x", i % 2, 1), world, policy)
            assert not outcome.admitted

    # the first admission builds the policy's order index
    decline(2)
    kept = {n: _traced(lambda: decline(n))[1] for n in (2_000, 8_000)}
    assert len(pool) == 4
    assert kept[8_000] <= 1.25 * kept[2_000], kept
