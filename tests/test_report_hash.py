"""``RunReport.report_hash()`` against the reference encoding of the report.

``canonical`` below builds the report as nested lists and
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` serialises it;
that is the definition in docs/format.md. ``report_hash()`` writes the same
bytes directly, so the two digests must agree on every report: the golden
replay matrix and hand-built reports with hostile strings, shared
transactions and huge integers.
"""

import dataclasses
import hashlib
import importlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from mempoolsim import PolicyConfig, ScenarioConfig, arrival, dump_events, replay
from mempoolsim.core import AdmissionOutcome, Block, Reason, Transaction
from mempoolsim.replay import RunReport

from conftest import parse_text
from test_golden_hashes import DRAIN_MODES, GOLDEN, POLICIES, TRACES

# the package's ``replay`` attribute is the function
replay_module = importlib.import_module("mempoolsim.replay")


# docs/format.md: an outcome's kind follows from its reason value
KIND_OF_REASON = {"pool-not-full": "admitted-no-evict", "eviction": "admitted-evicting"}


def canonical(report: RunReport) -> dict:
    def tx_key(tx: Transaction):
        return [tx.sender, tx.nonce, tx.price, tx.gas_used, tx.gas_limit, tx.value]

    return {
        "summary": report.summary(),
        "outcomes": [
            [
                KIND_OF_REASON.get(o.reason.value, "declined"),
                o.reason.value,
                tx_key(tx),
                [] if o.victim is None else [tx_key(o.victim)],
            ]
            for o, tx in zip(report.outcomes, report.arrivals, strict=True)
        ],
        "blocks": [[tx_key(tx) for tx in b.txs] for b in report.blocks],
        "declined": [[tx_key(tx), reason.value] for tx, reason in report.declined],
        "price_sums": report.price_sum_series,
    }


def oracle_hash(report: RunReport) -> str:
    blob = json.dumps(canonical(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_matches_oracle_on_golden_matrix(trace):
    capacity, make = TRACES[trace]
    events, seeds = make()
    for policy in POLICIES:
        for drain_mode in DRAIN_MODES:
            config = ScenarioConfig(
                policy=PolicyConfig(kind=policy),
                capacity=capacity,
                account_seeds=seeds,
                drain_mode=drain_mode,
            )
            report = replay(config, events)
            assert report.report_hash() == oracle_hash(report), (policy, drain_mode)


HOSTILE_SENDERS = [
    'a"b',
    "back\\slash",
    "tab\there",
    "nul\x00byte",
    "ünï",
    "rocket \U0001F680",
    "\ud800",
    "",
    "</script>\n\r\x1f\x7f",
]
HUGE = 10**30
# the reasons an outcome declines with: all but the two admitting ones and
# unbuildable, which only the final drain's leftovers get
DECLINING = [
    r for r in Reason if r not in (Reason.POOL_NOT_FULL, Reason.EVICTION, Reason.UNBUILDABLE)
]


def _report(senders, big: int = 1) -> RunReport:
    """A report where one tx per sender is an arrival, a victim, a block tx
    and a declined entry at once, next to repeated arrivals and empty
    blocks. Its outcomes and leftovers put every reason label in the hashed
    bytes: pool-not-full in the outcomes, every other one in the declined
    ledger."""
    txs = [
        Transaction(sender=s, nonce=i, price=big + i, gas_used=21_000 * big, value=big - 1)
        for i, s in enumerate(senders)
    ]
    shared = txs[0]
    arrival = Transaction(sender="arrival", nonce=HUGE, price=big, gas_limit=42_000 * big)
    entries = [
        (AdmissionOutcome(Reason.POOL_NOT_FULL), shared),
        *((AdmissionOutcome(Reason.EVICTION, victim), arrival) for victim in txs),
        *((AdmissionOutcome(r), txs[-1]) for r in DECLINING),
        (AdmissionOutcome(Reason.EVICTION, shared), txs[1 % len(txs)]),
    ]
    report = RunReport(policy="cp", capacity=len(txs), event_count=len(entries))
    report.outcomes = [o for o, _ in entries]
    report.arrivals = [t for _, t in entries]
    report.blocks = [Block([shared, arrival]), Block([]), Block(txs[::-1]), Block([])]
    report.unbuildable = [shared]
    report.price_sum_series = [big, 0, big * 3, HUGE]
    report.final_pending = txs[1:]
    return report


@pytest.mark.parametrize("sender", HOSTILE_SENDERS)
def test_matches_oracle_on_hostile_sender(sender):
    report = _report([sender, "plain", sender + sender])
    assert report.report_hash() == oracle_hash(report)


def test_matches_oracle_on_all_hostile_senders_and_huge_ints():
    report = _report(HOSTILE_SENDERS, big=HUGE)
    assert report.report_hash() == oracle_hash(report)
    # every reason label the declined ledger can hold
    assert {r for _, r in report.declined} == set(Reason) - {Reason.POOL_NOT_FULL}
    assert Reason.POOL_NOT_FULL in {o.reason for o in report.outcomes}


@pytest.mark.parametrize("reason", list(Reason), ids=lambda r: r.value)
def test_each_reason_writes_its_documented_kind(reason):
    # one outcome per report, so the hash's kind table is read for this
    # reason alone, unbuildable included, which no replay puts in outcomes
    a, b = Transaction("A", 0, 5), Transaction("B", 0, 1)
    report = RunReport(policy="baseline", capacity=1, event_count=1)
    report.outcomes = [AdmissionOutcome(reason, b if reason is Reason.EVICTION else None)]
    report.arrivals = [a]
    assert report.report_hash() == oracle_hash(report)
    assert report.outcomes[0].admitted is (reason.value in KIND_OF_REASON)


def test_matches_oracle_on_empty_report():
    report = RunReport(policy="baseline", capacity=1)
    assert report.report_hash() == oracle_hash(report)
    report.blocks = [Block([]), Block([])]
    assert report.report_hash() == oracle_hash(report)


def test_equal_fields_distinct_objects_and_rehash_after_change():
    # two distinct txs with equal fields encode the same
    a = Transaction(sender="s", nonce=0, price=5)
    b = Transaction(sender="s", nonce=0, price=5)
    report = _report(["x", "y"])
    report.blocks.append(Block([a, b]))
    first = report.report_hash()
    assert first == oracle_hash(report)
    assert report.report_hash() == first
    # a changed report gets a new digest, still the oracle's
    report.unbuildable.append(Transaction(sender="s", nonce=1, price=6))
    assert report.report_hash() == oracle_hash(report) != first


def test_a_report_no_replay_could_make_hashes_but_its_walk_raises():
    # arrival 2 evicts y:1, which no earlier outcome admitted: the hash and
    # the declined ledger read the records as they are, while the flags and
    # the dUtil ledger, which walk the residents, name the outcome
    report = _report(["x", "y", "z"])
    assert report.report_hash() == oracle_hash(report)
    assert len(report.declined) == len(report.outcomes) - 1 + len(report.unbuildable)
    for read in (lambda r: r.flags, lambda r: r.util):
        with pytest.raises(ValueError, match=r"^arrival 2: victim <y:1 @\d+> is not resident$"):
            read(report)


@pytest.mark.parametrize("change", [-1, 1], ids=["arrival_missing", "arrival_extra"])
def test_a_report_without_one_outcome_per_arrival_raises(change):
    # outcome i belongs to arrival i: a report whose two lists differ in
    # length is refused, where a plain zip would hash a shorter report
    events = [
        arrival(Transaction(sender, 0, price), ts)
        for ts, (sender, price) in enumerate([("A", 5), ("B", 6), ("C", 9), ("D", 1)])
    ]
    config = ScenarioConfig(policy=PolicyConfig(kind="baseline"), capacity=2, final_drain=False)
    report = replay(config, events)
    assert [o.reason for o in report.outcomes][2:] == [Reason.EVICTION, Reason.PRICE_TOO_LOW]
    assert report.pending_at(report.snapshots[-1]) == [events[1].tx, events[2].tx]
    # warm: every tx holds its fragment, so ``_digest`` reads them all
    report.report_hash()
    ledger = report._ledger()
    if change < 0:
        report.arrivals.pop()
    else:
        report.arrivals.append(report.arrivals[0])
    for read in (
        report.report_hash,
        lambda: report.declined,
        report.summary,
        lambda: report.declined_fees_final,
    ):
        with pytest.raises(ValueError, match="zip"):
            read()
    if change < 0:
        # a snapshot reads its prefix of both lists, and the outcomes
        # section its batches of both: each meets the missing arrival
        with pytest.raises(ValueError, match="zip"):
            report.pending_at(report.snapshots[-1])
        with pytest.raises(ValueError, match="zip"):
            report._digest(*ledger)


def test_fee_totals_are_read_only_sums_of_the_records():
    report = _report(["x", "y", "z"])
    assert report.pool_fees_final == sum(t.fee for t in report.final_pending)
    assert report.block_fees_final == sum(t.fee for b in report.blocks for t in b.txs)
    assert report.declined_fees_final == sum(t.fee for t, _ in report.declined)
    for name in ("pool_fees_final", "block_fees_final", "declined_fees_final", "declined"):
        with pytest.raises(AttributeError):
            setattr(report, name, 0)


def _sections_of(n: int) -> RunReport:
    """A report with ``n`` entries in each of its four list sections."""
    txs = [Transaction(sender=f"s{i}", nonce=i, price=i + 1) for i in range(n + 1)]
    report = RunReport(policy="map", capacity=n + 1, event_count=n)
    report.outcomes = [
        AdmissionOutcome(Reason.EVICTION, txs[i]) if i % 2 else
        AdmissionOutcome(Reason.POOL_NOT_FULL)
        for i in range(n)
    ]
    report.arrivals = [txs[i + 1] if i % 2 else txs[i] for i in range(n)]
    report.blocks = [Block(txs[i : i + 2]) for i in range(n)]
    # with the n // 2 evictions, n declined entries
    report.unbuildable = txs[: n - n // 2]
    report.price_sum_series = [10**i for i in range(n)]
    assert len(report.declined) == n
    return report


@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize("edge", [0, 1, 2])
def test_matches_oracle_at_the_batch_edges(monkeypatch, batch, edge):
    # sections empty, exactly one batch long, and one entry past a batch
    monkeypatch.setattr(replay_module, "_HASH_BATCH", batch)
    report = _sections_of((0, batch, batch + 1)[edge])
    assert report.report_hash() == oracle_hash(report)


@settings(max_examples=60, deadline=None)
@given(
    # exclude no category: lone surrogates (Cs) are valid str senders too
    senders=st.lists(st.text(st.characters(exclude_categories=())), min_size=1, max_size=6),
    big=st.integers(1, 10**40),
)
def test_matches_oracle_on_random_senders(senders, big):
    report = _report(senders, big)
    assert report.report_hash() == oracle_hash(report)


# Each tx holds its report fragment from the parse, when the pattern read its
# line, or from its first hash (``_cache_report_json``): a trace's later
# reports read it.


def _assert_cold_and_cached_give_the_golden_hashes(trace, make):
    capacity = TRACES[trace][0]
    for drain_mode in DRAIN_MODES:
        for order in (POLICIES, POLICIES[::-1]):
            # a fresh trace per order: its first report fills the cache
            events, seeds = make()
            reports = {
                policy: replay(
                    ScenarioConfig(
                        policy=PolicyConfig(kind=policy),
                        capacity=capacity,
                        account_seeds=seeds,
                        drain_mode=drain_mode,
                    ),
                    events,
                )
                for policy in order
            }
            for _ in range(2):
                for policy in order:
                    golden = GOLDEN[trace][f"{policy}/{drain_mode}"][0]
                    assert reports[policy].report_hash() == golden, (policy, order)


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_cold_and_cached_fragments_give_the_golden_hashes(trace):
    _assert_cold_and_cached_give_the_golden_hashes(trace, TRACES[trace][1])


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_a_written_and_parsed_trace_gives_the_golden_hashes(trace):
    # the parse writes every arrival's fragment, so even a trace's first
    # report encodes no tx: each tx it names is an arrival
    def make():
        events, seeds = TRACES[trace][1]()
        parsed = parse_text(dump_events(events))
        assert all(hasattr(e.tx, "_report_json") for e in parsed if e.tx is not None)
        return parsed, seeds

    _assert_cold_and_cached_give_the_golden_hashes(trace, make)


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_a_trace_whose_prefix_was_hashed_gives_the_golden_hashes(trace):
    # the prefix's report fills only the prefix's fragments, so the whole
    # trace's first hash meets a tx without one part way through: the digest
    # it had fed by then is dropped, and the report is encoded afresh
    capacity, make = TRACES[trace]
    for policy in POLICIES:
        for drain_mode in DRAIN_MODES:
            events, seeds = make()
            config = ScenarioConfig(
                policy=PolicyConfig(kind=policy),
                capacity=capacity,
                account_seeds=seeds,
                drain_mode=drain_mode,
            )
            replay(config, events[: len(events) // 2]).report_hash()
            report = replay(config, events)
            cached = sum(hasattr(tx, "_report_json") for tx in report.arrivals)
            assert 0 < cached < len(report.arrivals), (policy, drain_mode)
            golden = GOLDEN[trace][f"{policy}/{drain_mode}"][0]
            assert report.report_hash() == golden == oracle_hash(report), (policy, drain_mode)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("where", ["block", "unbuildable", "victim"])
def test_a_tx_outside_the_outcomes_is_encoded(where, warm):
    report = _report(["x", "y", "z"])
    if warm:
        # the outcomes' txs are cached, the outsider is not
        report.report_hash()
    outsider = Transaction(sender=f"out{where}", nonce=7, price=3, value=HUGE)
    if where == "block":
        report.blocks.append(Block([outsider]))
    elif where == "unbuildable":
        report.unbuildable.append(outsider)
    else:
        report.outcomes.append(AdmissionOutcome(Reason.EVICTION, outsider))
        report.arrivals.append(report.arrivals[0])
    assert outsider not in report.arrivals
    assert report.report_hash() == oracle_hash(report)
    assert report.report_hash() == oracle_hash(report)


def test_a_replaced_copy_of_a_hashed_tx_hashes_alike():
    report = _report(["x", "y"])
    first = report.report_hash()
    copies = {tx: dataclasses.replace(tx) for tx in report.included_txs()}
    report.blocks = [Block([copies[tx] for tx in b.txs]) for b in report.blocks]
    assert report.report_hash() == first == oracle_hash(report)
    # a copy with a changed field gets its own fragment, not the original's
    report.blocks.append(Block([dataclasses.replace(report.arrivals[0], price=10**20)]))
    assert report.report_hash() == oracle_hash(report) != first


def test_the_cached_fragment_cannot_be_assigned():
    # the frozen slots dataclass refuses a name outside its fields: on 3.11
    # its __setattr__ fails its super() call with TypeError, and a version
    # that raises FrozenInstanceError raises an AttributeError
    refused = (AttributeError, TypeError)
    tx = Transaction(sender="s", nonce=0, price=5)
    assert not hasattr(tx, "_report_json")
    with pytest.raises(refused):
        tx._report_json = "[]"
    report = RunReport(policy="cp", capacity=1)
    report.outcomes = [AdmissionOutcome(Reason.POOL_NOT_FULL)]
    report.arrivals = [tx]
    report.report_hash()
    assert tx._report_json == '["s",0,5,21000,21000,0]'
    with pytest.raises(refused):
        tx._report_json = "[]"
    with pytest.raises(refused):
        del tx._report_json
    assert tx._report_json == '["s",0,5,21000,21000,0]'
    assert "_report_json" not in {f.name for f in dataclasses.fields(Transaction)}
