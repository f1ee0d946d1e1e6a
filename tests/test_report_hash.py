"""``RunReport.report_hash()`` against the reference encoding of the report.

``canonical`` below builds the report as nested lists and
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` serialises it;
that is the definition in docs/format.md. ``report_hash()`` writes the same
bytes directly, so the two digests must agree on every report: the golden
replay matrix and hand-built reports with hostile strings, shared
transactions and huge integers.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from mempoolsim import PolicyConfig, ScenarioConfig, replay
from mempoolsim.core import AdmissionOutcome, Block, OutcomeKind, Reason, Transaction
from mempoolsim.metrics import OutcomeClass
from mempoolsim.replay import RunReport

from test_golden_hashes import DRAIN_MODES, POLICIES, TRACES


def canonical(report: RunReport) -> dict:
    def tx_key(tx: Transaction):
        return [tx.sender, tx.nonce, tx.price, tx.gas_used, tx.gas_limit, tx.value]

    return {
        "summary": report.summary(),
        "outcomes": [
            [o.kind.value, o.reason.value, tx_key(o.tx), [tx_key(v) for v in o.victims]]
            for o in report.outcomes
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


def _report(senders, big: int = 1) -> RunReport:
    """A report where one tx per sender is an outcome, a victim, a block tx
    and a declined entry at once, next to multi-victim and empty blocks."""
    txs = [
        Transaction(sender=s, nonce=i, price=big + i, gas_used=21_000 * big, value=big - 1)
        for i, s in enumerate(senders)
    ]
    shared = txs[0]
    arrival = Transaction(sender="arrival", nonce=HUGE, price=big, gas_limit=42_000 * big)
    outcomes = [
        AdmissionOutcome(OutcomeKind.ADMITTED_NO_EVICT, Reason.POOL_NOT_FULL, shared),
        AdmissionOutcome(OutcomeKind.ADMITTED_EVICTING, Reason.EVICTION, arrival, tuple(txs)),
        AdmissionOutcome(OutcomeKind.DECLINED, Reason.PRICE_TOO_LOW, txs[-1]),
        AdmissionOutcome(OutcomeKind.ADMITTED_EVICTING, Reason.EVICTION, txs[1 % len(txs)], (shared,)),
    ]
    report = RunReport(policy="cp", capacity=len(txs), event_count=len(outcomes))
    report.outcomes = outcomes
    report.blocks = [Block([shared, arrival]), Block([]), Block(txs[::-1]), Block([])]
    # every reason label the declined ledger can hold
    report.declined = [(shared, Reason.UNBUILDABLE)] + [(txs[-1], r) for r in Reason]
    report.price_sum_series = [big, 0, big * 3, HUGE]
    report.final_pending = txs[1:]
    report.block_fees_final = sum(b.revenue for b in report.blocks)
    report.pool_fees_final = HUGE
    report.declined_fees_final = -HUGE
    report.util.record(OutcomeClass.O1, -HUGE, HUGE)
    return report


@pytest.mark.parametrize("sender", HOSTILE_SENDERS)
def test_matches_oracle_on_hostile_sender(sender):
    report = _report([sender, "plain", sender + sender])
    assert report.report_hash() == oracle_hash(report)


def test_matches_oracle_on_all_hostile_senders_and_huge_ints():
    report = _report(HOSTILE_SENDERS, big=HUGE)
    assert report.report_hash() == oracle_hash(report)


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
    report.declined.append((Transaction(sender="s", nonce=1, price=6), Reason.UNBUILDABLE))
    assert report.report_hash() == oracle_hash(report) != first


@settings(max_examples=60, deadline=None)
@given(
    # exclude no category: lone surrogates (Cs) are valid str senders too
    senders=st.lists(st.text(st.characters(exclude_categories=())), min_size=1, max_size=6),
    big=st.integers(1, 10**40),
)
def test_matches_oracle_on_random_senders(senders, big):
    report = _report(senders, big)
    assert report.report_hash() == oracle_hash(report)
