import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mempoolsim import (
    AdmissionOutcome,
    AttackPlan,
    OutcomeClass,
    Reason,
    UtilLedger,
    WorldState,
    classify_outcome,
    eviction_bound_baseline_under_xt6,
    eviction_bound_cp,
    gamma,
    arrival,
    block_trigger,
    replay,
    PolicyConfig,
    ScenarioConfig,
)
from mempoolsim.core import DEFAULT_BLOCK_GAS_LIMIT
from mempoolsim.metrics import OutcomeFlags, UtilEntry, nearest_rank_percentile

from conftest import fund, random_pool_txs, rich_world, tx
from oracles import transition_flags
from test_golden_hashes import DRAIN_MODES, POLICIES, TRACES, _random_adversary
from test_replay_flags import _own_gap_below


class TestEvictionBounds:
    def test_cp_bound_empty(self):
        assert eviction_bound_cp([]).bound_wei == 0

    def test_cp_bound_arithmetic(self):
        est = eviction_bound_cp([tx("A", 0, 2), tx("B", 0, 3)])
        assert est.bound_wei == 21_000 * 5 == 105_000
        assert est.basis == "cp_21000_price_sum"

    def test_baseline_bound_arithmetic(self):
        est = eviction_bound_baseline_under_xt6([tx("A", 0, 10), tx("B", 0, 4)], 30_000_000)
        assert est.bound_wei == 10 * 30_000_000 == 3 * 10**8
        assert est.basis == "geth_maxprice_blockgas"

    def test_baseline_bound_singleton(self):
        est = eviction_bound_baseline_under_xt6([tx("A", 0, 7)], DEFAULT_BLOCK_GAS_LIMIT)
        assert est.bound_wei == 7 * DEFAULT_BLOCK_GAS_LIMIT

    def test_baseline_bound_empty_errors(self):
        with pytest.raises(ValueError):
            eviction_bound_baseline_under_xt6([], DEFAULT_BLOCK_GAS_LIMIT)


def oracle_gamma(pending):
    """O(n^2) double loop: per-tx ratio against its sender's min price."""
    per_sender = {}
    for t in pending:
        lowest = t.price
        for u in pending:
            if u.sender == t.sender and u.price < lowest:
                lowest = u.price
        g = t.price / lowest - 1
        if t.sender not in per_sender or g > per_sender[t.sender]:
            per_sender[t.sender] = g
    return per_sender


def oracle_gamma_max_fee_denom(pending):
    """O(n^2) double loop: the largest per-tx ratio against its sender's min fee."""
    return max(t.fee / min(u.fee for u in pending if u.sender == t.sender) - 1 for t in pending)


class TestGamma:
    def test_single_tx_sender_is_zero(self):
        report = gamma([tx("A", 0, 123)])
        assert report.per_sender == {"A": 0.0}
        assert report.gamma_max == report.gamma_avg == 0.0

    def test_two_price_chain(self):
        report = gamma([tx("A", 0, 2), tx("A", 1, 4)])
        assert report.per_sender["A"] == 4 / 2 - 1 == 1.0

    def test_zero_iff_uniform_prices(self):
        uniform = gamma([tx("A", 0, 7), tx("A", 1, 7), tx("B", 0, 3)])
        assert uniform.gamma_max == 0.0
        skewed = gamma([tx("A", 0, 7), tx("A", 1, 8)])
        assert skewed.gamma_max > 0.0

    def test_never_negative(self):
        rng = random.Random(17)
        for _ in range(20):
            report = gamma(random_pool_txs(rng, n_senders=20, max_chain=5))
            assert all(g >= 0 for g in report.per_sender.values())
            assert report.gamma_max_fee_denom >= 0

    def test_matches_brute_force_on_large_snapshot(self):
        rng = random.Random(8)
        pending = random_pool_txs(rng, n_senders=250, max_chain=4)[:1000]
        assert gamma(pending).per_sender == oracle_gamma(pending)

    def test_fee_denominator_max_matches_brute_force(self):
        rng = random.Random(9)
        pending = random_pool_txs(rng, n_senders=250, max_chain=4)[:1000]
        assert gamma(pending).gamma_max_fee_denom == oracle_gamma_max_fee_denom(pending)

    def test_fee_denominator_variant_emitted(self):
        report = gamma([tx("A", 0, 2, gas=21_000), tx("A", 1, 4)])
        # fees 42,000 and 84,000 wei: the larger is twice the sender's minimum
        assert report.gamma_max_fee_denom == 84_000 / 42_000 - 1 == 1.0

    def test_empty_snapshot_errors(self):
        with pytest.raises(ValueError):
            gamma([])


class TestNearestRankPercentile:
    def test_single_value(self):
        assert nearest_rank_percentile([5.0], 95) == 5.0

    def test_rank_selection(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank_percentile(values, 50) == 2.0
        assert nearest_rank_percentile(values, 95) == 4.0
        assert nearest_rank_percentile(values, 100) == 4.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 95)


class TestClassifyOutcome:
    def test_declined_is_o1(self):
        out = AdmissionOutcome(Reason.PRICE_TOO_LOW)
        assert classify_outcome(out, tx("A", 0, 5)) is OutcomeClass.O1

    def test_free_slot_is_o4(self):
        out = AdmissionOutcome(Reason.POOL_NOT_FULL)
        assert classify_outcome(out, tx("A", 0, 5)) is OutcomeClass.O4

    def test_evicting_lower_fee_is_o2(self):
        out = AdmissionOutcome(Reason.EVICTION, tx("B", 0, 5))
        assert classify_outcome(out, tx("A", 0, 9)) is OutcomeClass.O2

    def test_evicting_higher_fee_is_o3(self):
        out = AdmissionOutcome(Reason.EVICTION, tx("B", 0, 9))
        assert classify_outcome(out, tx("A", 0, 5)) is OutcomeClass.O3

    def test_equal_fee_eviction_is_other(self):
        out = AdmissionOutcome(Reason.EVICTION, tx("B", 0, 5))
        assert classify_outcome(out, tx("A", 0, 5)) is OutcomeClass.OTHER

    def test_partition_is_total(self):
        # a decline, an admission into a free slot and an eviction
        for reason in (Reason.PRICE_TOO_LOW, Reason.POOL_NOT_FULL, Reason.EVICTION):
            victim = tx("B", 0, 3) if reason is Reason.EVICTION else None
            out = AdmissionOutcome(reason, victim)
            assert classify_outcome(out, tx("A", 0, 5)) in OutcomeClass

    # the arrival's fee against the victim's -> the class, for each reason;
    # a reason other than EVICTION names no victim, so its fee cannot matter
    _CLASS_OF = {
        **{r: dict.fromkeys(("above", "equal", "below"), OutcomeClass.O1) for r in Reason},
        Reason.POOL_NOT_FULL: dict.fromkeys(("above", "equal", "below"), OutcomeClass.O4),
        Reason.EVICTION: {
            "above": OutcomeClass.O2, "equal": OutcomeClass.OTHER, "below": OutcomeClass.O3,
        },
    }

    @pytest.mark.parametrize("reason", list(Reason), ids=lambda r: r.name)
    @pytest.mark.parametrize("fee", ["above", "equal", "below"])
    def test_every_reason_and_fee_order_maps_to_its_class(self, reason, fee):
        arrival_price = {"above": 9, "equal": 5, "below": 3}[fee]
        t, victim = tx("A", 0, arrival_price), tx("B", 0, 5)
        out = AdmissionOutcome(reason, victim if reason is Reason.EVICTION else None)
        assert classify_outcome(out, t) is self._CLASS_OF[reason][fee]


class TestTransitionFlags:
    def _world(self):
        world = WorldState()
        fund(world, "A", 10**18)
        return world

    def test_orphaning_sets_pending_turn_future(self):
        parent, child = tx("A", 0, 1), tx("A", 1, 9)
        flags = transition_flags([parent, child], [child], self._world())
        assert flags.pending_turn_future and not flags.future_turn_pending

    def test_gap_fill_sets_future_turn_pending(self):
        child = tx("A", 1, 9)
        parent = tx("A", 0, 1)
        flags = transition_flags([child], [parent, child], self._world())
        assert flags.future_turn_pending and not flags.pending_turn_future

    def test_steady_state_no_flags(self):
        t = tx("A", 0, 1)
        flags = transition_flags([t], [t], self._world())
        assert flags == OutcomeFlags()


def _end_state_dutil(report) -> int:
    """The dUtil total the end state implies: pool + block - declined fees."""
    return report.pool_fees_final + report.block_fees_final - report.declined_fees_final


class TestDutilAccounting:
    def _entry(self, t, outcome_class):
        config = ScenarioConfig(capacity=4, final_drain=False)
        report = replay(config, [arrival(t)], world=rich_world("A"))
        entry = report.util.per_class[outcome_class]
        assert report.util.total == entry
        return entry.inside_delta, entry.outside_delta, entry.dutil

    def test_decline_contributes_negative_fee(self):
        t = tx("A", 2, 5)  # confirmed nonce 0: a future arrival, declined
        f = t.fee
        assert self._entry(t, OutcomeClass.O1) == (0, f, -f)

    def test_free_slot_admit_contributes_positive_fee(self):
        t = tx("A", 0, 5)
        f = t.fee
        assert self._entry(t, OutcomeClass.O4) == (f, 0, f)

    def test_ledger_totals_accumulate(self):
        ledger = UtilLedger({
            OutcomeClass.O1: UtilEntry(0, 10, 1),
            OutcomeClass.O4: UtilEntry(7, 0, 1),
            OutcomeClass.O2: UtilEntry(3, 2, 1),
        })
        assert ledger.total.dutil == -10 + 7 + 1
        assert ledger.total.count == 3
        assert ledger.per_class[OutcomeClass.O1].dutil == -10
        # a flagged admission adds its deltas under each flag it sets: C:0
        # evicts A:3, then the re-sent A:3 evicts A:1, each orphaning a
        # resident
        events, seeds = _own_gap_below()
        config = ScenarioConfig(
            policy=PolicyConfig(kind="baseline"), capacity=6, account_seeds=seeds
        )
        report = replay(config, events)
        (c0, a3), (resent, a1) = [
            (t, o.victim) for o, t in zip(report.outcomes[6:], report.arrivals[6:], strict=True)
        ]
        assert report.flags == [(6, OutcomeFlags(False, True)), (7, OutcomeFlags(False, True))]
        assert report.util.flagged == {
            "pending_turn_future": UtilEntry(
                c0.fee - a3.fee + resent.fee - a1.fee, a3.fee + a1.fee, 2
            ),
        }

    def test_an_edit_to_a_read_ledger_reaches_no_later_read(self):
        # ``util`` is derived per read, its flagged entries too: an edit to
        # one read leaves the report as it was; baseline flags some of its
        # evictions
        events, seeds = _random_adversary(0)
        config = ScenarioConfig(
            policy=PolicyConfig(kind="baseline"), capacity=192, account_seeds=seeds
        )
        report = replay(config, events)
        digest, util = report.report_hash(), report.util
        want = copy.deepcopy(util)
        assert util.per_class and util.flagged
        for entry in [*util.per_class.values(), *util.flagged.values()]:
            entry.add(10**30, -(10**30))
        assert report.util == want
        util.per_class.clear()
        util.flagged.clear()
        assert report.util == want
        assert report.report_hash() == digest

    def test_replay_telescoping_identity(self):
        events = AttackPlan("random_adversary", {"steps": 800, "seed": 13}).events()
        for kind in ("baseline", "cp", "map"):
            config = ScenarioConfig(policy=PolicyConfig(kind=kind), capacity=64)
            report = replay(config, events)
            assert report.util.total.dutil == _end_state_dutil(report)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(0, 300),
        capacity=st.integers(1, 64),
        drain_mode=st.sampled_from(DRAIN_MODES),
        cadence=st.integers(1, 100),
    )
    def test_replay_telescoping_identity_on_random_runs(
        self, seed, steps, capacity, drain_mode, cadence
    ):
        # the per-arrival ledger against the end state, with a block
        # trigger after every ``cadence`` arrivals
        arrivals, seeds = AttackPlan("random_adversary", {"steps": steps, "seed": seed}).generate()
        events = []
        for step, event in enumerate(arrivals):
            events.append(event)
            if (step + 1) % cadence == 0:
                events.append(block_trigger(event.ts_ms))
        for kind in POLICIES:
            config = ScenarioConfig(
                policy=PolicyConfig(kind=kind),
                capacity=capacity,
                account_seeds=seeds,
                drain_mode=drain_mode,
            )
            report = replay(config, events)
            cell = (kind, seed, steps, capacity, drain_mode, cadence)
            assert report.util.total.dutil == _end_state_dutil(report), cell
            assert report.summary()["dutil_total"] == report.util.total.dutil, cell
            ended = len(report.final_pending) + len(report.included_txs()) + len(report.declined)
            assert ended == steps, cell

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_per_class_entries_add_up_to_the_total(self, trace):
        # one entry per arrival and per unbuildable resident, keyed by class;
        # their dUtil sum is the end state's fee identity in either drain mode
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
                util, cell = report.util, (policy, drain_mode)
                assert util.total.dutil == _end_state_dutil(report), cell
                assert report.summary()["dutil_total"] == util.total.dutil, cell
                unbuildable = sum(r is Reason.UNBUILDABLE for _, r in report.declined)
                assert util.total.count == len(report.outcomes) + unbuildable, cell
                expected = Counter(map(classify_outcome, report.outcomes, report.arrivals))
                if unbuildable:
                    expected[OutcomeClass.UNBUILDABLE] = unbuildable
                assert {c: e.count for c, e in util.per_class.items()} == expected, cell


class TestRevenueSeries:
    def test_replay_determinism(self):
        events = AttackPlan("random_adversary", {"steps": 300, "seed": 3}).events()
        config = ScenarioConfig(policy=PolicyConfig(kind="cp"), capacity=48)
        a = replay(config, events)
        b = replay(config, events)
        assert [x.revenue for x in a.blocks] == [x.revenue for x in b.blocks]
        assert a.report_hash() == b.report_hash()
