import random
from collections import Counter

import pytest

from mempoolsim import (
    AdmissionOutcome,
    OutcomeClass,
    OutcomeKind,
    Reason,
    UtilLedger,
    WorldState,
    classify_outcome,
    eviction_bound_baseline_under_xt6,
    eviction_bound_cp,
    gamma,
    arrival,
    gen_random_adversary,
    replay,
    PolicyConfig,
    ScenarioConfig,
)
from mempoolsim.metrics import OutcomeFlags, nearest_rank_percentile

from conftest import random_pool_txs, rich_world, tx
from oracles import transition_flags
from test_golden_hashes import DRAIN_MODES, POLICIES, TRACES


class TestEvictionBounds:
    def test_cp_bound_empty(self):
        assert eviction_bound_cp([]).bound_wei == 0

    def test_cp_bound_arithmetic(self):
        est = eviction_bound_cp([tx("A", 0, 2), tx("B", 0, 3)])
        assert est.bound_wei == 21_000 * 5 == 105_000
        assert est.basis == "cp_21000_price_sum"

    def test_baseline_bound_arithmetic(self):
        world = WorldState(block_gas_limit=30_000_000)
        est = eviction_bound_baseline_under_xt6([tx("A", 0, 10), tx("B", 0, 4)], world)
        assert est.bound_wei == 10 * 30_000_000 == 3 * 10**8
        assert est.basis == "geth_maxprice_blockgas"

    def test_baseline_bound_singleton(self):
        world = WorldState()
        est = eviction_bound_baseline_under_xt6([tx("A", 0, 7)], world)
        assert est.bound_wei == 7 * world.block_gas_limit

    def test_baseline_bound_empty_errors(self):
        with pytest.raises(ValueError):
            eviction_bound_baseline_under_xt6([], WorldState())


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
        report = gamma(random_pool_txs(rng, n_senders=20, max_chain=5))
        assert all(g >= 0 for g in report.per_sender.values())

    def test_matches_brute_force_on_large_snapshot(self):
        rng = random.Random(8)
        pending = random_pool_txs(rng, n_senders=250, max_chain=4)[:1000]
        assert gamma(pending).per_sender == oracle_gamma(pending)

    def test_fee_denominator_variant_emitted(self):
        report = gamma([tx("A", 0, 2, gas=21_000), tx("A", 1, 4)])
        assert report.per_sender_fee_denom["A"] == 4 / 42_000 - 1

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


def _outcome(kind, t, victims=()):
    reason = Reason.EVICTION if victims else (
        Reason.PRICE_TOO_LOW if kind is OutcomeKind.DECLINED else Reason.POOL_NOT_FULL
    )
    return AdmissionOutcome(kind, reason, t, tuple(victims))


class TestClassifyOutcome:
    def test_declined_is_o1(self):
        out = _outcome(OutcomeKind.DECLINED, tx("A", 0, 5))
        assert classify_outcome(out) is OutcomeClass.O1

    def test_free_slot_is_o4(self):
        out = _outcome(OutcomeKind.ADMITTED_NO_EVICT, tx("A", 0, 5))
        assert classify_outcome(out) is OutcomeClass.O4

    def test_evicting_lower_fee_is_o2(self):
        out = _outcome(OutcomeKind.ADMITTED_EVICTING, tx("A", 0, 9), [tx("B", 0, 5)])
        assert classify_outcome(out) is OutcomeClass.O2

    def test_evicting_higher_fee_is_o3(self):
        out = _outcome(OutcomeKind.ADMITTED_EVICTING, tx("A", 0, 5), [tx("B", 0, 9)])
        assert classify_outcome(out) is OutcomeClass.O3

    def test_equal_fee_eviction_is_other(self):
        out = _outcome(OutcomeKind.ADMITTED_EVICTING, tx("A", 0, 5), [tx("B", 0, 5)])
        assert classify_outcome(out) is OutcomeClass.OTHER

    def test_partition_is_total(self):
        for kind in OutcomeKind:
            victims = [tx("B", 0, 3)] if kind is OutcomeKind.ADMITTED_EVICTING else ()
            assert classify_outcome(_outcome(kind, tx("A", 0, 5), victims)) in OutcomeClass


class TestTransitionFlags:
    def _world(self):
        world = WorldState()
        world.fund("A", 10**18)
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
        ledger = UtilLedger()
        ledger.record(OutcomeClass.O1, 0, 10)
        ledger.record(OutcomeClass.O4, 7, 0)
        flags = OutcomeFlags(pending_turn_future=True)
        ledger.record(OutcomeClass.O2, 3, 2, flags)
        assert ledger.total.dutil == -10 + 7 + 1
        assert ledger.total.count == 3
        assert ledger.per_class[OutcomeClass.O1].dutil == -10
        assert ledger.flagged["pending_turn_future"].count == 1

    def test_replay_telescoping_identity(self):
        events = gen_random_adversary({"steps": 800, "seed": 13})
        for kind in ("baseline", "cp", "map"):
            config = ScenarioConfig(policy=PolicyConfig(kind=kind), capacity=64)
            report = replay(config, events)
            expected = (
                report.pool_fees_final
                + report.block_fees_final
                - report.declined_fees_final
            )
            assert report.util.total.dutil == expected

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_per_class_entries_add_up_to_the_total(self, trace):
        # one entry per arrival and per unbuildable resident, keyed by class
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
                for name in ("inside_delta", "outside_delta", "dutil", "count"):
                    parts = sum(getattr(e, name) for e in util.per_class.values())
                    assert parts == getattr(util.total, name), (cell, name)
                unbuildable = sum(r is Reason.UNBUILDABLE for _, r in report.declined)
                assert util.total.count == len(report.outcomes) + unbuildable, cell
                expected = Counter(map(classify_outcome, report.outcomes))
                if unbuildable:
                    expected[OutcomeClass.UNBUILDABLE] = unbuildable
                assert {c: e.count for c, e in util.per_class.items()} == expected, cell


class TestRevenueSeries:
    def test_replay_determinism(self):
        events = gen_random_adversary({"steps": 300, "seed": 3})
        config = ScenarioConfig(policy=PolicyConfig(kind="cp"), capacity=48)
        a = replay(config, events)
        b = replay(config, events)
        assert [x.revenue for x in a.blocks] == [x.revenue for x in b.blocks]
        assert a.report_hash() == b.report_hash()
