import hashlib

import pytest

from mempoolsim import attacks
from mempoolsim import (
    AttackPlan,
    Mempool,
    PolicyConfig,
    Reason,
    ScenarioConfig,
    XT6_DESK,
    XT6_FULL,
    attack_cost,
    dump_events,
    gen_cp_lock,
    gen_deter_future,
    gen_mempurge,
    gen_random_adversary,
    gen_xt6,
    replay,
    world_for_trace,
)

from conftest import tx
from oracles import is_future


class TestXt6Generator:
    def test_full_scale_event_count(self):
        assert len(gen_xt6(XT6_FULL)) == 384 * 16 + 69 + 5120 + 1 == 11334

    def test_event_count_formula_at_one_thirtysecond_scale(self):
        params = dict(XT6_DESK, big_chain=160)
        assert len(gen_xt6(params)) == 24 * 8 + 5 + 160 + 1 == 358

    def test_zero_sequences_rejected(self):
        with pytest.raises(ValueError):
            gen_xt6(dict(XT6_DESK, n_seq=0))

    def test_non_increasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            gen_xt6(dict(XT6_DESK, price_schedule=(100, 100, 104, 107)))

    def test_phases_are_price_ordered(self):
        events = gen_xt6(XT6_DESK)
        p1, p2, p3, p4 = XT6_DESK["price_schedule"]
        phase1 = events[: 24 * 8]
        assert {e.tx.price for e in phase1} == {p1, p1 + 1}
        assert all(e.tx.price == p2 for e in events[192:197])
        assert {e.tx.price for e in events[197:-1]} == {p3, p3 + 1}
        assert events[-1].tx.price == p4
        assert all(e.tx.label == "adversarial" for e in events)

    def test_desk_run_vs_baseline_leaves_one_nonfuture_tx(self):
        events = gen_xt6(XT6_DESK)
        config = ScenarioConfig(
            policy=PolicyConfig(kind="baseline"), capacity=192, final_drain=False
        )
        report = replay(config, events)
        world = world_for_trace(events)
        pool = Mempool(capacity=192)
        for t in report.final_pending:
            pool._insert(t)
        non_future = [t for t in report.final_pending if not is_future(t, pool, world)]
        assert len(report.final_pending) == 192
        assert len(non_future) == 1

    def test_desk_run_vs_cp_keeps_price_sum(self):
        events = gen_xt6(XT6_DESK)
        config = ScenarioConfig(policy=PolicyConfig(kind="cp"), capacity=192, final_drain=False)
        report = replay(config, events)
        # price sum after the attack is at least the full-pool level reached
        # right after phase 1
        phase1_level = report.price_sum_series[24 * 8 - 1]
        assert report.price_sum_series[-1] >= phase1_level
        assert min(report.price_sum_series[24 * 8 :]) >= phase1_level


class TestDeterFuture:
    def test_patched_precheck_declines_all(self):
        plan = AttackPlan(kind="deter_future", params={"count": 10})
        config = ScenarioConfig(capacity=192, account_seeds=plan.account_seeds())
        report = replay(config, plan.events())
        assert report.summary()["reasons"] == {Reason.INVALID_FUTURE.value: 10}
        assert report.final_pending == []

    def test_unpatched_pool_accepts_the_same_txs(self):
        # bypassing the precheck shows the attack mechanism the patch stops
        plan = AttackPlan(kind="deter_future", params={"count": 10})
        pool = Mempool(capacity=192)
        for event in plan.events():
            pool.apply_admission(event.tx, [])
        assert len(pool) == 10

    def test_count_zero_is_empty(self):
        assert gen_deter_future({"count": 0}) == []


class TestMempurgeOverdraft:
    def test_chain_tail_overdrafts(self):
        plan = AttackPlan(kind="mempurge_overdraft", params={"chain_len": 3})
        config = ScenarioConfig(capacity=192, account_seeds=plan.account_seeds())
        report = replay(config, plan.events())
        kinds = [o.reason for o in report.outcomes]
        assert kinds[:2] == [Reason.POOL_NOT_FULL, Reason.POOL_NOT_FULL]
        assert kinds[2] is Reason.INVALID_OVERDRAFT

    def test_each_tx_individually_affordable(self):
        plan = AttackPlan(kind="mempurge_overdraft", params={"chain_len": 3})
        events = plan.events()
        balance, _ = plan.account_seeds()["mempurge-0"]
        assert all(e.tx.cost <= balance for e in events)
        assert sum(e.tx.cost for e in events) > balance

    def test_sufficient_balance_admits_whole_chain(self):
        per_tx = 21_000 * 100
        plan = AttackPlan(
            kind="mempurge_overdraft", params={"chain_len": 2, "balance": 2 * per_tx}
        )
        config = ScenarioConfig(capacity=192, account_seeds=plan.account_seeds())
        report = replay(config, plan.events())
        assert all(o.admitted for o in report.outcomes)


class TestCpLock:
    def _locked_pool(self, n=64):
        events = gen_cp_lock({"chain_len": n})
        world = world_for_trace(events)
        world.fund("probe", 10**18)
        pool = Mempool(capacity=n)
        policy = PolicyConfig(kind="cp").build()
        for event in events:
            assert pool.admit(event.tx, world, policy).admitted
        return pool, world, policy

    def test_probe_below_or_at_high_price_declined(self):
        pool, world, policy = self._locked_pool()
        outcome = pool.admit(tx("probe", 0, 9_999), world, policy)
        assert outcome.reason is Reason.PRICE_TOO_LOW

    def test_probe_above_high_price_admitted(self):
        pool, world, policy = self._locked_pool()
        outcome = pool.admit(tx("probe", 0, 10_001), world, policy)
        assert outcome.admitted
        assert outcome.victims[0].price == 10_000

    def test_baseline_is_not_locked(self):
        events = gen_cp_lock({"chain_len": 64})
        world = world_for_trace(events)
        world.fund("probe", 10**18)
        pool = Mempool(capacity=64)
        cp = PolicyConfig(kind="cp").build()
        for event in events:
            pool.admit(event.tx, world, cp)
        baseline = PolicyConfig(kind="baseline").build()
        outcome = pool.admit(tx("probe", 0, 2), world, baseline)
        assert outcome.admitted and outcome.victims[0].price == 1

    def test_padding_fills_capacity(self):
        events = gen_cp_lock({"chain_len": 32, "capacity": 48})
        assert len(events) == 48
        senders = {e.tx.sender for e in events}
        assert senders == {"lock-0", "lock-1"}

    def test_asymmetry_ratio(self):
        pool, world, policy = self._locked_pool()
        pool.admit(tx("probe", 0, 9_999), world, policy)
        max_declined = max(t.price for t, _ in pool.declined)
        min_pending = min(t.price for t in pool.pending())
        assert max_declined / min_pending >= 9_999


class TestRandomAdversary:
    def test_seed_determinism(self):
        a = gen_random_adversary({"steps": 300, "seed": 42})
        b = gen_random_adversary({"steps": 300, "seed": 42})
        assert dump_events(a) == dump_events(b)

    def test_different_seeds_differ(self):
        a = gen_random_adversary({"steps": 300, "seed": 1})
        b = gen_random_adversary({"steps": 300, "seed": 2})
        assert dump_events(a) != dump_events(b)

    def test_zero_steps_empty(self):
        assert gen_random_adversary({"steps": 0}) == []

    def test_overdraft_senders_really_overdraft(self):
        plan = AttackPlan(kind="random_adversary", params={"steps": 200, "seed": 5})
        seeds = plan.account_seeds()
        overdrafters = {s for s in seeds if s.startswith("rnd-o")}
        assert overdrafters
        for event in plan.events():
            t = event.tx
            if t.sender in overdrafters:
                assert t.cost > seeds[t.sender][0]

    def test_given_mix_replaces_the_default_mix(self):
        # a kind the given mix leaves out has weight 0, not its default weight
        events = gen_random_adversary({"steps": 200, "mix": {"fresh": 1}})
        assert {e.tx.sender[:5] for e in events} == {"rnd-a"}

    def test_optional_int_params_accept_none(self):
        assert len(gen_cp_lock({"chain_len": 8, "capacity": None})) == 8
        assert dump_events(gen_mempurge({"balance": None})) == dump_events(gen_mempurge())


class TestAttackPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttackPlan(kind="dust_storm")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            AttackPlan(kind="xt6", delay_seconds=-1)

    def test_delay_shifts_timestamps(self):
        plan = AttackPlan(kind="deter_future", params={"count": 3}, delay_seconds=2.5)
        assert plan.events()[0].ts_ms == 2_500


    def test_random_adversary_generated_once_per_params(self, monkeypatch):
        calls = []
        generate = attacks._random_adversary

        def counted(params, start_ms):
            calls.append((dict(params), start_ms))
            return generate(params, start_ms)

        monkeypatch.setattr(attacks, "_random_adversary", counted)
        plan = AttackPlan(kind="random_adversary", params={"steps": 50, "seed": 3})
        events, seeds = plan.events(), plan.account_seeds()
        assert len(calls) == 1
        # callers get copies, so mutating one leaves the next call intact
        events.clear()
        seeds.clear()
        assert len(plan.events()) == 50 and plan.account_seeds()
        assert len(calls) == 1
        # a change of params or delay regenerates
        plan.params["seed"] = 4
        plan.events()
        plan.delay_seconds = 1.0
        assert plan.account_seeds() and plan.events()[0].ts_ms == 1_000
        assert calls[1:] == [({"steps": 50, "seed": 4}, 0), ({"steps": 50, "seed": 4}, 1_000)]
        assert dump_events(plan.events()) == dump_events(generate(plan.params, 1_000)[0])

    def test_random_adversary_trace_and_seeds_pinned(self):
        # digest recorded from the generator before events() and
        # account_seeds() shared one generation
        plan = AttackPlan(kind="random_adversary", params={"steps": 3000, "seed": 1})
        text = dump_events(plan.events()) + repr(sorted(plan.account_seeds().items()))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "5fea5b94f151c680363841512d60534cae5637fc636c7db569067f6e5e39bf2f"


class TestAttackCost:
    def test_no_adversarial_txs(self):
        benign = [tx("A", 0, 5)]
        report = attack_cost(benign, benign)
        assert (report.fees_charged, report.fees_at_risk) == (0, 0)

    def test_charged_and_at_risk_split(self):
        adv1 = tx("X", 0, 5, label="adversarial")
        adv2 = tx("X", 1, 5, label="adversarial")
        report = attack_cost([adv1, tx("A", 0, 9)], [adv2])
        assert report.fees_charged == adv1.fee
        assert report.fees_at_risk == adv1.fee + adv2.fee

    def test_charged_cannot_exceed_at_risk(self):
        from mempoolsim import AttackCostReport, PoolError

        with pytest.raises(PoolError):
            AttackCostReport(fees_charged=2, fees_at_risk=1)
