import dataclasses
import hashlib
import json

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
    gen_xt6,
    replay,
    world_for_trace,
)
from mempoolsim.cli import main

from conftest import fund, tx
from oracles import ListPendingView, is_future

# case -> (kind, params, delay, sha256 of its trace and sorted seeds)
PINNED = {
    "xt6": (
        "xt6",
        XT6_DESK,
        0.0,
        "b91650742d6cee542fa7d9fbd3da680d013e72c68ed2bbaed62292008192931e",
    ),
    "deter_future": (
        "deter_future",
        {"count": 3},
        2.5,
        "90c177a256fe098da65a4b370793f7a3d723129092b6ef66538b31b0cdfe5953",
    ),
    "mempurge_overdraft": (
        "mempurge_overdraft",
        {},
        0.0,
        "f9166cea64a3b821afa82817c7b19712b630336932e20d7e2db8cfae3425fa7e",
    ),
    "cp_lock": (
        "cp_lock",
        {"chain_len": 8, "capacity": 12},
        1.0,
        "e2edfa712fdac6d9655479e60a826e608ffa64b28385da35078e423daa378107",
    ),
    # a pad of one tx: the second sender's only tx is its childless one
    "cp_lock_pad_1": (
        "cp_lock",
        {"chain_len": 8, "capacity": 9},
        1.0,
        "1256b997968dcd48ee079cc93a5fa2f1addda3728c6505e6b733659e40496032",
    ),
    "random_adversary": (
        "random_adversary",
        {"steps": 3000, "seed": 1},
        0.0,
        "5fea5b94f151c680363841512d60534cae5637fc636c7db569067f6e5e39bf2f",
    ),
}


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
        view = ListPendingView(report.final_pending)
        non_future = [t for t in report.final_pending if not is_future(t, view, world)]
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
        events, seeds = AttackPlan(kind="deter_future", params={"count": 10}).generate()
        report = replay(ScenarioConfig(capacity=192, account_seeds=seeds), events)
        assert report.summary()["reasons"] == {Reason.INVALID_FUTURE.value: 10}
        assert report.final_pending == []

    def test_unpatched_pool_accepts_the_same_txs(self):
        # bypassing the precheck shows the attack mechanism the patch stops
        plan = AttackPlan(kind="deter_future", params={"count": 10})
        pool = Mempool(capacity=192)
        for event in plan.events():
            pool.apply_admission(event.tx, None)
        assert len(pool) == 10

    def test_count_zero_is_empty(self):
        assert AttackPlan("deter_future", {"count": 0}).events() == []


class TestMempurgeOverdraft:
    def test_chain_tail_overdrafts(self):
        events, seeds = AttackPlan(kind="mempurge_overdraft", params={"chain_len": 3}).generate()
        report = replay(ScenarioConfig(capacity=192, account_seeds=seeds), events)
        kinds = [o.reason for o in report.outcomes]
        assert kinds[:2] == [Reason.POOL_NOT_FULL, Reason.POOL_NOT_FULL]
        assert kinds[2] is Reason.INVALID_OVERDRAFT

    def test_each_tx_individually_affordable(self):
        events, seeds = AttackPlan(kind="mempurge_overdraft", params={"chain_len": 3}).generate()
        balance, _ = seeds["mempurge-0"]
        assert all(e.tx.cost <= balance for e in events)
        assert sum(e.tx.cost for e in events) > balance

    def test_sufficient_balance_admits_whole_chain(self):
        per_tx = 21_000 * 100
        plan = AttackPlan(
            kind="mempurge_overdraft", params={"chain_len": 2, "balance": 2 * per_tx}
        )
        events, seeds = plan.generate()
        report = replay(ScenarioConfig(capacity=192, account_seeds=seeds), events)
        assert all(o.admitted for o in report.outcomes)


class TestCpLock:
    def _locked_pool(self, n=64):
        events, _ = AttackPlan("cp_lock", {"chain_len": n}).generate()
        world = world_for_trace(events)
        fund(world, "probe", 10**18)
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
        assert outcome.victim.price == 10_000

    def test_baseline_is_not_locked(self):
        events, _ = AttackPlan("cp_lock", {"chain_len": 64}).generate()
        world = world_for_trace(events)
        fund(world, "probe", 10**18)
        pool = Mempool(capacity=64)
        cp = PolicyConfig(kind="cp").build()
        for event in events:
            pool.admit(event.tx, world, cp)
        baseline = PolicyConfig(kind="baseline").build()
        outcome = pool.admit(tx("probe", 0, 2), world, baseline)
        assert outcome.admitted and outcome.victim.price == 1

    def test_padding_fills_capacity(self):
        events, _ = AttackPlan("cp_lock", {"chain_len": 32, "capacity": 48}).generate()
        assert len(events) == 48
        senders = {e.tx.sender for e in events}
        assert senders == {"lock-0", "lock-1"}

    def test_asymmetry_ratio(self):
        pool, world, policy = self._locked_pool()
        # every cp_lock arrival was admitted, so the probe is the one decline
        probe = tx("probe", 0, 9_999)
        outcome = pool.admit(probe, world, policy)
        assert not outcome.admitted
        max_declined = probe.price
        min_pending = min(t.price for t in pool.pending())
        assert max_declined / min_pending >= 9_999


class TestRandomAdversary:
    def test_seed_determinism(self):
        a = AttackPlan("random_adversary", {"steps": 300, "seed": 42}).events()
        b = AttackPlan("random_adversary", {"steps": 300, "seed": 42}).events()
        assert dump_events(a) == dump_events(b)

    def test_different_seeds_differ(self):
        a = AttackPlan("random_adversary", {"steps": 300, "seed": 1}).events()
        b = AttackPlan("random_adversary", {"steps": 300, "seed": 2}).events()
        assert dump_events(a) != dump_events(b)

    def test_zero_steps_empty(self):
        assert AttackPlan("random_adversary", {"steps": 0}).events() == []

    def test_overdraft_senders_really_overdraft(self):
        events, seeds = AttackPlan("random_adversary", {"steps": 200, "seed": 5}).generate()
        overdrafters = {s for s in seeds if s.startswith("rnd-o")}
        assert overdrafters
        for event in events:
            t = event.tx
            if t.sender in overdrafters:
                assert t.cost > seeds[t.sender][0]

    def test_given_mix_replaces_the_default_mix(self):
        # a kind the given mix leaves out has weight 0, not its default weight
        events = AttackPlan("random_adversary", {"steps": 200, "mix": {"fresh": 1}}).events()
        assert {e.tx.sender[:5] for e in events} == {"rnd-a"}

    def test_a_weight_a_float_can_hold_is_drawn(self):
        # every draw but the first, which has no chain to extend, is "chain"
        mix = {"chain": 10**300, "fresh": 1}
        events = AttackPlan("random_adversary", {"steps": 50, "mix": mix}).events()
        assert {e.tx.sender for e in events} == {"rnd-a0"}

    def test_optional_int_params_accept_none(self):
        assert len(AttackPlan("cp_lock", {"chain_len": 8, "capacity": None}).generate()[0]) == 8
        unset = AttackPlan("mempurge_overdraft", {"balance": None}).events()
        assert dump_events(unset) == dump_events(AttackPlan("mempurge_overdraft").events())


class TestAttackPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttackPlan(kind="dust_storm")

    @pytest.mark.parametrize("delay", [-1, float("inf"), float("nan")])
    def test_negative_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="delay must be finite and non-negative"):
            AttackPlan(kind="xt6", delay_seconds=delay)

    def test_delay_shifts_timestamps(self):
        plan = AttackPlan(kind="deter_future", params={"count": 3}, delay_seconds=2.5)
        assert plan.events()[0].ts_ms == 2_500

    @pytest.mark.parametrize("kind", ["deter_future", "random_adversary"])
    @pytest.mark.parametrize("delay", [float("inf"), float("nan"), -0.5])
    def test_delay_reassigned_after_construction_rejected(self, kind, delay):
        # the plan is a value: its delay is checked once, at construction
        plan = AttackPlan(kind=kind)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.delay_seconds = delay
        assert plan.delay_seconds == 0.0

    def test_generate_calls_the_generator_once(self, monkeypatch):
        calls = []
        generate = attacks.ATTACKS["random_adversary"]

        def counted(params, start_ms):
            calls.append((dict(params), start_ms))
            return generate(params, start_ms)

        monkeypatch.setitem(attacks.ATTACKS, "random_adversary", counted)
        events, seeds = AttackPlan("random_adversary", {"steps": 50, "seed": 3}).generate()
        assert calls == [({"steps": 50, "seed": 3}, 0)]
        assert len(events) == 50 and seeds

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("xt6", XT6_DESK),
            ("deter_future", {"count": 3}),
            ("mempurge_overdraft", {}),
            ("cp_lock", {"chain_len": 8}),
            ("random_adversary", {"steps": 50, "seed": 3}),
        ],
    )
    def test_events_and_seeds_are_the_parts_of_generate(self, kind, params):
        plan = AttackPlan(kind, params)
        events, seeds = plan.generate()
        assert dump_events(plan.events()) == dump_events(events)
        assert plan.account_seeds() == seeds

    @pytest.mark.parametrize(
        "params, delay", [({"steps": 50, "seed": 3}, 1.0), ({"steps": 50, "seed": 4}, 0.0)]
    )
    def test_other_params_or_delay_give_their_generators_trace(self, params, delay):
        plan = AttackPlan("random_adversary", params, delay)
        events, seeds = attacks.ATTACKS["random_adversary"](params, int(delay * 1000))
        assert dump_events(plan.events()) == dump_events(events)
        assert plan.account_seeds() == seeds
        assert plan.events()[0].ts_ms == int(delay * 1000)

    @pytest.mark.parametrize("case", PINNED)
    def test_random_adversary_trace_and_seeds_pinned(self, case):
        # digests recorded from each kind's generator before the kinds
        # shared one table and one (events, seeds) form
        kind, params, delay, digest = PINNED[case]
        events, seeds = AttackPlan(kind, params, delay).generate()
        text = dump_events(events) + repr(sorted(seeds.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_changing_the_callers_params_leaves_the_trace(self):
        params = {"steps": 3, "mix": {"fresh": 1}}
        plan = AttackPlan("random_adversary", params)
        before = dump_events(plan.events())
        params["steps"] = 9
        params["mix"]["overdraft"] = 5
        assert dump_events(plan.events()) == before and len(plan.events()) == 3

    def test_params_are_read_only(self):
        plan = AttackPlan("random_adversary", {"steps": 3, "mix": {"fresh": 1}})
        with pytest.raises(TypeError):
            plan.params["steps"] = 7
        with pytest.raises(TypeError):
            plan.params["mix"]["fresh"] = 2
        schedule = [100, 102, 104, 107]
        plan = AttackPlan("xt6", dict(XT6_DESK, price_schedule=schedule))
        assert plan.params["price_schedule"] == tuple(schedule)
        assert dump_events(plan.events()) == dump_events(gen_xt6(XT6_DESK))
        # a read-only mapping has no hash, so neither has the plan
        with pytest.raises(TypeError):
            hash(plan)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("xt6", {"n_seq": 4, "n_parents_evicted": 5}, "cannot evict more parents"),
            ("xt6", {"price_schedule": [100, 101, 104, 107]}, "price levels leave no room"),
            ("deter_future", {"count": -1}, "count must be non-negative"),
            ("mempurge_overdraft", {"chain_len": 1}, "chain_len must be >= 2"),
            ("cp_lock", {"chain_len": 1}, "chain_len must be >= 2"),
            ("cp_lock", {"low_price": 5, "high_price": 5}, "high_price must exceed low_price"),
            ("cp_lock", {"chain_len": 8, "capacity": 4}, "capacity below chain_len"),
            ("random_adversary", {"steps": -1}, "steps must be non-negative"),
            (
                "random_adversary",
                {"mix": {"fresh": 4, "chain": -1}},
                "random_adversary mix weight 'chain' must be non-negative, got -1",
            ),
            (
                # random.choices would raise OverflowError turning it to a float
                "random_adversary",
                {"steps": 3, "mix": {"fresh": 10**400}},
                "random_adversary mix weights sum to more than a float can hold, got 1000",
            ),
        ],
    )
    def test_each_generators_own_checks_refuse_bad_params(self, kind, params, message, capsys):
        with pytest.raises(ValueError, match=f"^{message}"):
            AttackPlan(kind, params).generate()
        assert main(["attack", kind, "--params", json.dumps(params)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")

    def test_params_nested_too_deeply_rejected(self):
        deep = []
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(ValueError, match="nested too deeply"):
            AttackPlan("random_adversary", {"mix": deep})


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
