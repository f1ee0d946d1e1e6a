import copy
import dataclasses
import inspect
import pickle
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mempoolsim import (
    AdmissionOutcome,
    PoolError,
    Reason,
    TraceEvent,
    Transaction,
    WorldState,
)
from mempoolsim.core import short_repr
from mempoolsim.replay import Snapshot
from mempoolsim.metrics import OutcomeClass

from conftest import fund, tx
from oracles import ListPendingView, cumulative_cost, is_future


class TestTransaction:
    def test_fee_is_gas_times_price(self):
        t = tx("A", 0, 7, gas=30_000)
        assert t.fee == 30_000 * 7

    def test_cost_reserves_gas_limit(self):
        t = Transaction(sender="A", nonce=0, price=2, gas_used=21_000, gas_limit=50_000, value=9)
        assert t.cost == 50_000 * 2 + 9

    def test_gas_floor_enforced(self):
        with pytest.raises(ValueError):
            Transaction(sender="A", nonce=0, price=1, gas_used=20_999)

    def test_gas_used_capped_by_limit(self):
        with pytest.raises(ValueError):
            Transaction(sender="A", nonce=0, price=1, gas_used=30_000, gas_limit=25_000)

    def test_price_must_be_positive(self):
        with pytest.raises(ValueError):
            tx("A", 0, 0)

    @pytest.mark.parametrize("field", ["nonce", "price", "gas_used", "gas_limit", "value"])
    @pytest.mark.parametrize("bad", [True, False, 30_000.0, 1.5, float("inf"), "7", None])
    def test_integer_fields_must_be_exact_ints(self, field, bad):
        fields = dict(sender="A", nonce=0, price=1, gas_used=21_000, gas_limit=21_000, value=0)
        fields[field] = bad
        # the type check runs first: False as price is not "price must be positive"
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            Transaction(**fields)

    @pytest.mark.parametrize("field", ["nonce", "price", "gas_used", "gas_limit", "value"])
    def test_integer_fields_below_2_256(self, field):
        top = 2**256 - 1
        fields = dict(sender="A", nonce=0, price=1, gas_used=21_000, gas_limit=top, value=0)
        fields[field] = top
        assert getattr(Transaction(**fields), field) == top
        fields[field] = top + 1
        with pytest.raises(ValueError, match=rf"^{field} must be .* below 2\*\*256, got a 257-bit"):
            Transaction(**fields)

    @pytest.mark.parametrize("sender", [5, b"A", None, ("A",)])
    def test_sender_must_be_str(self, sender):
        with pytest.raises(ValueError, match="^sender must be a string, got "):
            Transaction(sender=sender, nonce=0, price=1)

    def test_str_subclass_sender_rejected(self):
        class Name(str):
            pass

        with pytest.raises(ValueError, match="sender must be a string"):
            Transaction(sender=Name("A"), nonce=0, price=1)

    @given(gas=st.integers(21_000, 10**6), price=st.integers(1, 10**9))
    def test_fee_exact_integer(self, gas, price):
        assert tx("A", 0, price, gas=gas).fee == gas * price

    @pytest.mark.parametrize("name", ["fee", "cost"])
    def test_fee_and_cost_are_derived_not_passed(self, name):
        with pytest.raises(TypeError):
            Transaction(sender="A", nonce=0, price=1, **{name: 5})
        spec = {f.name: f for f in dataclasses.fields(Transaction)}[name]
        assert (spec.init, spec.repr, spec.compare) == (False, False, False)

    def test_frozen_slotted_and_identified_by_identity(self):
        t = Transaction(sender="A", nonce=0, price=3, gas_limit=30_000, value=4)
        for name in ("fee", "cost", "price", "gas_limit"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, 1)
        assert not hasattr(t, "__dict__")
        copy = dataclasses.replace(t)
        fields = [f.name for f in dataclasses.fields(Transaction)]
        assert [getattr(copy, n) for n in fields] == [getattr(t, n) for n in fields]
        assert (copy.fee, copy.cost) == (t.fee, t.cost) == (21_000 * 3, 30_000 * 3 + 4)
        assert copy is not t and copy != t and t == t
        assert len({t, copy}) == 2 and {t: 1}.get(copy) is None
        assert repr(t) == "<A:0 @3>"


    def test_signature_and_fields_are_the_dataclass_ones(self):
        params = inspect.signature(Transaction).parameters.values()
        assert [(p.name, p.kind, p.default) for p in params] == [
            ("sender", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("nonce", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("price", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("gas_used", inspect.Parameter.POSITIONAL_OR_KEYWORD, 21_000),
            ("gas_limit", inspect.Parameter.POSITIONAL_OR_KEYWORD, 0),
            ("value", inspect.Parameter.POSITIONAL_OR_KEYWORD, 0),
            ("label", inspect.Parameter.POSITIONAL_OR_KEYWORD, "benign"),
        ]
        assert [(f.name, f.init, f.repr, f.compare) for f in dataclasses.fields(Transaction)] == [
            ("sender", True, True, True),
            ("nonce", True, True, True),
            ("price", True, True, True),
            ("gas_used", True, True, True),
            ("gas_limit", True, True, True),
            ("value", True, True, True),
            ("label", True, True, True),
            ("fee", False, False, False),
            ("cost", False, False, False),
        ]

    def test_every_field_is_set_and_gas_limit_defaults_to_gas_used(self):
        t = Transaction("A", 1, 3, 30_000)
        assert (t.sender, t.nonce, t.price, t.gas_used, t.gas_limit, t.value, t.label) == (
            "A", 1, 3, 30_000, 30_000, 0, "benign"
        )
        t = Transaction("B", 2, 5, 21_000, 50_000, 7, "adversarial")
        assert (t.sender, t.nonce, t.price, t.gas_used, t.gas_limit, t.value, t.label) == (
            "B", 2, 5, 21_000, 50_000, 7, "adversarial"
        )
        assert (t.fee, t.cost) == (21_000 * 5, 50_000 * 5 + 7)

    @pytest.mark.parametrize("fields, message", [
        ({"nonce": True}, "nonce must be an integer, got True"),
        ({"gas_limit": False}, "gas_limit must be an integer, got False"),
        ({"price": 1.0}, "price must be an integer, got 1.0"),
        # the type check runs before the sender check and the ranges
        ({"nonce": 1.0, "sender": 5}, "nonce must be an integer, got 1.0"),
        ({"value": -1}, "value must be non-negative and below 2**256, got -1"),
        ({"price": 2**256}, "price must be positive and below 2**256, got a 257-bit integer"),
        ({"price": 2**4000}, "price must be positive and below 2**256, got a 4001-bit integer"),
        ({"gas_used": 20_999}, "gas_used must be >= 21000 and below 2**256, got 20999"),
        ({"gas_limit": 20_000}, "gas_limit must be >= 21000 and below 2**256, got 20000"),
        ({"gas_used": 30_000, "gas_limit": 25_000}, "gas_used exceeds gas_limit"),
        # the first bad field in (nonce, price, gas_used, gas_limit, value) order
        ({"nonce": -1, "price": 0}, "nonce must be non-negative and below 2**256, got -1"),
        ({"sender": 5}, "sender must be a string, got 5"),
        ({"sender": type("Name", (str,), {})("A")}, "sender must be a string, got 'A'"),
        ({"label": "whale"}, "label must be one of ('benign', 'adversarial'), got 'whale'"),
        ({"label": None}, "label must be one of ('benign', 'adversarial'), got None"),
        # the label check runs after the int and range checks
        ({"label": "whale", "price": 0}, "price must be positive and below 2**256, got 0"),
    ])
    def test_error_messages_are_pinned(self, fields, message):
        with pytest.raises(ValueError) as info:
            Transaction(**{"sender": "A", "nonce": 0, "price": 1, **fields})
        assert str(info.value) == message


@pytest.mark.parametrize(
    "value", [True, None, 1.5, -7, 10**50, "", "x" * 58, [1, "a"], {"a": [1]}, [[[1]]]]
)
def test_short_repr_is_repr_for_small_values(value):
    assert short_repr(value) == repr(value)


@pytest.mark.parametrize(
    "value",
    ["x" * 100_000, [0] * 50_000, {str(i): i for i in range(1000)}, [["y" * 70] * 6] * 6],
    ids=["string", "list", "dict", "nested"],
)
def test_short_repr_cuts_large_values(value):
    shown = short_repr(value)
    assert len(shown) <= 100 and "..." in shown


class TestAdmissionOutcome:
    def test_frozen_slotted_and_checked_on_every_construction(self):
        b = Transaction("B", 0, 1)
        eviction = AdmissionOutcome(Reason.EVICTION, b)
        assert (eviction.reason, eviction.victim) == (Reason.EVICTION, b)
        assert AdmissionOutcome(Reason.STALE).victim is None
        for name in ("reason", "victim"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(eviction, name, None)
        assert not hasattr(eviction, "__dict__")
        with pytest.raises(PoolError, match="^eviction outcome needs a victim$"):
            dataclasses.replace(eviction, victim=None)
        with pytest.raises(PoolError, match="^pool-not-full outcome cannot name a victim$"):
            dataclasses.replace(eviction, reason=Reason.POOL_NOT_FULL)
        assert dataclasses.replace(eviction) == eviction
        names = [f.name for f in dataclasses.fields(AdmissionOutcome)]
        # the arrival is not a field: a report keeps it in ``arrivals``
        assert names == ["reason", "victim"]
        assert not hasattr(eviction, "tx")

    def test_victims_view_holds_the_one_victim_or_nothing(self):
        # perfbench's traced counters read len(outcome.victims) and
        # bool(decision.victims), so the view stays while they do
        v = Transaction("B", 0, 1)
        assert AdmissionOutcome(Reason.PRICE_TOO_LOW).victims == ()
        assert AdmissionOutcome(Reason.POOL_NOT_FULL).victims == ()
        assert AdmissionOutcome(Reason.EVICTION, v).victims == (v,)

    @pytest.mark.parametrize("reason", list(Reason), ids=lambda r: r.name)
    def test_admitted_iff_the_reason_kind_is_not_declined(self, reason):
        v = Transaction("B", 0, 1)
        outcome = AdmissionOutcome(reason, v if reason is Reason.EVICTION else None)
        # only a free slot and an eviction admit
        assert outcome.admitted is (reason in (Reason.POOL_NOT_FULL, Reason.EVICTION))


@pytest.mark.parametrize("make", [
    lambda: Transaction("A", 0, 5),
    lambda: AdmissionOutcome(Reason.STALE),
    lambda: TraceEvent("tx_arrival", 3, Transaction("A", 0, 5)),
    lambda: Snapshot(4, 3, 2, 1),
], ids=["Transaction", "AdmissionOutcome", "TraceEvent", "Snapshot"])
def test_frozen_slots_refuse_every_name_with_frozen_instance_error(make):
    # on Python 3.10 and 3.11 the generated __setattr__ raised a TypeError
    # from super() for a name that is not a field
    obj = make()
    state = copy.copy(obj)
    field = dataclasses.fields(obj)[0].name
    for name in (field, "undeclared", "_report_json"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
            delattr(obj, name)
    assert not hasattr(obj, "_report_json") and not hasattr(obj, "undeclared")
    assert [getattr(obj, f.name) for f in dataclasses.fields(obj)] == [
        getattr(state, f.name) for f in dataclasses.fields(obj)
    ]
    assert pickle.loads(pickle.dumps(obj)).__class__ is type(obj)


_ENUM_MEMBERS = {
    Reason: [
        "INVALID_FUTURE", "INVALID_OVERDRAFT", "STALE", "DUPLICATE", "SENDER_LIMIT",
        "PRICE_TOO_LOW", "FEE_TOO_LOW", "SELF_EVICTION", "POOL_NOT_FULL", "EVICTION",
        "UNBUILDABLE",
    ],
    OutcomeClass: ["O1", "O2", "O3", "O4", "OTHER", "UNBUILDABLE"],
}


@pytest.mark.parametrize("enum", list(_ENUM_MEMBERS), ids=lambda e: e.__name__)
class TestEnumIdentityHash:
    def test_members_unchanged(self, enum):
        assert "__hash__" not in enum.__members__
        assert list(enum.__members__) == [m.name for m in enum] == _ENUM_MEMBERS[enum]

    def test_hash_is_identity_and_members_round_trip(self, enum):
        for member in enum:
            assert hash(member) == object.__hash__(member)
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member
            assert enum(member.value) is member

    def test_counter_and_dict_keyed_by_members(self, enum):
        members = list(enum)
        counts = Counter(m for i, m in enumerate(members) for _ in range(i + 1))
        assert [counts[m] for m in members] == list(range(1, len(members) + 1))
        by_member = {m: m.value for m in members}
        assert all(by_member[enum(m.value)] == m.value for m in members)
        assert len({*members, *members}) == len(members)


class TestIsFuture:
    def _world(self, nonce):
        world = WorldState()
        fund(world, "A", 10**18, nonce=nonce)
        return world

    def test_complete_chain_is_not_future(self):
        pool = ListPendingView([tx("A", 1, 1), tx("A", 2, 1)])
        assert not is_future(tx("A", 3, 1), pool, self._world(1))

    def test_missing_ancestor_is_future(self):
        pool = ListPendingView([tx("A", 1, 1)])
        assert is_future(tx("A", 3, 1), pool, self._world(1))

    def test_first_pending_nonce_not_future(self):
        assert not is_future(tx("A", 5, 1), ListPendingView([]), self._world(5))

    @given(st.sets(st.integers(0, 12), max_size=10), st.integers(0, 12))
    def test_not_future_means_full_chain(self, present, target_nonce):
        world = self._world(0)
        pool = ListPendingView([tx("A", n, 1) for n in present])
        target = tx("A", target_nonce, 1)
        if not is_future(target, pool, world):
            assert all(n in present for n in range(0, target_nonce))


class TestCumulativeCost:
    def test_empty_pool(self):
        assert cumulative_cost("A", 5, ListPendingView([])) == 0

    def test_sums_up_to_nonce(self):
        a1 = Transaction(sender="A", nonce=1, price=1, gas_used=21_000, gas_limit=100_000)
        a2 = Transaction(sender="A", nonce=2, price=1, gas_used=21_000, gas_limit=50_000)
        pool = ListPendingView([a1, a2])
        assert cumulative_cost("A", 2, pool) == a1.cost + a2.cost
        assert cumulative_cost("A", 1, pool) == a1.cost

    def test_other_senders_excluded(self):
        a1 = tx("A", 1, 100)
        b1 = tx("B", 1, 999)
        pool = ListPendingView([a1, b1])
        # brute-force filter oracle
        expected = sum(t.cost for t in [a1, b1] if t.sender == "A" and t.nonce <= 5)
        assert cumulative_cost("A", 5, pool) == expected == a1.cost
