import dataclasses

import pytest
from hypothesis import given, strategies as st

from mempoolsim import Transaction, WorldState

from conftest import tx
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


class TestIsFuture:
    def _world(self, nonce):
        world = WorldState()
        world.fund("A", 10**18, nonce=nonce)
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
