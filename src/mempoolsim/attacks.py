"""Parameterized generators for adversarial transaction traces.

An attack is a replayable event list plus the ``sender -> (balance,
confirmed nonce)`` seeds its scenario needs (e.g. deliberately short
balances for the overdraft attack); the harness makes no other distinction
between attacks and traces. ``ATTACKS`` maps each kind to one generator
``(params, start_ms) -> (events, seeds)``, a pure function of its parameters
(and seed). ``gen_xt6`` needs no seeds and returns its events alone; it
stays public because ``perfbench``'s full-scale workload calls it.
``AttackPlan`` bundles a kind with its parameters and delay; tests and the
CLI generate every other attack through it.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .core import PoolError, Transaction, short_repr
from .trace import TraceEvent, arrival

# four-phase eviction attack, full-scale parameters
XT6_FULL = {
    "n_seq": 384,
    "seq_len": 16,
    "n_parents_evicted": 69,
    "big_chain": 5120,
    "price_schedule": (100, 102, 104, 107),
}

# shrunk profile sized for a capacity-192 pool; the one-sender chain of the
# third phase must cover the capacity to flush the pool completely
XT6_DESK = {
    "n_seq": 24,
    "seq_len": 8,
    "n_parents_evicted": 5,
    "big_chain": 192,
    "price_schedule": (100, 102, 104, 107),
}


@dataclass(frozen=True)
class AttackPlan:
    """An attack kind with its parameters and delay. ``params`` is kept as a
    read-only copy, so changing the caller's dict cannot change the trace; a
    read-only mapping is not hashable, so neither is a plan."""

    kind: str
    params: Mapping = field(default_factory=dict)
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ATTACKS:
            raise ValueError(f"unknown attack kind: {self.kind}")
        delay = self.delay_seconds
        if not (math.isfinite(delay) and delay >= 0):
            raise ValueError(f"delay must be finite and non-negative, got {delay}")
        try:
            object.__setattr__(self, "params", _read_only(self.params))
        except RecursionError:
            raise ValueError("attack parameters are nested too deeply") from None

    def generate(self) -> Tuple[List[TraceEvent], Dict[str, Tuple[int, int]]]:
        """The attack's events and the sender -> (balance, confirmed nonce)
        overrides they need, from one generation."""
        return ATTACKS[self.kind](self.params, int(self.delay_seconds * 1000))

    def events(self) -> List[TraceEvent]:
        return self.generate()[0]

    def account_seeds(self) -> Dict[str, Tuple[int, int]]:
        return self.generate()[1]


def _read_only(value):
    """A deep copy of ``value`` with read-only mappings and tuples for lists."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(map(_read_only, value))
    return value


def _merge_params(defaults: Dict, params: Optional[Mapping], what: str) -> Dict:
    """``defaults`` updated by ``params``: each key must be known, and a value
    whose default is an int, or None for an optional int, must be an exact int."""
    if params is not None and not isinstance(params, Mapping):
        raise ValueError(f"{what} parameters must be a JSON object, got {short_repr(params)}")
    for key, value in (params or {}).items():
        if key not in defaults:
            known = ", ".join(defaults)
            raise ValueError(f"unknown {what} parameter {short_repr(key)}; known: {known}")
        wants_int = type(defaults[key]) is int or (defaults[key] is None and value is not None)
        if wants_int and type(value) is not int:
            raise ValueError(
                f"{what} parameter {short_repr(key)} must be an integer, got {short_repr(value)}"
            )
    return {**defaults, **(params or {})}


def _adv(sender: str, nonce: int, price: int, gas_used: int = 21_000, **kw) -> Transaction:
    return Transaction(
        sender=sender, nonce=nonce, price=price, gas_used=gas_used, label="adversarial", **kw
    )


def gen_xt6(params: Optional[Mapping] = None, start_ms: int = 0) -> List[TraceEvent]:
    """Four-phase eviction attack against a price-only pool.

    1. ``n_seq`` senders each send a chain of ``seq_len`` txs priced to evict
       the resident transactions (parents slightly cheaper than children).
    2. ``n_parents_evicted`` single txs evict the cheapest chain parents,
       orphaning their children.
    3. One fresh sender sends a ``big_chain``-long chain priced above
       everything resident, flushing the previous round out of the pool.
    4. A single final tx evicts the big chain's parent, turning every other
       pending tx future.
    """
    p = _merge_params(XT6_FULL, params, "xt6")
    n_seq, seq_len = p["n_seq"], p["seq_len"]
    n_parents, big_chain = p["n_parents_evicted"], p["big_chain"]
    schedule = tuple(p["price_schedule"])
    if n_seq < 1 or seq_len < 1 or big_chain < 1:
        raise ValueError("xt6 phase sizes must be >= 1")
    if len(schedule) != 4 or not all(
        type(a) is type(b) is int and a < b for a, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("price_schedule must be four strictly increasing integer levels")
    if n_parents > n_seq:
        raise ValueError("cannot evict more parents than sequences")
    p1, p2, p3, p4 = schedule
    if p2 <= p1 + 1 or p3 <= p2 or p4 <= p3 + 1:
        raise ValueError("price levels leave no room for parent/child offsets")
    events: List[TraceEvent] = []
    ts = start_ms
    for s in range(n_seq):
        sender = f"xt6-s{s}"
        for nonce in range(seq_len):
            price = p1 if nonce == 0 else p1 + 1
            events.append(arrival(_adv(sender, nonce, price), ts_ms=ts))
            ts += 1
    for i in range(n_parents):
        events.append(arrival(_adv(f"xt6-p{i}", 0, p2), ts_ms=ts))
        ts += 1
    for nonce in range(big_chain):
        price = p3 if nonce == 0 else p3 + 1
        events.append(arrival(_adv("xt6-big", nonce, price), ts_ms=ts))
        ts += 1
    events.append(arrival(_adv("xt6-final", 0, p4), ts_ms=ts))
    return events


def _deter_future(params: Optional[Mapping], start_ms: int):
    """Unchargeable future txs: each sender leaves a nonce gap of two."""
    p = _merge_params({"count": 10, "price": 100}, params, "deter_future")
    if p["count"] < 0:
        raise ValueError("count must be non-negative")
    events = [
        arrival(_adv(f"deter-{i}", 2, p["price"]), ts_ms=start_ms + i)
        for i in range(p["count"])
    ]
    balance = 10 * 21_000 * p["price"]
    return events, {f"deter-{i}": (balance, 0) for i in range(p["count"])}


def _mempurge(params: Optional[Mapping], start_ms: int):
    """One chain whose txs are individually affordable but jointly overdraft
    the seeded balance; the chain tail must be declined by a precheck that
    accounts cumulative (latent) costs."""
    defaults = {"chain_len": 3, "price": 100, "balance": None}
    p = _merge_params(defaults, params, "mempurge_overdraft")
    if p["chain_len"] < 2:
        raise ValueError("chain_len must be >= 2")
    balance = p["balance"]
    if balance is None:
        # balance covers all but half of the last tx's reservation
        per_tx_cost = 21_000 * p["price"]
        balance = per_tx_cost * p["chain_len"] - per_tx_cost // 2
    events = [
        arrival(_adv("mempurge-0", nonce, p["price"]), ts_ms=start_ms + nonce)
        for nonce in range(p["chain_len"])
    ]
    return events, {"mempurge-0": (balance, 0)}


def _cp_lock(params: Optional[Mapping], start_ms: int):
    """Locking counterexample: one sender fills the pool with a cheap chain
    whose only childless tx carries an extreme price.

    If ``chain_len`` is below the pool capacity ``m``, a second sender pads
    the pool with the same shape so every childless tx stays expensive.
    """
    defaults = {"chain_len": 64, "low_price": 1, "high_price": 10_000, "capacity": None}
    p = _merge_params(defaults, params, "cp_lock")
    n, low, high = p["chain_len"], p["low_price"], p["high_price"]
    m = p["capacity"] or n
    if n < 2:
        raise ValueError("chain_len must be >= 2")
    if high <= low:
        raise ValueError("high_price must exceed low_price")
    if m < n:
        raise ValueError("capacity below chain_len")
    events: List[TraceEvent] = []
    ts = start_ms
    for nonce in range(n):
        price = high if nonce == n - 1 else low
        events.append(arrival(_adv("lock-0", nonce, price), ts_ms=ts))
        ts += 1
    pad = m - n
    for nonce in range(pad):
        price = high if nonce == pad - 1 else low
        events.append(arrival(_adv("lock-1", nonce, price), ts_ms=ts))
        ts += 1
    return events, {}


def _random_adversary(params: Optional[Mapping], start_ms: int):
    """Seeded pseudo-random mix of valid, chained, future, and overdrafting
    arrivals; reproducible from the seed."""
    default_mix = {"fresh": 4, "chain": 4, "future": 1, "overdraft": 1}
    p = _merge_params({"steps": 1000, "seed": 0, "mix": default_mix}, params, "random_adversary")
    steps = p["steps"]
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(p["seed"])
    # a given mix replaces the default one: a kind it leaves out has weight 0
    mix = _merge_params(dict.fromkeys(default_mix, 0), p["mix"], "random_adversary mix")
    for kind, weight in mix.items():
        if weight < 0:
            raise ValueError(
                f"random_adversary mix weight {short_repr(kind)} must be non-negative, "
                f"got {short_repr(weight)}"
            )
    total = sum(mix.values())
    try:
        # random.choices draws against the total as a float
        float(total)
    except OverflowError:
        raise ValueError(
            f"random_adversary mix weights sum to more than a float can hold, "
            f"got {short_repr(total)}"
        ) from None
    choices = [k for k, weight in mix.items() if weight > 0]
    weights = [mix[k] for k in choices]
    events: List[TraceEvent] = []
    seeds: Dict[str, Tuple[int, int]] = {}
    next_nonce: Dict[str, int] = {}
    chained: List[str] = []  # the keys of next_nonce, sorted
    fresh_count = 0
    for step in range(steps):
        kind = rng.choices(choices, weights)[0] if choices else "fresh"
        price = rng.randint(1, 10_000)
        gas = rng.choice((21_000, 50_000, 100_000))
        if kind == "chain" and next_nonce:
            sender = rng.choice(chained)
            nonce = next_nonce[sender]
            next_nonce[sender] = nonce + 1
        elif kind == "future":
            sender = f"rnd-f{fresh_count}"
            fresh_count += 1
            nonce = rng.randint(2, 5)
            seeds[sender] = (10**18, 0)
        elif kind == "overdraft":
            sender = f"rnd-o{fresh_count}"
            fresh_count += 1
            nonce = 0
            # balance covers half the reservation: guaranteed overdraft
            seeds[sender] = (gas * price // 2, 0)
        else:
            sender = f"rnd-a{fresh_count}"
            fresh_count += 1
            nonce = 0
            next_nonce[sender] = 1
            insort(chained, sender)
        events.append(arrival(_adv(sender, nonce, price, gas_used=gas), ts_ms=start_ms + step))
    return events, seeds


# each kind's generator (params, start_ms) -> (events, seeds), in the CLI's order
ATTACKS = {
    "xt6": lambda params, start_ms: (gen_xt6(params, start_ms), {}),
    "deter_future": _deter_future,
    "mempurge_overdraft": _mempurge,
    "cp_lock": _cp_lock,
    "random_adversary": _random_adversary,
}


# --------------------------------------------------------------- reporting


@dataclass(frozen=True)
class AttackCostReport:
    fees_charged: int
    fees_at_risk: int

    def __post_init__(self) -> None:
        if self.fees_charged > self.fees_at_risk:
            raise PoolError("charged fees cannot exceed fees at risk")


def attack_cost(included_txs, pending_txs) -> AttackCostReport:
    """Fees the attacker actually paid (txs included in blocks) and the fees
    it would pay if every pending adversarial tx were included as well; after
    a final drain, the pending txs are its unbuildable leftovers."""
    charged = sum(tx.fee for tx in included_txs if tx.label == "adversarial")
    at_risk = charged + sum(tx.fee for tx in pending_txs if tx.label == "adversarial")
    return AttackCostReport(fees_charged=charged, fees_at_risk=at_risk)
