"""Parameterized generators for adversarial transaction traces.

Each generator is a pure function of its parameters (and seed) and emits a
replayable event list. Attacks are therefore just traces; the harness makes
no distinction. ``AttackPlan`` bundles a generator kind with its parameters
and the account seeding the scenario needs (e.g. deliberately short balances
for the overdraft attack).
"""

from __future__ import annotations

import json
import math
import random
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core import PoolError, Transaction
from .trace import TraceEvent, arrival

ATTACK_KINDS = ("xt6", "deter_future", "mempurge_overdraft", "cp_lock", "random_adversary")

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


@dataclass
class AttackPlan:
    kind: str
    params: Dict = field(default_factory=dict)
    delay_seconds: float = 0.0
    # random_adversary's (key, (events, seeds)), so that events() and
    # account_seeds() share one generation; key = (params JSON, start_ms)
    _random: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind: {self.kind}")
        if not (math.isfinite(self.delay_seconds) and self.delay_seconds >= 0):
            raise ValueError(f"delay must be finite and non-negative, got {self.delay_seconds}")

    @property
    def start_ms(self) -> int:
        return int(self.delay_seconds * 1000)

    def events(self) -> List[TraceEvent]:
        if self.kind == "xt6":
            return gen_xt6(self.params, start_ms=self.start_ms)
        if self.kind == "deter_future":
            return gen_deter_future(self.params, start_ms=self.start_ms)
        if self.kind == "mempurge_overdraft":
            return gen_mempurge(self.params, start_ms=self.start_ms)
        if self.kind == "cp_lock":
            return gen_cp_lock(self.params, start_ms=self.start_ms)
        return list(self._random_trace()[0])

    def account_seeds(self) -> Dict[str, Tuple[int, int]]:
        """sender -> (balance, confirmed nonce) overrides this attack needs."""
        if self.kind == "deter_future":
            p = deter_params(self.params)
            balance = 10 * 21_000 * p["price"]
            return {f"deter-{i}": (balance, 0) for i in range(p["count"])}
        if self.kind == "mempurge_overdraft":
            return {"mempurge-0": (mempurge_params(self.params)["balance"], 0)}
        if self.kind == "random_adversary":
            return dict(self._random_trace()[1])
        return {}

    def _random_trace(self):
        """The random_adversary (events, seeds), generated once for the
        current params and delay; callers get copies."""
        key = (json.dumps(self.params, sort_keys=True), self.start_ms)
        if self._random is None or self._random[0] != key:
            self._random = (key, _random_adversary(self.params, self.start_ms))
        return self._random[1]


def _merge_params(defaults: Dict, params: Optional[Dict], what: str) -> Dict:
    """``defaults`` updated by ``params``: each key must be known, and a value
    whose default is an int, or None for an optional int, must be an exact int."""
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"{what} parameters must be a JSON object, got {params!r}")
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(f"unknown {what} parameter {key!r}; known: {', '.join(defaults)}")
        wants_int = type(defaults[key]) is int or (defaults[key] is None and value is not None)
        if wants_int and type(value) is not int:
            raise ValueError(f"{what} parameter {key!r} must be an integer, got {value!r}")
    return {**defaults, **(params or {})}


def _adv(sender: str, nonce: int, price: int, gas_used: int = 21_000, **kw) -> Transaction:
    return Transaction(
        sender=sender, nonce=nonce, price=price, gas_used=gas_used, label="adversarial", **kw
    )


def gen_xt6(params: Optional[Dict] = None, start_ms: int = 0) -> List[TraceEvent]:
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


def deter_params(params: Optional[Dict] = None) -> Dict:
    p = _merge_params({"count": 10, "price": 100}, params, "deter_future")
    if p["count"] < 0:
        raise ValueError("count must be non-negative")
    return p


def gen_deter_future(params: Optional[Dict] = None, start_ms: int = 0) -> List[TraceEvent]:
    """Unchargeable future txs: each sender leaves a nonce gap of two."""
    p = deter_params(params)
    return [
        arrival(_adv(f"deter-{i}", 2, p["price"]), ts_ms=start_ms + i)
        for i in range(p["count"])
    ]


def mempurge_params(params: Optional[Dict] = None) -> Dict:
    defaults = {"chain_len": 3, "price": 100, "balance": None}
    p = _merge_params(defaults, params, "mempurge_overdraft")
    if p["chain_len"] < 2:
        raise ValueError("chain_len must be >= 2")
    if p["balance"] is None:
        # balance covers all but half of the last tx's reservation
        per_tx_cost = 21_000 * p["price"]
        p["balance"] = per_tx_cost * p["chain_len"] - per_tx_cost // 2
    return p


def gen_mempurge(params: Optional[Dict] = None, start_ms: int = 0) -> List[TraceEvent]:
    """One chain whose txs are individually affordable but jointly overdraft
    the seeded balance; the chain tail must be declined by a precheck that
    accounts cumulative (latent) costs."""
    p = mempurge_params(params)
    return [
        arrival(_adv("mempurge-0", nonce, p["price"]), ts_ms=start_ms + nonce)
        for nonce in range(p["chain_len"])
    ]


def gen_cp_lock(params: Optional[Dict] = None, start_ms: int = 0) -> List[TraceEvent]:
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
    if pad == 1:
        events.append(arrival(_adv("lock-1", 0, high), ts_ms=ts))
    elif pad > 1:
        for nonce in range(pad):
            price = high if nonce == pad - 1 else low
            events.append(arrival(_adv("lock-1", nonce, price), ts_ms=ts))
            ts += 1
    return events


def _random_adversary(params: Optional[Dict], start_ms: int):
    default_mix = {"fresh": 4, "chain": 4, "future": 1, "overdraft": 1}
    p = _merge_params({"steps": 1000, "seed": 0, "mix": default_mix}, params, "random_adversary")
    steps = p["steps"]
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = random.Random(p["seed"])
    # a given mix replaces the default one: a kind it leaves out has weight 0
    mix = _merge_params(dict.fromkeys(default_mix, 0), p["mix"], "random_adversary mix")
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


def gen_random_adversary(params: Optional[Dict] = None, start_ms: int = 0) -> List[TraceEvent]:
    """Seeded pseudo-random mix of valid, chained, future, and overdrafting
    arrivals; reproducible from the seed."""
    return _random_adversary(params, start_ms)[0]


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
    it would pay if every pending adversarial tx were included."""
    charged = sum(tx.fee for tx in included_txs if tx.label == "adversarial")
    at_risk = charged + sum(tx.fee for tx in pending_txs if tx.label == "adversarial")
    return AttackCostReport(fees_charged=charged, fees_at_risk=at_risk)
