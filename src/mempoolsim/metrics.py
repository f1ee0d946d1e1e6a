"""Quantitative reports: eviction bounds, locking (gamma) statistics and
per-admission fee-utility accounting.

All accounting is integer-exact; gamma ratios are the only floating-point
values and are reported, never used in admission decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Sequence

from .core import AdmissionOutcome, MIN_TX_GAS, OutcomeKind, Transaction, WorldState

BASIS_CHAIN_SAFE = "cp_21000_price_sum"
BASIS_PRICE_ONLY = "geth_maxprice_blockgas"


@dataclass(frozen=True)
class BoundEstimate:
    policy: str
    bound_wei: int
    basis: str


def eviction_bound_cp(pending: Iterable[Transaction]) -> BoundEstimate:
    """Lower bound on realizable fees under chain-safe admission: minimal gas
    per tx times the pool's price sum, which admissions can only raise."""
    bound = MIN_TX_GAS * sum(tx.price for tx in pending)
    return BoundEstimate(policy="cp", bound_wei=bound, basis=BASIS_CHAIN_SAFE)


def eviction_bound_baseline_under_xt6(pending: Sequence[Transaction], world: WorldState) -> BoundEstimate:
    """What a price-only pool retains after a successful eviction attack:
    a single transaction worth at most max price times the block gas limit."""
    if not pending:
        raise ValueError("bound undefined on empty pool")
    bound = max(tx.price for tx in pending) * world.block_gas_limit
    return BoundEstimate(policy="baseline", bound_wei=bound, basis=BASIS_PRICE_ONLY)


# ---------------------------------------------------------------- gamma


@dataclass
class GammaReport:
    per_sender: Dict[str, float]
    gamma_max: float
    gamma_avg: float
    gamma_p95: float
    # same statistics with the sender's minimum fee as denominator
    per_sender_fee_denom: Dict[str, float] = field(default_factory=dict)
    gamma_max_fee_denom: float = 0.0


def nearest_rank_percentile(values: Sequence[float], pct: float) -> float:
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def gamma(pending: Sequence[Transaction]) -> GammaReport:
    """Per-sender dispersion of prices above the sender's chain minimum.

    gamma(tx) = tx.price / (min price among the sender's pending txs) - 1;
    gamma(s) is the max over the sender's txs. The fee-denominator variant
    (tx.price / min fee) is emitted alongside for comparison and is not
    asserted as ground truth.
    """
    if not pending:
        raise ValueError("gamma of empty snapshot")
    min_price: Dict[str, int] = {}
    min_fee: Dict[str, int] = {}
    for tx in pending:
        if tx.sender not in min_price or tx.price < min_price[tx.sender]:
            min_price[tx.sender] = tx.price
        if tx.sender not in min_fee or tx.fee < min_fee[tx.sender]:
            min_fee[tx.sender] = tx.fee
    per_sender: Dict[str, float] = {}
    per_sender_fee: Dict[str, float] = {}
    for tx in pending:
        g = tx.price / min_price[tx.sender] - 1
        gf = tx.price / min_fee[tx.sender] - 1
        if tx.sender not in per_sender or g > per_sender[tx.sender]:
            per_sender[tx.sender] = g
        if tx.sender not in per_sender_fee or gf > per_sender_fee[tx.sender]:
            per_sender_fee[tx.sender] = gf
    values = list(per_sender.values())
    return GammaReport(
        per_sender=per_sender,
        gamma_max=max(values),
        gamma_avg=sum(values) / len(values),
        gamma_p95=nearest_rank_percentile(values, 95),
        per_sender_fee_denom=per_sender_fee,
        gamma_max_fee_denom=max(per_sender_fee.values()),
    )


# --------------------------------------------------------- fee utility


class OutcomeClass(Enum):
    O1 = "declined"
    O2 = "evicted-lower-fee"
    O3 = "evicted-higher-fee"
    O4 = "admitted-free-slot"
    OTHER = "other"
    # a resident the final drain could not build into any block
    UNBUILDABLE = "unbuildable"


@dataclass(frozen=True)
class OutcomeFlags:
    future_turn_pending: bool = False
    pending_turn_future: bool = False


def classify_outcome(outcome: AdmissionOutcome) -> OutcomeClass:
    if outcome.kind is OutcomeKind.DECLINED:
        return OutcomeClass.O1
    if outcome.kind is OutcomeKind.ADMITTED_NO_EVICT:
        return OutcomeClass.O4
    if len(outcome.victims) != 1:
        return OutcomeClass.OTHER
    victim = outcome.victims[0]
    if outcome.tx.fee > victim.fee:
        return OutcomeClass.O2
    if outcome.tx.fee < victim.fee:
        return OutcomeClass.O3
    return OutcomeClass.OTHER


@dataclass
class UtilEntry:
    inside_delta: int = 0
    outside_delta: int = 0
    dutil: int = 0
    count: int = 0

    def add(self, inside_delta: int, outside_delta: int) -> None:
        self.inside_delta += inside_delta
        self.outside_delta += outside_delta
        self.dutil += inside_delta - outside_delta
        self.count += 1


@dataclass
class UtilLedger:
    per_class: Dict[OutcomeClass, UtilEntry] = field(default_factory=dict)
    flagged: Dict[str, UtilEntry] = field(default_factory=dict)
    total: UtilEntry = field(default_factory=UtilEntry)

    def record(self, outcome_class: OutcomeClass, inside_delta: int, outside_delta: int,
               flags: OutcomeFlags = OutcomeFlags()) -> None:
        _entry(self.per_class, outcome_class).add(inside_delta, outside_delta)
        if flags.future_turn_pending:
            _entry(self.flagged, "future_turn_pending").add(inside_delta, outside_delta)
        if flags.pending_turn_future:
            _entry(self.flagged, "pending_turn_future").add(inside_delta, outside_delta)
        self.total.add(inside_delta, outside_delta)


def _entry(bucket: Dict, key) -> UtilEntry:
    entry = bucket.get(key)
    if entry is None:
        entry = bucket[key] = UtilEntry()
    return entry
