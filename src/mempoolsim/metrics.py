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

from .core import AdmissionOutcome, MIN_TX_GAS, Reason, Transaction

BASIS_CHAIN_SAFE = "cp_21000_price_sum"
BASIS_PRICE_ONLY = "geth_maxprice_blockgas"


@dataclass(frozen=True)
class BoundEstimate:
    bound_wei: int
    basis: str


def eviction_bound_cp(pending: Iterable[Transaction]) -> BoundEstimate:
    """Lower bound on realizable fees under chain-safe admission: minimal gas
    per tx times the pool's price sum, which admissions can only raise."""
    bound = MIN_TX_GAS * sum(tx.price for tx in pending)
    return BoundEstimate(bound_wei=bound, basis=BASIS_CHAIN_SAFE)


def eviction_bound_baseline_under_xt6(pending: Sequence[Transaction], block_gas_limit: int) -> BoundEstimate:
    """What a price-only pool retains after a successful eviction attack:
    a single transaction worth at most max price times the block gas limit."""
    if not pending:
        raise ValueError("bound undefined on empty pool")
    bound = max(tx.price for tx in pending) * block_gas_limit
    return BoundEstimate(bound_wei=bound, basis=BASIS_PRICE_ONLY)


# ---------------------------------------------------------------- gamma


@dataclass
class GammaReport:
    per_sender: Dict[str, float]
    gamma_max: float
    gamma_avg: float
    gamma_p95: float
    # gamma_max with the sender's minimum fee as denominator
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
    gamma(s) is the max over the sender's txs. Of the fee-denominator
    variant (tx.fee / min fee among the sender's pending txs - 1) only the
    max over all pending txs is reported, for comparison; it is not
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
    for tx in pending:
        g = tx.price / min_price[tx.sender] - 1
        if tx.sender not in per_sender or g > per_sender[tx.sender]:
            per_sender[tx.sender] = g
    values = list(per_sender.values())
    return GammaReport(
        per_sender=per_sender,
        gamma_max=max(values),
        gamma_avg=sum(values) / len(values),
        gamma_p95=nearest_rank_percentile(values, 95),
        gamma_max_fee_denom=max(tx.fee / min_fee[tx.sender] - 1 for tx in pending),
    )


# --------------------------------------------------------- fee utility


class OutcomeClass(Enum):
    # hashes by identity, as core's enums do: the ledger keys entries by class
    __hash__ = object.__hash__

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


# bound once: classify_outcome runs per admission (see the note above core's
# enums)
_POOL_NOT_FULL = Reason.POOL_NOT_FULL
_EVICTION = Reason.EVICTION
_O1 = OutcomeClass.O1
_O2 = OutcomeClass.O2
_O3 = OutcomeClass.O3
_O4 = OutcomeClass.O4
_OTHER = OutcomeClass.OTHER


def classify_outcome(outcome: AdmissionOutcome, tx: Transaction) -> OutcomeClass:
    reason = outcome.reason
    if reason is _POOL_NOT_FULL:
        return _O4
    if reason is not _EVICTION:
        return _O1
    victim = outcome.victim
    if tx.fee > victim.fee:
        return _O2
    if tx.fee < victim.fee:
        return _O3
    return _OTHER


@dataclass
class UtilEntry:
    inside_delta: int = 0
    outside_delta: int = 0
    count: int = 0

    @property
    def dutil(self) -> int:
        return self.inside_delta - self.outside_delta

    def add(self, inside_delta: int, outside_delta: int) -> None:
        self.inside_delta += inside_delta
        self.outside_delta += outside_delta
        self.count += 1


@dataclass
class UtilLedger:
    """dUtil per outcome class, and again per transition flag for flagged
    admissions, as ``RunReport.util`` derives it from a replay's report.
    Each arrival and each final-drain leftover lands in exactly one class,
    so the run's ``total`` is the sum of the class entries."""

    per_class: Dict[OutcomeClass, UtilEntry] = field(default_factory=dict)
    flagged: Dict[str, UtilEntry] = field(default_factory=dict)

    @property
    def total(self) -> UtilEntry:
        entries = self.per_class.values()
        return UtilEntry(
            sum(e.inside_delta for e in entries),
            sum(e.outside_delta for e in entries),
            sum(e.count for e in entries),
        )
