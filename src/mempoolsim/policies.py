"""Admission policies behind one decision interface.

Three policies are provided:

* ``baseline`` - price-only eviction of the globally cheapest pending tx,
  regardless of descendants. Evicting a parent orphans its children; this
  vulnerability is intentional and exercised by the eviction-attack
  regression tests.
* ``cp``   - chain-safe price policy: only childless transactions are
  eviction candidates, which keeps the pool's price sum monotonically
  non-decreasing across admissions.
* ``map``  - minimum-fee policy: the eviction seed is the pending tx with
  the lowest fee, and the actual victim is that sender's chain tail, so no
  resident is ever orphaned.

Policies are pure decision functions over a pool snapshot; they never
mutate the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .core import Reason, Transaction
from .pool import Mempool


@dataclass(frozen=True)
class PolicyDecision:
    declined: bool
    reason: Reason
    victims: Tuple[Transaction, ...] = ()

    @staticmethod
    def admit(victims: Tuple[Transaction, ...] = ()) -> "PolicyDecision":
        reason = Reason.EVICTION if victims else Reason.POOL_NOT_FULL
        return PolicyDecision(False, reason, victims)

    @staticmethod
    def decline(reason: Reason) -> "PolicyDecision":
        return PolicyDecision(True, reason)


@dataclass
class PolicyConfig:
    kind: str = "cp"  # one of {"baseline", "cp", "map"}
    per_sender_limit: Optional[int] = None
    map_gate_nonfull: bool = False

    def build(self):
        if self.kind == "baseline":
            return PriceOnlyPolicy()
        if self.kind == "cp":
            return ChildlessPricePolicy()
        if self.kind == "map":
            return MinFeeChainTailPolicy(gate_nonfull=self.map_gate_nonfull)
        raise ValueError(f"unknown policy kind: {self.kind}")


class PriceOnlyPolicy:
    """Evicts the globally cheapest pending tx when a pricier one arrives."""

    name = "baseline"

    def decide(self, pool: Mempool, tx: Transaction) -> PolicyDecision:
        if not pool.full:
            return PolicyDecision.admit()
        victim = pool.min_price_tx()
        if tx.price > victim.price:
            return PolicyDecision.admit((victim,))
        return PolicyDecision.decline(Reason.PRICE_TOO_LOW)


class ChildlessPricePolicy:
    """Evicts only the cheapest childless tx; declines if the arrival's price
    does not strictly exceed it."""

    name = "cp"

    def decide(self, pool: Mempool, tx: Transaction) -> PolicyDecision:
        if not pool.full:
            return PolicyDecision.admit()
        victim = pool.min_price_childless()
        if tx.price <= victim.price:
            return PolicyDecision.decline(Reason.PRICE_TOO_LOW)
        return PolicyDecision.admit((victim,))


class MinFeeChainTailPolicy:
    """Seeds eviction at the minimum-fee pending tx and evicts its sender's
    chain tail instead, preserving nonce-chain integrity.

    ``gate_nonfull=True`` additionally requires ``tx.fee > mdf(pool)`` even
    when slots are free.
    """

    name = "map"

    def __init__(self, gate_nonfull: bool = False):
        self.gate_nonfull = gate_nonfull

    def decide(self, pool: Mempool, tx: Transaction, slots_needed: int = 1) -> PolicyDecision:
        if not pool.full:
            if self.gate_nonfull and len(pool) > 0 and tx.fee <= mdf(pool):
                return PolicyDecision.decline(Reason.FEE_TOO_LOW)
            return PolicyDecision.admit()
        seed = pool.min_fee_tx()
        if tx.fee <= seed.fee:
            return PolicyDecision.decline(Reason.FEE_TOO_LOW)
        victims = pool.chain_tail_victims(seed, count=slots_needed)
        if any(v.sender == tx.sender for v in victims):
            # evicting the arrival's own chain tail would orphan the arrival
            return PolicyDecision.decline(Reason.SELF_EVICTION)
        return PolicyDecision.admit(tuple(victims))


def mdf(pool: Mempool) -> int:
    """Minimum fee among pending transactions; errors on an empty pool."""
    seed = pool.min_fee_tx()
    if seed is None:
        raise ValueError("mdf undefined on empty pool")
    return seed.fee


POLICY_KINDS = ("baseline", "cp", "map")
