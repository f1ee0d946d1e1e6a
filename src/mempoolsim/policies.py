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

Each policy's ``decide(pool, tx)`` is a pure function of a pool snapshot
and a prechecked arrival: it never mutates the pool and returns the
``AdmissionOutcome`` that ``Mempool.admit`` applies and returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import AdmissionOutcome, OutcomeKind, Reason, Transaction
from .pool import Mempool


@dataclass
class PolicyConfig:
    kind: str = "cp"  # one of {"baseline", "cp", "map"}
    per_sender_limit: Optional[int] = None

    def build(self):
        if self.kind == "baseline":
            return PriceOnlyPolicy()
        if self.kind == "cp":
            return ChildlessPricePolicy()
        if self.kind == "map":
            return MinFeeChainTailPolicy()
        raise ValueError(f"unknown policy kind: {self.kind}")


def _free_slot(tx: Transaction) -> AdmissionOutcome:
    return AdmissionOutcome(OutcomeKind.ADMITTED_NO_EVICT, Reason.POOL_NOT_FULL, tx)


def _evict(tx: Transaction, victim: Transaction) -> AdmissionOutcome:
    return AdmissionOutcome(OutcomeKind.ADMITTED_EVICTING, Reason.EVICTION, tx, (victim,))


def _decline(tx: Transaction, reason: Reason) -> AdmissionOutcome:
    return AdmissionOutcome(OutcomeKind.DECLINED, reason, tx)


class PriceOnlyPolicy:
    """Evicts the globally cheapest pending tx when a pricier one arrives."""

    name = "baseline"

    def decide(self, pool: Mempool, tx: Transaction) -> AdmissionOutcome:
        if not pool.full:
            return _free_slot(tx)
        victim = pool.min_price_tx()
        if tx.price > victim.price:
            return _evict(tx, victim)
        return _decline(tx, Reason.PRICE_TOO_LOW)


class ChildlessPricePolicy:
    """Evicts only the cheapest childless tx; declines if the arrival's price
    does not strictly exceed it."""

    name = "cp"

    def decide(self, pool: Mempool, tx: Transaction) -> AdmissionOutcome:
        if not pool.full:
            return _free_slot(tx)
        victim = pool.min_price_childless()
        if tx.price <= victim.price:
            return _decline(tx, Reason.PRICE_TOO_LOW)
        return _evict(tx, victim)


class MinFeeChainTailPolicy:
    """Seeds eviction at the minimum-fee pending tx and evicts its sender's
    chain tail instead, preserving nonce-chain integrity."""

    name = "map"

    def decide(self, pool: Mempool, tx: Transaction) -> AdmissionOutcome:
        if not pool.full:
            return _free_slot(tx)
        seed = pool.min_fee_tx()
        if tx.fee <= seed.fee:
            return _decline(tx, Reason.FEE_TOO_LOW)
        if seed.sender == tx.sender:
            # evicting the arrival's own chain tail would orphan the arrival
            return _decline(tx, Reason.SELF_EVICTION)
        return _evict(tx, pool.chain(seed.sender).txs[-1])


POLICY_KINDS = ("baseline", "cp", "map")
