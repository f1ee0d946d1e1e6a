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

A policy only chooses whom to evict from a full pool. Its ``decide(pool,
tx)`` requires a full pool and an arrival that passed the precheck and the
per-sender limit; it is a pure function of both, never mutates the pool,
and returns the ``AdmissionOutcome`` that ``Mempool.admit`` applies.
A policy has no settings: ``PolicyConfig`` only names one, and the pool's
two limits, its capacity and per-sender limit, are set on ``ScenarioConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _OUTCOMES, AdmissionOutcome, Reason, Transaction
from .pool import Mempool

# bound once: decide runs per arrival (see the note above core's enums)
_EVICTION = Reason.EVICTION
_PRICE_TOO_LOW = _OUTCOMES[Reason.PRICE_TOO_LOW]
_FEE_TOO_LOW = _OUTCOMES[Reason.FEE_TOO_LOW]
_SELF_EVICTION = _OUTCOMES[Reason.SELF_EVICTION]


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = "cp"  # a key of POLICIES

    def build(self):
        policy = POLICIES.get(self.kind)
        if policy is None:
            raise ValueError(f"unknown policy kind: {self.kind}")
        return policy()


class PriceOnlyPolicy:
    """Evicts the globally cheapest pending tx when a pricier one arrives."""

    def decide(self, pool: Mempool, tx: Transaction) -> AdmissionOutcome:
        victim = pool.min_price_tx()
        if tx.price > victim.price:
            return AdmissionOutcome(_EVICTION, victim)
        return _PRICE_TOO_LOW


class ChildlessPricePolicy:
    """Evicts only the cheapest childless tx; declines if the arrival's price
    does not strictly exceed it."""

    def decide(self, pool: Mempool, tx: Transaction) -> AdmissionOutcome:
        victim = pool.min_price_childless()
        if tx.price <= victim.price:
            return _PRICE_TOO_LOW
        return AdmissionOutcome(_EVICTION, victim)


class MinFeeChainTailPolicy:
    """Seeds eviction at the minimum-fee pending tx and evicts its sender's
    chain tail instead, preserving nonce-chain integrity."""

    def decide(self, pool: Mempool, tx: Transaction) -> AdmissionOutcome:
        seed = pool.min_fee_tx()
        if tx.fee <= seed.fee:
            return _FEE_TOO_LOW
        if seed.sender == tx.sender:
            # evicting the arrival's own chain tail would orphan the arrival
            return _SELF_EVICTION
        return AdmissionOutcome(_EVICTION, pool.chain(seed.sender).txs[-1])


# policy kind -> policy class, in the order the CLI lists them
POLICIES = {
    "baseline": PriceOnlyPolicy,
    "cp": ChildlessPricePolicy,
    "map": MinFeeChainTailPolicy,
}
