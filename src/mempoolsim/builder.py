"""Greedy block builder: fixed candidate order, append-only, skip-on-overflow.

Candidates are walked in price-descending order, except that a transaction
is never placed before its in-pool ancestors. Each candidate is tried once,
only at the current end of the block; on gas overflow or nonce gap it is
skipped and never revisited.

``gas_fn`` lets a scenario supply context-dependent gas consumption (gas as
a function of which transactions already precede in the block); the default
is the transaction's static ``gas_used``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import Block, Reason, Transaction, WorldState
from .pool import Mempool

GasFn = Callable[[Transaction, Sequence[Transaction]], int]


@dataclass
class BuildResult:
    block: Block
    skipped: List[Tuple[Transaction, str]] = field(default_factory=list)


def candidate_order(pool: Mempool) -> List[Transaction]:
    """Pending txs by price descending (ties oldest first), ancestors promoted
    ahead of their descendants.

    ``pool.pending()`` lists txs in admission order and Python's sort is
    stable also with ``reverse=True``, so one sort on price ranks by
    (-price, admission seq). Walking that ranking, each tx places the
    not-yet-placed part of its sender's chain up to and including itself.
    """
    ranked = sorted(pool.pending(), key=attrgetter("price"), reverse=True)
    # per sender, how long a prefix of its nonce-sorted chain is placed
    placed: Dict[str, int] = {}
    order: List[Transaction] = []
    for tx in ranked:
        sender = tx.sender
        start = placed.get(sender, 0)
        chain = pool.chain(sender)
        txs = chain.txs
        if start < len(txs) and txs[start] is tx:
            # the chain's next unplaced tx: nothing to promote
            order.append(tx)
            placed[sender] = start + 1
            continue
        end = bisect_right(chain.nonces, tx.nonce, start)
        if end > start:
            order.extend(txs[start:end])
            placed[sender] = end
    return order


def build_block(
    pool: Mempool, world: WorldState, gas_fn: Optional[GasFn] = None
) -> BuildResult:
    """Build one block; included txs leave the pool and advance world state."""
    block = Block()
    skipped: List[Tuple[Transaction, str]] = []
    gas_total = 0
    next_nonce: Dict[str, int] = {}
    for tx in candidate_order(pool):
        expected = next_nonce.get(tx.sender)
        if expected is None:
            expected = world.nonce_of(tx.sender)
        if tx.nonce != expected:
            skipped.append((tx, "nonce-gap"))
            continue
        gas = gas_fn(tx, block.txs) if gas_fn else tx.gas_used
        if gas_total + gas > world.block_gas_limit:
            skipped.append((tx, "gas-overflow"))
            continue
        gas_total += gas
        block.txs.append(tx)
        next_nonce[tx.sender] = tx.nonce + 1
    for tx in block.txs:
        pool.remove_included(tx)
        acct = world.account(tx.sender)
        acct.nonce = tx.nonce + 1
        acct.balance -= tx.fee + tx.value
    return BuildResult(block=block, skipped=skipped)


def drain(pool: Mempool, world: WorldState, gas_fn: Optional[GasFn] = None) -> List[Block]:
    """Build blocks until the pool is empty or no further tx is buildable.

    Leftovers (permanent nonce gaps, per-block gas overflows that can never
    fit) are moved to the declined ledger as unbuildable and earn no fees.
    """
    blocks: List[Block] = []
    while len(pool) > 0:
        result = build_block(pool, world, gas_fn)
        if not result.block.txs:
            for tx in pool.pending():
                pool.remove_included(tx)
                pool.decline(tx, Reason.UNBUILDABLE)
            break
        blocks.append(result.block)
    return blocks
