"""Greedy block builder: fixed candidate order, append-only, skip-on-overflow.

Candidates are walked in price-descending order, except that a transaction
is never placed before its in-pool ancestors. Each candidate is tried once,
only at the current end of the block; on gas overflow or nonce gap it is
skipped and never revisited.

The order is produced lazily, and with static gas the walk stops as soon as
the block has less than ``MIN_TX_GAS`` gas left. The stop is exact:
``Transaction`` rejects ``gas_used < MIN_TX_GAS``, so every later candidate
would be a gas-overflow skip, and skips change neither the block nor the
pool. This is the rule geth's miner applies to the same price-and-nonce
order.

There is one ranking, ``candidate_order``. ``build_block`` walks it for one
block; ``drain`` takes it once and walks what is left of it block by block
(see its docstring), without calling ``build_block``.

``gas_fn`` lets a scenario supply context-dependent gas consumption to
``build_block`` (gas as a function of which transactions already precede in
the block); the default is the transaction's static ``gas_used``. A
``gas_fn`` may return less than ``MIN_TX_GAS``, so with one the builder
walks the whole order. ``drain`` always uses static gas.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import MIN_TX_GAS, Block, Reason, Transaction, WorldState
from .pool import Mempool

GasFn = Callable[[Transaction, Sequence[Transaction]], int]


@dataclass
class BuildResult:
    block: Block
    skipped: List[Tuple[Transaction, str]] = field(default_factory=list)


def candidate_order(pool: Mempool) -> Iterator[Transaction]:
    """Yield pending txs by price descending (ties oldest first), ancestors
    promoted ahead of their descendants.

    ``pool.pending()`` lists txs in admission order and Python's sort is
    stable also with ``reverse=True``, so one sort on price ranks by
    (-price, admission seq). Walking that ranking, each tx places the
    not-yet-placed part of its sender's chain up to and including itself.

    The ranking is taken when the first tx is requested, but the walk reads
    the pool's live sender chains: finish with the generator (or drop it)
    before the pool changes, since it cannot be resumed afterwards.
    """
    ranked = sorted(pool.pending(), key=attrgetter("price"), reverse=True)
    # per sender, how long a prefix of its nonce-sorted chain is placed
    placed: Dict[str, int] = {}
    for tx in ranked:
        sender = tx.sender
        start = placed.get(sender, 0)
        chain = pool.chain(sender)
        txs = chain.txs
        if start < len(txs) and txs[start] is tx:
            # the chain's next unplaced tx: nothing to promote
            placed[sender] = start + 1
            yield tx
            continue
        end = bisect_right(chain.nonces, tx.nonce, start)
        if end > start:
            placed[sender] = end
            yield from txs[start:end]


def build_block(
    pool: Mempool, world: WorldState, gas_fn: Optional[GasFn] = None
) -> BuildResult:
    """Build one block; included txs leave the pool and advance world state.

    With static gas (no ``gas_fn``) the walk of ``candidate_order`` stops
    once the block has less than ``MIN_TX_GAS`` gas left; with a block gas
    limit below ``MIN_TX_GAS`` that is before the first candidate, and the
    block is empty. Every tx has ``gas_used >= MIN_TX_GAS``, so each later
    candidate would only be a gas-overflow skip: the block, the pool and
    the world end as a full walk leaves them. ``skipped`` holds the
    (tx, reason) pairs walked before the stop, in walk order, so it is a
    prefix of a full walk's skips. With a ``gas_fn`` the whole order is
    walked, since a context-dependent gas may be below ``MIN_TX_GAS``.
    """
    block = Block()
    skipped: List[Tuple[Transaction, str]] = []
    limit = world.block_gas_limit
    # with static gas, the block is full once gas_total passes this
    full_above = limit - MIN_TX_GAS if gas_fn is None else None
    gas_total = 0
    next_nonce: Dict[str, int] = {}
    for tx in candidate_order(pool):
        if full_above is not None and gas_total > full_above:
            break
        expected = next_nonce.get(tx.sender)
        if expected is None:
            expected = world.nonce_of(tx.sender)
        if tx.nonce != expected:
            skipped.append((tx, "nonce-gap"))
            continue
        gas = gas_fn(tx, block.txs) if gas_fn else tx.gas_used
        if gas_total + gas > limit:
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


def drain(pool: Mempool, world: WorldState) -> List[Block]:
    """Build blocks until the pool is empty or no further tx is buildable.

    Leftovers (permanent nonce gaps, per-block gas overflows that can never
    fit) are moved to the declined ledger as unbuildable, in admission
    order, and earn no fees; the pool ends empty.

    The blocks are the ones ``build_block`` builds when called until a
    block comes out empty, but ``candidate_order`` is taken once and the
    pool is left as it is until one ``pop_all`` at the end. No tx arrives
    during a drain, and each block takes a prefix of each sender's chain,
    so the candidate order of what remains is the first order without the
    taken txs: a tx is placed at the rank of the first of its sender's txs
    at or above its nonce, and that tx remains.

    * Only a sender's buildable run is kept: ``c <= tx.nonce <
      chain.run_end(c)``, where ``c`` is its confirmed nonce. Every other
      tx would be a nonce-gap skip in every block.
    * ``start`` moves past the leading taken txs, so no later block walks
      them.
    * A tx that overflows the block makes its sender's later txs nonce-gap
      skips for the rest of that block.
    * A block stops once the lightest ``gas_used`` among the buildable txs
      not yet taken no longer fits in the gas left; they are sorted by gas
      once, and ``lightest`` moves past the taken ones. Every later
      candidate would be a skip, so the stop is exact.
    """
    limit = world.block_gas_limit
    runs: Dict[str, Tuple[int, int]] = {}  # sender -> its buildable nonces [c, end)
    order: List[Transaction] = []
    for tx in candidate_order(pool):
        run = runs.get(tx.sender)
        if run is None:
            confirmed = world.nonce_of(tx.sender)
            run = runs[tx.sender] = (confirmed, pool.chain(tx.sender).run_end(confirmed))
        if run[0] <= tx.nonce < run[1]:
            order.append(tx)
    by_gas = sorted(order, key=attrgetter("gas_used"))

    taken: Set[Transaction] = set()
    blocks: List[Block] = []
    start = lightest = 0
    while True:
        while start < len(order) and order[start] in taken:
            start += 1
        block = Block()
        included = block.txs
        gas_total = 0
        overflowed: Set[str] = set()
        for k in range(start, len(order)):
            tx = order[k]
            if tx in taken or tx.sender in overflowed:
                continue
            if gas_total + tx.gas_used > limit:
                overflowed.add(tx.sender)
                continue
            gas_total += tx.gas_used
            included.append(tx)
            taken.add(tx)
            while lightest < len(by_gas) and by_gas[lightest] in taken:
                lightest += 1
            if lightest == len(by_gas) or gas_total + by_gas[lightest].gas_used > limit:
                break
        if not included:
            break
        blocks.append(block)
        for tx in included:
            acct = world.account(tx.sender)
            acct.nonce = tx.nonce + 1
            acct.balance -= tx.fee + tx.value
    for tx in pool.pop_all():
        if tx not in taken:
            pool.decline(tx, Reason.UNBUILDABLE)
    return blocks
