"""Greedy block builder: one price-and-nonce order, walked once per block.

Candidates are walked in price-descending order, except that a transaction
is never placed before its in-pool ancestors. Each candidate is tried once,
only at the current end of the block: it is included when its nonce is its
sender's confirmed nonce and its gas fits in what the block has left, and
otherwise skipped and never revisited. This is the rule geth's miner
applies to the same price-and-nonce order.

``_fill`` is that walk, and ``build_block`` and ``drain`` both run it. An
inclusion advances the sender's account at once, so the one nonce test
skips alike a tx already included, a sender's later txs once one of its
txs overflowed the block, and a real nonce gap. With static gas the walk
stops once the gas left is below a floor no later candidate comes under:
every later candidate would be a gas-overflow skip, and skips change
neither the block, the pool nor the world, so the stop is exact.

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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import MIN_TX_GAS, AccountState, Block, Transaction, WorldState
from .pool import Mempool

GasFn = Callable[[Transaction, Sequence[Transaction]], int]
_nonce = attrgetter("nonce")


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
    # every ranked tx is pending, so its sender has a chain
    chains = pool.chains()
    # per sender, how long a prefix of its nonce-sorted chain is placed
    placed: Dict[str, int] = {}
    for tx in ranked:
        sender = tx.sender
        start = placed.get(sender, 0)
        txs = chains[sender].txs
        if start < len(txs) and txs[start] is tx:
            # the chain's next unplaced tx: nothing to promote
            placed[sender] = start + 1
            yield tx
            continue
        end = bisect_right(txs, tx.nonce, start, key=_nonce)
        if end > start:
            placed[sender] = end
            yield from txs[start:end]


def _fill(
    order: Iterable[Transaction],
    world: WorldState,
    skipped: List[Tuple[Transaction, str]],
    gas_fn: Optional[GasFn] = None,
    lightest: Optional[Callable[[], int]] = None,
) -> Block:
    """Fill one block from ``order``; each inclusion advances ``world``.

    A tx whose nonce is not its sender's confirmed nonce, or whose gas does
    not fit, is appended to ``skipped`` as ``(tx, "nonce-gap")`` or ``(tx,
    "gas-overflow")``. With static gas the walk stops once the gas left is
    below ``MIN_TX_GAS``, or below ``lightest()`` when given; with a
    ``gas_fn`` it walks all of ``order``.

    ``lightest()`` can only rise as txs are included, so it is read again
    after a gas-overflow skip only, not after each inclusion: a stale value
    can only stop the walk later. Past the exact stop every candidate is a
    nonce-gap skip or an overflow, since none fits, and the first overflow
    reads the exact value and stops the walk, so the block is the same.

    Each candidate's account is read once, from ``world.accounts``: a sender
    with none has confirmed nonce 0, and its account is made on inclusion.
    """
    accounts = world.accounts
    block = Block()
    included = block.txs
    limit = world.block_gas_limit
    # with static gas, the block is full once gas_total passes this
    full_above = None if gas_fn else limit - (lightest() if lightest else MIN_TX_GAS)
    gas_total = 0
    for tx in order:
        if full_above is not None and gas_total > full_above:
            break
        sender = tx.sender
        acct = accounts.get(sender)
        if tx.nonce != (0 if acct is None else acct.nonce):
            skipped.append((tx, "nonce-gap"))
            continue
        gas = gas_fn(tx, included) if gas_fn else tx.gas_used
        if gas_total + gas > limit:
            skipped.append((tx, "gas-overflow"))
            if lightest:
                full_above = limit - lightest()
            continue
        gas_total += gas
        included.append(tx)
        if acct is None:
            acct = accounts[sender] = AccountState()
        acct.nonce = tx.nonce + 1
        acct.balance -= tx.fee + tx.value
    return block


def build_block(
    pool: Mempool, world: WorldState, gas_fn: Optional[GasFn] = None
) -> BuildResult:
    """Build one block; its txs advance world state and leave the pool in one
    ``remove_included`` call.

    ``_fill`` walks ``candidate_order``, with static gas (no ``gas_fn``) up
    to the ``MIN_TX_GAS`` stop: with a block gas limit below ``MIN_TX_GAS``
    that is before the first candidate, and the block is empty. ``skipped``
    holds the (tx, reason) pairs walked before the stop, in walk order, so
    it is a prefix of a full walk's skips.
    """
    skipped: List[Tuple[Transaction, str]] = []
    block = _fill(candidate_order(pool), world, skipped, gas_fn)
    pool.remove_included(block.txs)
    return BuildResult(block=block, skipped=skipped)


def drain(pool: Mempool, world: WorldState) -> Tuple[List[Block], List[Transaction]]:
    """Build blocks until the pool is empty or no further tx is buildable;
    return them and the leftovers, which earn no fees, in admission order.

    The leftovers are permanent nonce gaps and per-block gas overflows that
    can never fit: no tx arrives during a drain, so a leftover would be
    skipped in every further block. The pool ends empty.

    The blocks are the ones ``build_block`` builds when called until a
    block comes out empty, but ``candidate_order`` is taken once and the
    pool is left as it is until one ``pop_all`` at the end. Each block
    takes a prefix of each sender's chain, so the candidate order of what
    remains is the first order without the included txs, which ``_fill``'s
    nonce test skips: a tx is placed at the rank of the first of its
    sender's txs at or above its nonce, and that tx remains.

    * Only a sender's buildable run is kept: ``c <= tx.nonce <
      chain.run_end(c)``, where ``c`` is its confirmed nonce. Every other
      tx would be a nonce-gap skip in every block.
    * ``start`` moves past the leading included txs, whose nonces are now
      below their senders' confirmed nonces, so no later block walks them.
    * A block stops once the lightest ``gas_used`` among the buildable txs
      not yet included no longer fits in the gas left; they are sorted by
      gas once, and ``light`` moves past the included ones. ``_fill`` reads
      it at the start of a block and after each gas-overflow skip.
    """
    nonce_of = world.nonce_of
    accounts = world.accounts
    runs: Dict[str, Tuple[int, int]] = {}  # sender -> its buildable nonces [c, end)
    order: List[Transaction] = []
    for tx in candidate_order(pool):
        run = runs.get(tx.sender)
        if run is None:
            confirmed = nonce_of(tx.sender)
            run = runs[tx.sender] = (confirmed, pool.chain(tx.sender).run_end(confirmed))
        if run[0] <= tx.nonce < run[1]:
            order.append(tx)
    by_gas = sorted(order, key=attrgetter("gas_used"))
    light = 0

    def lightest() -> int:
        nonlocal light
        # an included tx's sender has an account, whose nonce is now above it
        while light < len(by_gas):
            tx = by_gas[light]
            acct = accounts.get(tx.sender)
            if acct is None or tx.nonce >= acct.nonce:
                break
            light += 1
        # with nothing left to include, past the limit: every block is full
        return by_gas[light].gas_used if light < len(by_gas) else world.block_gas_limit + 1

    blocks: List[Block] = []
    start = 0
    while True:
        while start < len(order):
            tx = order[start]
            acct = accounts.get(tx.sender)
            if acct is None or tx.nonce >= acct.nonce:
                break
            start += 1
        # indexed from start: islice would walk the included prefix again
        rest = map(order.__getitem__, range(start, len(order)))
        block = _fill(rest, world, [], lightest=lightest)
        if not block.txs:
            break
        blocks.append(block)
    taken = {tx for block in blocks for tx in block.txs}
    return blocks, [tx for tx in pool.pop_all() if tx not in taken]
