from __future__ import annotations

import os
import random
import tempfile
from typing import List, Optional, Tuple

from mempoolsim import (
    AccountState,
    Mempool,
    PolicyConfig,
    TraceEvent,
    Transaction,
    WorldState,
    parse_trace,
)

WEI = 10**18

# ------------------------------------------------- acceptance reporting

ACCEPTANCE_RESULTS: List[Tuple[int, bool, str]] = []


def record_criterion(number: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:>2}: {status}  {detail}")


def tx(sender: str, nonce: int, price: int, gas: int = 21_000, **kw) -> Transaction:
    return Transaction(sender=sender, nonce=nonce, price=price, gas_used=gas, **kw)


def parse_text(text: str) -> List[TraceEvent]:
    """``parse_trace`` of a file that holds ``text`` as UTF-8, written with
    no newline translation, so the file holds each line break as is."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return parse_trace(path)


def fund(world: WorldState, sender: str, balance: int, nonce: int = 0) -> None:
    """Give ``sender`` a fresh account in ``world``."""
    world.accounts[sender] = AccountState(balance, nonce)


def rich_world(*senders: str, balance: int = WEI) -> WorldState:
    world = WorldState()
    for s in senders:
        fund(world, s, balance)
    return world


def fill_pool(
    pool: Mempool,
    world: WorldState,
    txs: List[Transaction],
    policy_kind: str = "cp",
) -> Mempool:
    policy = PolicyConfig(kind=policy_kind).build()
    for t in txs:
        if t.sender not in world.accounts:
            fund(world, t.sender, WEI)
        outcome = pool.admit(t, world, policy)
        assert outcome.admitted, f"setup admission failed: {outcome}"
    return pool


def mdf(pool: Mempool) -> int:
    """Minimum fee among pending transactions; errors on an empty pool."""
    seed = pool.min_fee_tx()
    if seed is None:
        raise ValueError("mdf undefined on empty pool")
    return seed.fee


# ---------------------------------------------------------------- oracles
# linear-scan reference implementations, deliberately independent of the
# pool's index bookkeeping


def oracle_childless(txs: List[Transaction]) -> List[Transaction]:
    out = []
    for t in txs:
        if not any(u.sender == t.sender and u.nonce > t.nonce for u in txs):
            out.append(t)
    return out


def oracle_min_fee(txs: List[Transaction]) -> Optional[Transaction]:
    return min(txs, key=lambda t: t.fee) if txs else None


def oracle_descendant(txs: List[Transaction], seed: Transaction) -> Transaction:
    return max((t for t in txs if t.sender == seed.sender), key=lambda t: t.nonce)


def random_pool_txs(
    rng: random.Random,
    n_senders: int,
    max_chain: int,
    price_range: Tuple[int, int] = (1, 10_000),
) -> List[Transaction]:
    txs = []
    for s in range(n_senders):
        chain_len = rng.randint(1, max_chain)
        for nonce in range(chain_len):
            txs.append(
                tx(
                    f"s{s}",
                    nonce,
                    rng.randint(*price_range),
                    gas=rng.choice((21_000, 40_000, 90_000)),
                )
            )
    return txs
