"""Domain types shared by the whole simulator.

All monetary and gas quantities are plain Python integers (wei / gas units).
No floating point is used anywhere in admission logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

MIN_TX_GAS = 21_000
DEFAULT_BLOCK_GAS_LIMIT = 30_000_000
_INT_FIELDS = ("nonce", "price", "gas_used", "gas_limit", "value")

_id_counter = itertools.count(1)


@dataclass(frozen=True)
class Transaction:
    """One transaction: the unit of admission.

    ``label`` is a metrics-only tag ({"benign", "adversarial"}) and must never
    influence admission or block-building decisions.
    """

    sender: str
    nonce: int
    price: int
    gas_used: int = MIN_TX_GAS
    gas_limit: int = 0
    value: int = 0
    label: str = "benign"
    id: int = field(default_factory=lambda: next(_id_counter))

    def __post_init__(self) -> None:
        # exact types, before the ranges: bool is an int subclass, and a float
        # or a non-string sender would break integer wei and the report encoding
        if not (
            type(self.nonce) is type(self.price) is type(self.gas_used)
            is type(self.gas_limit) is type(self.value) is int
        ):
            name = next(n for n in _INT_FIELDS if type(getattr(self, n)) is not int)
            raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if type(self.sender) is not str:
            raise ValueError(f"sender must be a string, got {self.sender!r}")
        if self.gas_limit == 0:
            object.__setattr__(self, "gas_limit", self.gas_used)
        if self.nonce < 0:
            raise ValueError(f"nonce must be non-negative, got {self.nonce}")
        if self.price <= 0:
            raise ValueError(f"price must be positive, got {self.price}")
        if self.gas_used < MIN_TX_GAS:
            raise ValueError(f"gas_used must be >= {MIN_TX_GAS}, got {self.gas_used}")
        if self.gas_used > self.gas_limit:
            raise ValueError("gas_used exceeds gas_limit")
        if self.value < 0:
            raise ValueError("value must be non-negative")

    @property
    def fee(self) -> int:
        """Chargeable fee: gas consumed times unit price."""
        return self.gas_used * self.price

    @property
    def cost(self) -> int:
        """Worst-case balance reservation: gas_limit * price + value."""
        return self.gas_limit * self.price + self.value

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self.id == other.id

    def __repr__(self) -> str:
        return f"<{self.sender}:{self.nonce} @{self.price}>"


@dataclass
class AccountState:
    balance: int = 0
    nonce: int = 0


@dataclass
class WorldState:
    """Per-account balance and confirmed nonce; ground truth for prechecks."""

    accounts: Dict[str, AccountState] = field(default_factory=dict)
    block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT

    def account(self, sender: str) -> AccountState:
        acct = self.accounts.get(sender)
        if acct is None:
            acct = AccountState()
            self.accounts[sender] = acct
        return acct

    def nonce_of(self, sender: str) -> int:
        acct = self.accounts.get(sender)
        return acct.nonce if acct else 0

    def balance_of(self, sender: str) -> int:
        acct = self.accounts.get(sender)
        return acct.balance if acct else 0

    def fund(self, sender: str, balance: int, nonce: int = 0) -> None:
        self.accounts[sender] = AccountState(balance=balance, nonce=nonce)

    def clone(self) -> "WorldState":
        return WorldState(
            accounts={s: AccountState(a.balance, a.nonce) for s, a in self.accounts.items()},
            block_gas_limit=self.block_gas_limit,
        )


class PoolError(Exception):
    """An engine invariant broke: the pool or a report is inconsistent."""


class OutcomeKind(Enum):
    DECLINED = "declined"
    ADMITTED_NO_EVICT = "admitted-no-evict"
    ADMITTED_EVICTING = "admitted-evicting"


class Reason(Enum):
    INVALID_FUTURE = "invalid-future"
    INVALID_OVERDRAFT = "invalid-overdraft"
    STALE = "stale"
    DUPLICATE = "duplicate"
    SENDER_LIMIT = "sender-limit"
    PRICE_TOO_LOW = "price-too-low"
    FEE_TOO_LOW = "fee-too-low"
    SELF_EVICTION = "self-eviction"
    POOL_NOT_FULL = "pool-not-full"
    EVICTION = "eviction"
    UNBUILDABLE = "unbuildable"


@dataclass(frozen=True)
class AdmissionOutcome:
    """One admission decision: what a policy's ``decide`` returns and what
    ``Mempool.admit`` applies, returns and a replay reports."""

    kind: OutcomeKind
    reason: Reason
    tx: Transaction
    victims: Tuple[Transaction, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.ADMITTED_EVICTING and not self.victims:
            raise PoolError("eviction outcome needs at least one victim")

    @property
    def admitted(self) -> bool:
        return self.kind is not OutcomeKind.DECLINED


@dataclass
class Block:
    txs: List[Transaction] = field(default_factory=list)

    @property
    def gas_total(self) -> int:
        return sum(tx.gas_used for tx in self.txs)

    @property
    def revenue(self) -> int:
        return sum(tx.fee for tx in self.txs)
