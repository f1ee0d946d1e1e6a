"""Domain types shared by the whole simulator.

All monetary and gas quantities are plain Python integers (wei / gas units).
No floating point is used anywhere in admission logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

MIN_TX_GAS = 21_000
DEFAULT_BLOCK_GAS_LIMIT = 30_000_000
_INT_FIELDS = ("nonce", "price", "gas_used", "gas_limit", "value")
# Ethereum's uint256 range: every integer field is below this
_UINT256 = 2**256


@dataclass(frozen=True, slots=True, eq=False)
class Transaction:
    """One transaction: the unit of admission.

    ``label`` is a metrics-only tag ({"benign", "adversarial"}) and must never
    influence admission or block-building decisions. ``fee`` (gas_used *
    price, the chargeable fee) and ``cost`` (gas_limit * price + value, the
    worst-case balance reservation) are computed once, after the range check;
    they cannot be passed in and take no part in repr.

    Transactions compare and hash by identity: a copy with equal fields is a
    distinct transaction, and the pool and the report key txs by the object.
    """

    sender: str
    nonce: int
    price: int
    gas_used: int = MIN_TX_GAS
    gas_limit: int = 0
    value: int = 0
    label: str = "benign"
    fee: int = field(init=False, repr=False, compare=False)
    cost: int = field(init=False, repr=False, compare=False)

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
        # one chained test on the common path; _range_error names the field
        if not (
            0 <= self.nonce < _UINT256
            and 0 < self.price < _UINT256
            and MIN_TX_GAS <= self.gas_used <= self.gas_limit < _UINT256
            and 0 <= self.value < _UINT256
        ):
            raise self._range_error()
        _set_fee(self, self.gas_used * self.price)
        _set_cost(self, self.gas_limit * self.price + self.value)

    def _range_error(self) -> ValueError:
        for name, low, rule in (
            ("nonce", 0, "non-negative"),
            ("price", 1, "positive"),
            ("gas_used", MIN_TX_GAS, f">= {MIN_TX_GAS}"),
            ("gas_limit", MIN_TX_GAS, f">= {MIN_TX_GAS}"),
            ("value", 0, "non-negative"),
        ):
            value = getattr(self, name)
            if not low <= value < _UINT256:
                # a value past the range may have more digits than str() takes
                bits = value.bit_length()
                shown = value if bits <= 256 else f"a {bits}-bit integer"
                return ValueError(f"{name} must be {rule} and below 2**256, got {shown}")
        return ValueError("gas_used exceeds gas_limit")

    def __repr__(self) -> str:
        return f"<{self.sender}:{self.nonce} @{self.price}>"


# the slots' own setters: like object.__setattr__ they get past the frozen
# __setattr__, in about half its time, on every Transaction built
_set_fee = Transaction.fee.__set__
_set_cost = Transaction.cost.__set__


@dataclass(slots=True)
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
    def revenue(self) -> int:
        return sum(tx.fee for tx in self.txs)
