"""Domain types shared by the whole simulator.

All monetary and gas quantities are plain Python integers (wei / gas units).
No floating point is used anywhere in admission logic.
"""

from __future__ import annotations

import gc
import reprlib
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

MIN_TX_GAS = 21_000
DEFAULT_BLOCK_GAS_LIMIT = 30_000_000
_INT_FIELDS = ("nonce", "price", "gas_used", "gas_limit", "value")
# Ethereum's uint256 range: every integer field is below this
_UINT256 = 2**256
# a tx's label, its trace line's source
_LABELS = _BENIGN, _ADVERSARIAL = ("benign", "adversarial")

# reprlib reads only the first few items of a container and levels of a
# nesting, so echoing a huge value costs little
_SHORT = reprlib.Repr()
_SHORT.maxstring = _SHORT.maxother = _SHORT.maxlong = 60
_SHORT.maxlevel = 3
_SHORT_MAX = 100


def short_repr(value) -> str:
    """``repr(value)`` for an error message, at most ``_SHORT_MAX`` characters.

    A scalar, a string whose repr fits in 60 characters or a small, shallow
    container prints as ``repr`` prints it; a longer string, a larger or
    deeper container, or a long result is cut and marked with ``...``.
    """
    shown = _SHORT.repr(value)
    return shown if len(shown) <= _SHORT_MAX else shown[: _SHORT_MAX - 3] + "..."


def check_positive_int(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an exact positive int: a
    bool, a float or a number below 1 is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {short_repr(value)}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {short_repr(value)}")


def check_uint256(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an exact int in ``[0, 2**256)``:
    a bool, a float or a number out of that range is refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {short_repr(value)}")
    if not 0 <= value < _UINT256:
        raise ValueError(f"{name} must be non-negative and below 2**256, got {short_repr(value)}")


def check_account_seed(sender, seed) -> None:
    """Raise ``ValueError`` unless ``sender`` is an exact ``str`` and ``seed``
    a ``(balance, nonce)`` pair, a tuple or a list, of exact ints in
    ``[0, 2**256)``. A message is built only when its check fails: a valid
    seed costs one chained test."""
    if (
        type(sender) is str
        and isinstance(seed, (tuple, list))
        and len(seed) == 2
        and type(seed[0]) is type(seed[1]) is int
        and 0 <= seed[0] < _UINT256
        and 0 <= seed[1] < _UINT256
    ):
        return
    if type(sender) is not str:
        raise ValueError(f"account seed sender must be a string, got {short_repr(sender)}")
    if not isinstance(seed, (tuple, list)) or len(seed) != 2:
        raise ValueError(
            f"account seed of {short_repr(sender)} must be a (balance, nonce) pair, "
            f"got {short_repr(seed)}"
        )
    check_uint256(f"seeded balance of {short_repr(sender)}", seed[0])
    check_uint256(f"seeded nonce of {short_repr(sender)}", seed[1])


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore the
    caller's state, also when the block raises; a collector that was off
    stays off.

    For the set-up layers that allocate many objects but no cycles (a
    trace's parse and its world): with the collector on, each burst of
    allocations would start a collection that walks every object made so
    far and frees nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _refuse_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_slots(cls: type) -> type:
    """Make a frozen slots dataclass refuse every assignment and deletion of
    an attribute with ``FrozenInstanceError``, as Python 3.12 and later do.

    On 3.10 and 3.11 the generated ``__setattr__`` and ``__delattr__`` pass a
    name that is not a field to ``super()`` with the class that
    ``slots=True`` replaced, which raises a misleading ``TypeError``.
    Construction does not go through them: a hand-written constructor sets
    each slot through its descriptor, and a generated one through
    ``object.__setattr__``.
    """
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


# The per-event objects are built by hand. A frozen dataclass's generated
# __init__ sets each field through object.__setattr__, a generic path; the
# hand-written constructors below run the same checks, then set each slot
# through its own descriptor setter, which skips that path. The signature,
# the fields and the error messages stay the dataclass's (tests/test_core.py
# pins them), and dataclasses.replace goes through the same checks.


class _ReportJsonSlot:
    """The slot that holds a tx's report fragment, the one definition of its
    format: ``[sender,nonce,price,gas_used,gas_limit,value]`` with no
    spaces, the sender as ``json.encoder.encode_basestring_ascii`` writes
    it and each int in decimal, as ``str`` writes it.

    Two writers fill it, each through the slot's descriptor
    (``_set_report_json``): the trace parser, for an arrival line it reads
    through its pattern, from the line's own texts, and
    ``RunReport.report_hash``, through ``replay._cache_report_json``, for
    every other tx it names, on its first hash. The fragment depends only on
    the tx's frozen fields, so it cannot go stale, and every report of a
    trace reads what was written first. A base class's slot, not a dataclass
    field: the signature, the fields, ``replace`` and ``repr`` do not see
    it, and construction stores nothing.
    """

    __slots__ = ("_report_json",)


@frozen_slots
@dataclass(frozen=True, slots=True, eq=False, init=False)
class Transaction(_ReportJsonSlot):
    """One transaction: the unit of admission.

    ``label`` is a metrics-only tag, one of ``_LABELS`` ("benign",
    "adversarial"), and must never influence admission or block-building
    decisions. ``fee`` (gas_used * price, the chargeable fee) and ``cost``
    (gas_limit * price + value, the worst-case balance reservation) are
    computed once, after the range check; they cannot be passed in and take
    no part in repr.

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

    def __init__(self, sender: str, nonce: int, price: int, gas_used: int = MIN_TX_GAS,
                 gas_limit: int = 0, value: int = 0, label: str = "benign") -> None:
        # exact types, before the ranges: bool is an int subclass, and a float
        # or a non-string sender would break integer wei and the report encoding
        if not (
            type(nonce) is type(price) is type(gas_used) is type(gas_limit) is type(value) is int
        ):
            given = dict(zip(_INT_FIELDS, (nonce, price, gas_used, gas_limit, value)))
            name = next(n for n, v in given.items() if type(v) is not int)
            raise ValueError(f"{name} must be an integer, got {short_repr(given[name])}")
        if type(sender) is not str:
            raise ValueError(f"sender must be a string, got {short_repr(sender)}")
        # the gas_used object stands for an equal gas_limit, so a parsed
        # trace holds one int for both
        if gas_limit == 0 or gas_limit == gas_used:
            gas_limit = gas_used
        # one chained test on the common path; _range_error names the field
        if not (
            0 <= nonce < _UINT256
            and 0 < price < _UINT256
            and MIN_TX_GAS <= gas_used <= gas_limit < _UINT256
            and 0 <= value < _UINT256
        ):
            raise _range_error(nonce, price, gas_used, gas_limit, value)
        # identity first: the default and the parser's labels are _LABELS's strings
        if label is not _BENIGN and label is not _ADVERSARIAL and label not in _LABELS:
            raise ValueError(f"label must be one of {_LABELS}, got {short_repr(label)}")
        _set_sender(self, sender)
        _set_nonce(self, nonce)
        _set_price(self, price)
        _set_gas_used(self, gas_used)
        _set_gas_limit(self, gas_limit)
        _set_value(self, value)
        _set_label(self, label)
        fee = gas_used * price
        _set_fee(self, fee)
        # an equal cost shares fee's object
        _set_cost(self, fee if value == 0 and gas_limit is gas_used else gas_limit * price + value)

    def __repr__(self) -> str:
        return f"<{self.sender}:{self.nonce} @{self.price}>"


def _range_error(*values: int) -> ValueError:
    """The error for the first of ``Transaction``'s int fields, in
    ``_INT_FIELDS`` order, that is out of range."""
    for (name, low, rule), value in zip((
        ("nonce", 0, "non-negative"),
        ("price", 1, "positive"),
        ("gas_used", MIN_TX_GAS, f">= {MIN_TX_GAS}"),
        ("gas_limit", MIN_TX_GAS, f">= {MIN_TX_GAS}"),
        ("value", 0, "non-negative"),
    ), values):
        if not low <= value < _UINT256:
            # a value past the range may have more digits than str() takes
            bits = value.bit_length()
            shown = value if bits <= 256 else f"a {bits}-bit integer"
            return ValueError(f"{name} must be {rule} and below 2**256, got {shown}")
    return ValueError("gas_used exceeds gas_limit")


_set_sender = Transaction.sender.__set__
_set_nonce = Transaction.nonce.__set__
_set_price = Transaction.price.__set__
_set_gas_used = Transaction.gas_used.__set__
_set_gas_limit = Transaction.gas_limit.__set__
_set_value = Transaction.value.__set__
_set_label = Transaction.label.__set__
_set_fee = Transaction.fee.__set__
_set_cost = Transaction.cost.__set__
_set_report_json = Transaction._report_json.__set__
_fee = attrgetter("fee")


@dataclass(slots=True)
class AccountState:
    balance: int = 0
    nonce: int = 0


@dataclass
class WorldState:
    """Per-account balance and confirmed nonce; ground truth for prechecks."""

    accounts: Dict[str, AccountState] = field(default_factory=dict)
    block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT

    def nonce_of(self, sender: str) -> int:
        acct = self.accounts.get(sender)
        return acct.nonce if acct else 0

    def clone(self) -> "WorldState":
        return WorldState(
            accounts={s: AccountState(a.balance, a.nonce) for s, a in self.accounts.items()},
            block_gas_limit=self.block_gas_limit,
        )


class PoolError(Exception):
    """An engine invariant broke: the pool or a report is inconsistent."""


# The enums hash by identity: Enum.__hash__ is a Python function (it hashes
# the member's name), and the replay hashes a member several times per event
# (the summary's Counter, the report's labels, the ledger's classes). Members
# are singletons and compare by identity, so object.__hash__, which runs in
# C, agrees with that equality.
#
# The per-event path (the policies' decide, the pool's precheck and admit,
# AdmissionOutcome, classify_outcome, the replay and the report's declined
# ledger) reads members bound once at import, as private module constants
# such as _EVICTION, not ``Reason.EVICTION``. On Python 3.10 and 3.11 EnumType
# defines __getattr__, so every ``Reason.X`` is a slow-path lookup that the
# interpreter cannot specialise (about 130 ns, against 10 ns for a module
# global); a replay makes several per arrival. Python 3.12 dropped
# EnumType.__getattr__, and there the constants are neutral.
# tests/test_hot_path.py fails if one of those functions loads an enum class.


class Reason(Enum):
    __hash__ = object.__hash__

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


@frozen_slots
@dataclass(frozen=True, slots=True, init=False)
class AdmissionOutcome:
    """One admission decision, built by ``Mempool.admit`` or a policy's
    ``decide``: what ``admit`` applies and returns and a replay reports.

    ``reason`` alone fixes what happened: ``POOL_NOT_FULL`` admits into a
    free slot, ``EVICTION`` admits by evicting ``victim``, and every other
    reason declines. Only an eviction names a victim, and it names
    exactly one: every policy evicts at most one tx. The arrival is not
    named (a report keeps it in ``arrivals``), so every other reason has
    one outcome, ``_OUTCOMES[reason]``, shared by every arrival."""

    reason: Reason
    victim: Optional[Transaction] = None

    def __init__(self, reason: Reason, victim: Optional[Transaction] = None) -> None:
        if (reason is _EVICTION) != (victim is not None):
            if victim is not None:
                raise PoolError(f"{reason.value} outcome cannot name a victim")
            raise PoolError("eviction outcome needs a victim")
        _set_reason(self, reason)
        _set_victim(self, victim)

    @property
    def admitted(self) -> bool:
        return self.reason in _ADMITTING

    @property
    def victims(self) -> Tuple[Transaction, ...]:
        """``()`` or ``(victim,)``: a read-only view for callers that count
        victims."""
        return () if self.victim is None else (self.victim,)


_set_reason = AdmissionOutcome.reason.__set__
_set_victim = AdmissionOutcome.victim.__set__
_EVICTION = Reason.EVICTION
# the two reasons that admit; every other declines. The per-arrival paths
# (``replay``, ``Mempool.admit``) test ``reason in _ADMITTING`` themselves,
# at about half the cost of the ``admitted`` property call
_ADMITTING = frozenset((Reason.POOL_NOT_FULL, _EVICTION))
# each reason but EVICTION -> its one outcome, shared by every arrival
_OUTCOMES = {reason: AdmissionOutcome(reason) for reason in Reason if reason is not _EVICTION}


@dataclass
class Block:
    txs: List[Transaction] = field(default_factory=list)

    @property
    def revenue(self) -> int:
        return sum(map(_fee, self.txs))
