"""Deterministic trace replay: feeds events through pool admission, builds
blocks on triggers (or at end-of-trace), and records what it observed; the
report derives its metrics from those records when read.

The same (config, events) pair always produces a byte-identical report;
``RunReport.report_hash()``, the sha256 of the report's canonical JSON
(docs/format.md), checks that.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .builder import build_block, drain
from .core import (
    _ADMITTING,
    DEFAULT_BLOCK_GAS_LIMIT,
    AdmissionOutcome,
    Block,
    PoolError,
    Reason,
    Transaction,
    WorldState,
    _set_report_json,
    check_account_seed,
    check_positive_int,
    frozen_slots,
)
from .metrics import OutcomeClass, OutcomeFlags, UtilEntry, UtilLedger, classify_outcome
from .policies import PolicyConfig
from .pool import Mempool
from .trace import TraceEvent, world_for_trace

# report entries per sha256 update in report_hash: bounds the text alive at once
_HASH_BATCH = 2048
# the pool calls of a report's walk (``_walk``), bound at import: a read of
# the report is no replay, so a profiler that wraps ``Mempool``'s methods to
# time a replay's layers (perfbench's traced run) must not count it
_apply_admission = Mempool.apply_admission
_remove_included = Mempool.remove_included


class ReplayAbort(Exception):
    """An engine invariant broke mid-replay; carries the offending event index."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"replay aborted at event {index}: {cause}")


@dataclass(frozen=True)
class ScenarioConfig:
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    capacity: int = 5120
    per_sender_limit: Optional[int] = None  # txs one sender may hold in the pool
    block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    # sender -> (balance, confirmed nonce), kept as a read-only copy of
    # tuples, so a caller's later change to a list seed does not reach it; a
    # read-only mapping is not hashable, so neither is the config
    account_seeds: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    drain_mode: str = "end_only"  # or "interleaved"
    final_drain: bool = True

    def __post_init__(self) -> None:
        check_positive_int("capacity", self.capacity)
        if self.per_sender_limit is not None:
            check_positive_int("per-sender limit", self.per_sender_limit)
        check_positive_int("block_gas_limit", self.block_gas_limit)
        if self.drain_mode not in ("end_only", "interleaved"):
            raise ValueError(f"unknown drain mode: {self.drain_mode}")
        seeds = dict(self.account_seeds)
        for sender, seed in seeds.items():
            # the world takes a seed's ints as they are: exact ints keep its
            # wei arithmetic integer, as a parsed trace's are
            check_account_seed(sender, seed)
            seeds[sender] = tuple(seed)
        object.__setattr__(self, "account_seeds", MappingProxyType(seeds))


_fee = attrgetter("fee")
_price = attrgetter("price")
_revenue = attrgetter("revenue")
_reason = attrgetter("reason")
# bound once: see the note above core's enums
_UNBUILDABLE_CLASS = OutcomeClass.UNBUILDABLE
_POOL_NOT_FULL = Reason.POOL_NOT_FULL
_EVICTION = Reason.EVICTION
_UNBUILDABLE = Reason.UNBUILDABLE


# each reason's JSON label, and the head of an outcome entry with it: a
# reason fixes its outcome's kind, so it fixes the entry's head
_HASH_LABELS = {reason: encode_basestring_ascii(reason.value) for reason in Reason}
_HASH_KINDS = {_POOL_NOT_FULL: "admitted-no-evict", _EVICTION: "admitted-evicting"}
_HASH_HEADS = {
    reason: f"[{encode_basestring_ascii(_HASH_KINDS.get(reason, 'declined'))},{label},"
    for reason, label in _HASH_LABELS.items()
}

_report_json = attrgetter("_report_json")


def _cache_report_json(txs: List[Transaction]) -> None:
    """Give each of ``txs`` its report fragment (``core._ReportJsonSlot``
    defines it): a parsed trace's arrivals hold theirs from the parse, and a
    generated or hand-built tx gets its own here, on its first hash.

    One C-level read checks that all have it. On a miss, a list whose first
    tx has none is encoded whole, as a trace's first report is, with no call
    per tx; a tx that already had one gets an equal string. Else the txs
    without one are picked one by one.
    The fields are exact ints, for which ``str`` writes what json writes.
    """
    try:
        deque(map(_report_json, txs), 0)
        return
    except AttributeError:
        pass
    if hasattr(txs[0], "_report_json"):
        txs = [tx for tx in txs if not hasattr(tx, "_report_json")]
    enc = encode_basestring_ascii
    fragments = [
        f"[{enc(tx.sender)},{tx.nonce},{tx.price},{tx.gas_used},{tx.gas_limit},{tx.value}]"
        for tx in txs
    ]
    deque(map(_set_report_json, txs, fragments), 0)


@frozen_slots
@dataclass(frozen=True, slots=True)
class Snapshot:
    """Where a snapshot was taken: at event ``event_index``, time ``ts_ms``,
    after the report's first ``outcomes`` outcomes and ``blocks`` blocks.
    Its event index is what places it, and the arrivals after it, in the
    report's walk (``_walk``), which ``RunReport.pending_sets`` reads its
    pending set from."""

    event_index: int
    ts_ms: int
    outcomes: int
    blocks: int


@dataclass
class RunReport:
    """What one replay observed, one record per fact.

    ``outcomes`` holds one admission outcome per arrival and ``arrivals``
    the arrivals' txs, side by side in trace order, ``blocks`` the
    blocks built, ``snapshots`` where each snapshot marker and the end of the
    trace fell among the outcomes and blocks, ``triggers`` the event index
    of each block trigger, ``interleaved`` whether each trigger built a
    block (``blocks[i]`` at ``triggers[i]``) or none, ``price_sum_series``
    the pool's price sum after each arrival, ``unbuildable`` the final
    drain's leftovers and ``final_pending`` the pending set after the run.
    ``declined``, the fee totals, the dUtil ledger (``util``), the
    admissions that flipped a resident's future status (``flags``) and the
    snapshots' pending sets (``pending_sets``) are derived from these
    records when read; the replay books none of them. The last three come
    from one walk that replays the records through a fresh pool
    (``_walk``).
    """

    policy: str
    capacity: int
    event_count: int = 0
    outcomes: List[AdmissionOutcome] = field(default_factory=list)
    arrivals: List[Transaction] = field(default_factory=list)
    blocks: List[Block] = field(default_factory=list)
    snapshots: List[Snapshot] = field(default_factory=list)
    triggers: List[int] = field(default_factory=list)
    interleaved: bool = False
    price_sum_series: List[int] = field(default_factory=list)
    unbuildable: List[Transaction] = field(default_factory=list)
    final_pending: List[Transaction] = field(default_factory=list)

    def _ledger(self) -> Tuple[List[Transaction], List[Reason]]:
        """``declined`` as its txs and its reasons: two lists that make no
        object per entry for the garbage collector to count; ``ValueError``
        unless the report has one outcome per arrival."""
        pairs = zip(self.outcomes, self.arrivals, strict=True)
        txs = [o.victim or tx for o, tx in pairs if o.reason is not _POOL_NOT_FULL]
        reasons = [r for r in map(_reason, self.outcomes) if r is not _POOL_NOT_FULL]
        return txs + self.unbuildable, reasons + [_UNBUILDABLE] * len(self.unbuildable)

    @property
    def declined(self) -> List[Tuple[Transaction, Reason]]:
        """The run's declined ledger: per outcome, nothing for a free-slot
        admission, ``(victim, EVICTION)`` for an eviction and ``(tx, reason)``
        for a decline; then ``(tx, UNBUILDABLE)`` per final-drain leftover."""
        return list(zip(*self._ledger()))

    @property
    def util(self) -> UtilLedger:
        """The run's dUtil ledger, a fresh copy per read. Each outcome adds
        to its class's entry: an admission its fee less its victim's inside
        and its victim's fee outside, a decline its fee outside. The final
        drain's leftovers make one UNBUILDABLE entry, their fees both taken
        from inside and counted outside. A flagged admission's dUtil is
        added again under each flag it sets (``_walk``). ``ValueError``
        unless the report has one outcome per arrival, and for a report that
        no replay could make (``_walk``)."""
        per_class: Dict[OutcomeClass, UtilEntry] = {}
        for o, tx in zip(self.outcomes, self.arrivals, strict=True):
            outcome_class = classify_outcome(o, tx)
            entry = per_class.get(outcome_class)
            if entry is None:
                entry = per_class[outcome_class] = UtilEntry()
            if o.reason in _ADMITTING:
                evicted = 0 if o.victim is None else o.victim.fee
                entry.add(tx.fee - evicted, evicted)
            else:
                entry.add(0, tx.fee)
        if self.unbuildable:
            fees = sum(map(_fee, self.unbuildable))
            per_class[_UNBUILDABLE_CLASS] = UtilEntry(-fees, fees, len(self.unbuildable))
        return UtilLedger(per_class, _walk(self, ())[1])

    @property
    def flags(self) -> List[Tuple[int, OutcomeFlags]]:
        """``(event index, flags)`` per admission that turned a resident
        future to pending or pending to future, in trace order, derived per
        read (``_walk``); ``ValueError`` for a report that no replay could
        make."""
        return _walk(self, ())[0]

    @property
    def pool_fees_final(self) -> int:
        return sum(map(_fee, self.final_pending))

    @property
    def block_fees_final(self) -> int:
        return sum(map(_revenue, self.blocks))

    @property
    def declined_fees_final(self) -> int:
        return sum(map(_fee, self._ledger()[0]))

    def pending_sets(
        self, snapshots: Optional[Sequence[Snapshot]] = None
    ) -> List[List[Transaction]]:
        """The pending set when each of ``snapshots`` (default: the
        report's own, which are in report order, as given ones must be) was
        taken, oldest first, as the pool's ``pending()`` listed it then: the
        walk's pool (``_walk``) at the snapshot's event index. ``ValueError``
        for a snapshot that is not one of the report's, in order, and for a
        report that no replay could make."""
        return _walk(self, snapshots)[2]

    def pending_at(self, snapshot: Snapshot) -> List[Transaction]:
        """The pending set when ``snapshot`` was taken (``pending_sets``)."""
        return self.pending_sets([snapshot])[0]

    def included_txs(self) -> List[Transaction]:
        return [tx for block in self.blocks for tx in block.txs]

    def summary(self) -> Dict:
        return self._summary(self._ledger()[0])

    def _summary(self, declined: List[Transaction]) -> Dict:
        """``summary()`` from the declined ledger's txs: the hash derives the
        ledger once for both. ``reasons`` counts the outcomes' reasons."""
        counts = Counter(map(_reason, self.outcomes))
        declined_fees = sum(map(_fee, declined))
        return {
            "policy": self.policy,
            "capacity": self.capacity,
            "events": self.event_count,
            "reasons": dict(sorted((r.value, n) for r, n in counts.items())),
            "blocks": len(self.blocks),
            "block_fees": self.block_fees_final,
            "pool_fees": self.pool_fees_final,
            "declined_fees": declined_fees,
            # ``util.total.dutil`` in two C-level sums: each arrival's fee
            # counts once, and each fee in the declined ledger is taken back
            # and counted as lost
            "dutil_total": sum(map(_fee, self.arrivals)) - 2 * declined_fees,
            "pending": len(self.final_pending),
        }

    def report_hash(self) -> str:
        """sha256 of the report's canonical JSON, as docs/format.md defines it.

        The hashed bytes are the compact, sorted-key, ASCII-escaped JSON of
        ``{blocks, declined, outcomes, price_sums, summary}``, each tx as
        ``[sender, nonce, price, gas_used, gas_limit, value]``: what
        ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` writes for
        that object. They are written directly instead, each tx's fragment
        read from its cache (``_cache_report_json``), so a trace's txs are
        encoded once for all its reports, and fed to the hash a batch of
        ``_HASH_BATCH`` entries at a time, so no string of the whole report
        is built.

        Every report of a trace after its first finds each tx's fragment
        cached, and is encoded in one pass per section. On the first tx
        without one, the partial digest is dropped, every tx the report
        names is given its fragment, and the report is encoded afresh.
        """
        declined, reasons = self._ledger()
        try:
            return self._digest(declined, reasons)
        except AttributeError:
            pass
        # every tx a replay's report names is an arrival, so the second fill
        # only reads the cache; it fills a tx only a hand-built report names
        _cache_report_json(self.arrivals)
        _cache_report_json(declined + self.included_txs())
        return self._digest(declined, reasons)

    def _digest(self, declined: List[Transaction], reasons: List[Reason]) -> str:
        """``report_hash()`` of a report whose txs all hold their fragment;
        ``AttributeError`` at the first that does not."""
        def outcomes_json(batch: range) -> str:
            outcomes = self.outcomes[batch.start : batch.stop]
            arrivals = self.arrivals[batch.start : batch.stop]
            return ",".join([
                f"{_HASH_HEADS[o.reason]}{tx._report_json},"
                f"[{'' if o.victim is None else o.victim._report_json}]]"
                for o, tx in zip(outcomes, arrivals, strict=True)
            ])

        compact = (",", ":")
        digest = hashlib.sha256()
        update = digest.update

        def section(head: bytes, items: Sequence, batch_json) -> None:
            # ``head``, then the items' JSON, comma-separated, a batch per update
            update(head)
            for i in range(0, len(items), _HASH_BATCH):
                if i:
                    update(b",")
                update(batch_json(items[i : i + _HASH_BATCH]).encode("utf-8"))

        section(
            b'{"blocks":[',
            self.blocks,
            lambda batch: ",".join([f"[{','.join(map(_report_json, b.txs))}]" for b in batch]),
        )
        section(
            b'],"declined":[',
            range(len(declined)),
            lambda batch: ",".join(
                [f"[{declined[i]._report_json},{_HASH_LABELS[reasons[i]]}]" for i in batch]
            ),
        )
        section(b'],"outcomes":[', range(len(self.outcomes)), outcomes_json)
        # a slice's JSON array without its brackets: exactly json's own items
        section(
            b'],"price_sums":[',
            self.price_sum_series,
            lambda batch: json.dumps(batch, separators=compact)[1:-1],
        )
        summary = json.dumps(self._summary(declined), sort_keys=True, separators=compact)
        update(f'],"summary":{summary}}}'.encode("utf-8"))
        return digest.hexdigest()


def _walk(
    report: RunReport, snapshots: Optional[Sequence[Snapshot]] = None
) -> Tuple[List[Tuple[int, OutcomeFlags]], Dict[str, UtilEntry], List[List[Transaction]]]:
    """``report.flags``, ``report.util.flagged`` and the pending set at each
    of ``snapshots`` (default: the report's own), from one replay of the
    report's records through a fresh ``Mempool``; no world is needed.

    Arrival ``k``'s event index is ``k`` plus the events before it that are
    not arrivals: the snapshot markers and the triggers, whose event indices
    the report records (the end-of-trace snapshot lies past every arrival).
    Each admission goes through ``apply_admission``, each interleaved block
    through ``remove_included`` at its trigger, and a snapshot's set is the
    pool's ``pending()`` at its event index. Per sender the walk keeps the
    confirmed nonce, which follows from the report alone: precheck admits a
    tx into an empty chain only at its sender's confirmed nonce, and a block
    includes a pending prefix of a chain, so the confirmed nonce is then its
    last included one + 1. A tx is pending iff its chain's run from the
    confirmed nonce passes it (``SenderChain.run_end``), so:

    * A resident turned future iff, before the admission, the victim's run
      passed the victim's ``nonce + 1``: that child was pending, and the
      victim's leaving cuts the run below it.
    * A resident turned pending iff, after the admission, the tx's run
      passes the tx's ``nonce + 1``: the tx filled its sender's first
      missing nonce, so that child was future before.

    The report must be one a replay made: a victim or a block tx that is not
    resident, or an admission the pool refuses, raises ``ValueError`` naming
    the arrival index (for a block tx, the arrival after its block), and so
    does a given snapshot that is not one of the report's.
    """
    pool = Mempool(report.capacity)
    chain = pool.chain
    confirmed: Dict[str, int] = {}
    flags: List[Tuple[int, OutcomeFlags]] = []
    flagged: Dict[str, UtilEntry] = {}
    sets: List[List[Transaction]] = []
    wanted = deque(report.snapshots if snapshots is None else snapshots)
    # the event indices of the events that are not arrivals, ascending
    shifts = sorted([s.event_index for s in report.snapshots] + report.triggers)
    # each interleaved block by its trigger's event index; the final drain's
    # blocks, after every arrival, pair with no trigger
    block_at = dict(zip(report.triggers, report.blocks)) if report.interleaved else {}

    def shift(index: int, k: int) -> None:
        """Apply the event at ``index``, before arrival ``k``: its block, if
        it built one, or its snapshot, if one is wanted."""
        block = block_at.get(index)
        if block is not None:
            for tx in block.txs:
                if tx not in pool:
                    raise ValueError(f"arrival {k}: block tx {tx!r} is not resident")
                confirmed[tx.sender] = tx.nonce + 1
            _remove_included(pool, block.txs)
        while wanted and wanted[0].event_index == index:
            sets.append(pool.pending())
            wanted.popleft()

    j = 0  # the shifts before the next arrival
    try:
        for k, (o, tx) in enumerate(zip(report.outcomes, report.arrivals, strict=True)):
            while j < len(shifts) and shifts[j] == k + j:
                shift(shifts[j], k)
                j += 1
            if o.reason not in _ADMITTING:
                continue
            sender = tx.sender
            victim = o.victim
            ptf = False
            if victim is not None:
                if victim not in pool:
                    raise ValueError(f"arrival {k}: victim {victim!r} is not resident")
                ptf = chain(victim.sender).run_end(confirmed[victim.sender]) > victim.nonce + 1
            if not chain(sender):
                confirmed[sender] = tx.nonce
            _apply_admission(pool, tx, victim)
            ftp = chain(sender).run_end(confirmed[sender]) > tx.nonce + 1
            if ftp or ptf:
                flags.append((k + j, OutcomeFlags(ftp, ptf)))
                evicted = 0 if victim is None else victim.fee
                for name, on in (("future_turn_pending", ftp), ("pending_turn_future", ptf)):
                    if on:
                        flagged.setdefault(name, UtilEntry()).add(tx.fee - evicted, evicted)
        k = len(report.outcomes)
        for index in shifts[j:]:
            shift(index, k)
    except PoolError as exc:
        raise ValueError(f"arrival {k}: {exc}") from None
    if wanted:
        raise ValueError(f"{wanted[0]!r} is not one of the report's snapshots, in order")
    return flags, flagged, sets


def replay(
    config: ScenarioConfig,
    events: Sequence[TraceEvent],
    world: Optional[WorldState] = None,
) -> RunReport:
    """Replay ``events`` through a fresh pool under ``config``; ``world``
    (default: ``world_for_trace`` with the config's account seeds and block
    gas limit) is advanced as blocks include txs. A passed world is used as
    it is: ``config.account_seeds`` is not applied to it, and a
    ``block_gas_limit`` other than the config's raises ``ValueError``.

    Each arrival gets one outcome and one price sum, which the loop keeps
    itself: an admission adds its tx's price less its victim's, an
    interleaved block takes off its txs' prices. A snapshot marker, and the
    end of the trace, records how many outcomes and blocks the report then
    holds, and a block trigger its event index. The loop books nothing
    else: ``RunReport`` derives the dUtil ledger, the flags and the pending
    sets from these records when read. With ``final_drain`` the pool is
    then drained, and its leftovers are stored as ``unbuildable``.

    A ``PoolError`` raises ``ReplayAbort`` with the index of the event that
    broke, or ``len(events)`` for the final drain.
    """
    if world is None:
        world = world_for_trace(
            events, overrides=config.account_seeds, block_gas_limit=config.block_gas_limit
        )
    elif world.block_gas_limit != config.block_gas_limit:
        raise ValueError(
            f"world.block_gas_limit {world.block_gas_limit} is not the config's "
            f"{config.block_gas_limit}"
        )
    pool = Mempool(config.capacity, config.per_sender_limit)
    policy = config.policy.build()
    interleaved = config.drain_mode == "interleaved"
    report = RunReport(
        policy=config.policy.kind, capacity=config.capacity, interleaved=interleaved
    )
    # bound once: the arrival branch runs per event
    admit = pool.admit
    append_outcome = report.outcomes.append
    append_arrival = report.arrivals.append
    append_price_sum = report.price_sum_series.append
    # the pool's price sum, moved by each admission and block
    price_sum = 0
    for index, event in enumerate(events):
        try:
            kind = event.kind
            if kind == "tx_arrival":
                tx = event.tx
                outcome = admit(tx, world, policy)
                append_outcome(outcome)
                append_arrival(tx)
                reason = outcome.reason
                if reason is _POOL_NOT_FULL:
                    price_sum += tx.price
                elif reason is _EVICTION:
                    price_sum += tx.price - outcome.victim.price
                append_price_sum(price_sum)
            elif kind == "snapshot_marker":
                report.snapshots.append(
                    Snapshot(index, event.ts_ms, len(report.outcomes), len(report.blocks))
                )
            else:
                report.triggers.append(index)
                if interleaved:
                    block = build_block(pool, world).block
                    report.blocks.append(block)
                    price_sum -= sum(map(_price, block.txs))
        except PoolError as exc:
            raise ReplayAbort(index, exc) from exc

    report.event_count = len(events)
    end_ts = events[-1].ts_ms if events else 0
    report.snapshots.append(
        Snapshot(len(events), end_ts, len(report.outcomes), len(report.blocks))
    )
    if config.final_drain:
        try:
            blocks, report.unbuildable = drain(pool, world)
        except PoolError as exc:
            # the final drain runs after the last event: its index is the count
            raise ReplayAbort(len(events), exc) from exc
        report.blocks.extend(blocks)
    report.final_pending = pool.pending()
    return report


# ----------------------------------------------------------------- bench


@dataclass
class BenchReport:
    workload: str
    policy: str
    rounds: int
    times_s: List[float]
    mean_s: float
    stdev_s: float
    events_per_s: float
    peak_rss_kb: int

    def csv_row(self) -> str:
        return (
            f"{self.workload},{self.policy},{self.rounds},{self.mean_s:.6f},"
            f"{self.stdev_s:.6f},{self.events_per_s:.1f},{self.peak_rss_kb}"
        )

    CSV_HEADER = "workload,policy,rounds,mean_s,stdev_s,events_per_s,peak_rss_kb"


def bench(
    config: ScenarioConfig,
    events: Sequence[TraceEvent],
    rounds: int,
    workload: str = "custom",
) -> BenchReport:
    """Wall-clock time of one whole ``replay`` per round, each on a fresh
    copy of the trace's world; mean and stdev across rounds."""
    check_positive_int("rounds", rounds)
    try:
        import resource

        peak_rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:  # pragma: no cover - non-POSIX
        peak_rss = lambda: 0
    world_template = world_for_trace(
        events, overrides=config.account_seeds, block_gas_limit=config.block_gas_limit
    )
    times: List[float] = []
    for _ in range(rounds):
        world = world_template.clone()
        t0 = time.perf_counter()
        replay(config, events, world)
        times.append(time.perf_counter() - t0)
    mean = statistics.fmean(times)
    stdev = statistics.stdev(times) if rounds > 1 else 0.0
    n_arrivals = sum(1 for e in events if e.kind == "tx_arrival")
    return BenchReport(
        workload=workload,
        policy=config.policy.kind,
        rounds=rounds,
        times_s=times,
        mean_s=mean,
        stdev_s=stdev,
        events_per_s=n_arrivals / mean if mean > 0 else 0.0,
        peak_rss_kb=peak_rss(),
    )
