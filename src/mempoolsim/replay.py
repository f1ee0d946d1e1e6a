"""Deterministic trace replay: feeds events through pool admission, builds
blocks on triggers (or at end-of-trace), and folds the metrics ledgers.

The same (config, events) pair always produces a byte-identical report;
``RunReport.report_hash()``, the sha256 of the report's canonical JSON
(docs/format.md), checks that.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

from .builder import build_block, drain
from .core import (
    DEFAULT_BLOCK_GAS_LIMIT,
    AdmissionOutcome,
    Block,
    OutcomeKind,
    PoolError,
    Reason,
    Transaction,
    WorldState,
)
from .metrics import OutcomeClass, OutcomeFlags, UtilLedger, classify_outcome
from .policies import PolicyConfig
from .pool import Mempool, SenderChain
from .trace import TraceEvent, world_for_trace


class ReplayAbort(Exception):
    """An engine invariant broke mid-replay; carries the offending event index."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"replay aborted at event {index}: {cause}")


@dataclass
class ScenarioConfig:
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    capacity: int = 5120
    block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    account_seeds: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    drain_mode: str = "end_only"  # or "interleaved"
    final_drain: bool = True

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if self.drain_mode not in ("end_only", "interleaved"):
            raise ValueError(f"unknown drain mode: {self.drain_mode}")


@dataclass
class Snapshot:
    event_index: int
    ts_ms: int
    pending: List[Transaction]
    price_sum: int
    fee_sum: int


@dataclass
class RunReport:
    policy: str
    capacity: int
    event_count: int = 0
    outcomes: List[AdmissionOutcome] = field(default_factory=list)
    blocks: List[Block] = field(default_factory=list)
    snapshots: List[Snapshot] = field(default_factory=list)
    util: UtilLedger = field(default_factory=UtilLedger)
    flags: List[Tuple[int, OutcomeFlags]] = field(default_factory=list)
    price_sum_series: List[int] = field(default_factory=list)
    final_pending: List[Transaction] = field(default_factory=list)
    declined: List[Tuple[Transaction, Reason]] = field(default_factory=list)
    pool_fees_final: int = 0
    block_fees_final: int = 0
    declined_fees_final: int = 0

    def included_txs(self) -> List[Transaction]:
        return [tx for block in self.blocks for tx in block.txs]

    def summary(self) -> Dict:
        reasons = Counter(o.reason for o in self.outcomes)
        return {
            "policy": self.policy,
            "capacity": self.capacity,
            "events": self.event_count,
            "reasons": dict(sorted((r.value, n) for r, n in reasons.items())),
            "blocks": len(self.blocks),
            "block_fees": self.block_fees_final,
            "pool_fees": self.pool_fees_final,
            "declined_fees": self.declined_fees_final,
            "dutil_total": self.util.total.dutil,
            "pending": len(self.final_pending),
        }

    def report_hash(self) -> str:
        """sha256 of the report's canonical JSON, as docs/format.md defines it.

        The hashed bytes are the compact, sorted-key, ASCII-escaped JSON of
        ``{blocks, declined, outcomes, price_sums, summary}``, each tx as
        ``[sender, nonce, price, gas_used, gas_limit, value]``: what
        ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` writes for
        that object. They are written directly instead, each tx encoded once
        however often the report names it. ``Transaction`` fields are exact
        ints, for which ``str`` writes what json writes.
        """
        enc = encode_basestring_ascii
        labels = {reason: enc(reason.value) for reason in Reason}
        txs: Dict[int, str] = {}

        def tx_json(tx: Transaction) -> str:
            key = id(tx)
            text = txs.get(key)
            if text is None:
                text = txs[key] = (
                    f"[{enc(tx.sender)},{tx.nonce},{tx.price},"
                    f"{tx.gas_used},{tx.gas_limit},{tx.value}]"
                )
            return text

        heads: Dict[Tuple[int, int], str] = {}
        outcomes = []
        for o in self.outcomes:
            kind, reason = o.kind, o.reason
            # enum members are singletons: id() skips Enum.__hash__ and .value
            head = heads.get((id(kind), id(reason)))
            if head is None:
                head = heads[id(kind), id(reason)] = f"[{enc(kind.value)},{labels[reason]},"
            outcomes.append(f"{head}{tx_json(o.tx)},[{','.join(map(tx_json, o.victims))}]]")
        blocks = ",".join(f"[{','.join(map(tx_json, b.txs))}]" for b in self.blocks)
        declined = ",".join(f"[{tx_json(tx)},{labels[reason]}]" for tx, reason in self.declined)
        compact = (",", ":")
        blob = "".join((
            '{"blocks":[', blocks,
            '],"declined":[', declined,
            '],"outcomes":[', ",".join(outcomes),
            '],"price_sums":', json.dumps(self.price_sum_series, separators=compact),
            ',"summary":', json.dumps(self.summary(), sort_keys=True, separators=compact),
            "}",
        ))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _gap_before(
    chain: SenderChain, after: int, admitted: Optional[int], removed: Sequence[int]
) -> int:
    """First missing nonce from the confirmed one in the chain as it was
    before ``admitted`` (a nonce or None) joined it and the ``removed``
    nonces left; ``after`` is the chain's first missing nonce now."""
    if admitted is not None and admitted < after:
        return admitted
    # below ``after`` both states hold the same nonces
    gap = after
    while gap in removed:
        end = chain.run_end(gap + 1)
        if admitted is not None and gap < admitted < end:
            return admitted
        gap = end
    return gap


def _transition(
    chain: SenderChain, confirmed: int, admitted: Optional[int], removed: Sequence[int]
) -> Tuple[bool, bool]:
    """(future turned pending, pending turned future) among one sender's txs
    resident before and after an admission.

    A resident is future iff its nonce lies above the first gap, so it flips
    iff it lies strictly between the gap before and the gap after. The
    admitted nonce never does: it is the gap before, or above both gaps.
    """
    after = chain.run_end(confirmed)
    before = _gap_before(chain, after, admitted, removed)
    lo, hi = (before, after) if before < after else (after, before)
    if hi - lo < 2 or bisect_left(chain.nonces, hi) == bisect_right(chain.nonces, lo):
        return False, False
    return before < after, after < before


_NO_FLAGS = OutcomeFlags(False, False)


def _admission_flags(
    pool: Mempool, world: WorldState, tx: Transaction, victims: Sequence[Transaction]
) -> OutcomeFlags:
    """Flags of an admission that inserted ``tx`` and evicted ``victims``."""
    removed: Dict[str, List[int]] = {tx.sender: []}
    for v in victims:
        removed.setdefault(v.sender, []).append(v.nonce)
    ftp = ptf = False
    for sender, nonces in removed.items():
        admitted = tx.nonce if sender == tx.sender else None
        f, p = _transition(pool.chain(sender), world.nonce_of(sender), admitted, nonces)
        ftp |= f
        ptf |= p
    if ftp or ptf:
        return OutcomeFlags(ftp, ptf)
    return _NO_FLAGS


def replay(
    config: ScenarioConfig,
    events: Sequence[TraceEvent],
    world: Optional[WorldState] = None,
) -> RunReport:
    pool = Mempool(config.capacity, config.policy.per_sender_limit)
    if world is None:
        world = world_for_trace(
            events, overrides=config.account_seeds, block_gas_limit=config.block_gas_limit
        )
    policy = config.policy.build()
    report = RunReport(policy=config.policy.kind, capacity=config.capacity)

    def snapshot(index: int, ts: int) -> None:
        report.snapshots.append(
            Snapshot(index, ts, pool.pending(), pool.price_sum(), pool.fee_sum())
        )

    for index, event in enumerate(events):
        try:
            if event.kind == "snapshot_marker":
                snapshot(index, event.ts_ms)
            elif event.kind == "block_trigger":
                if config.drain_mode == "interleaved":
                    report.blocks.append(build_block(pool, world).block)
            else:
                tx = event.tx
                outcome = pool.admit(tx, world, policy)
                if outcome.kind is OutcomeKind.DECLINED:
                    # the pool did not change, so no resident changed status
                    flags = _NO_FLAGS
                    inside, outside = 0, tx.fee
                else:
                    flags = _admission_flags(pool, world, tx, outcome.victims)
                    if flags.future_turn_pending or flags.pending_turn_future:
                        report.flags.append((index, flags))
                    evicted = sum(v.fee for v in outcome.victims)
                    inside, outside = tx.fee - evicted, evicted
                report.util.record(classify_outcome(outcome), inside, outside, flags)
                report.outcomes.append(outcome)
                report.price_sum_series.append(pool.price_sum())
        except PoolError as exc:
            raise ReplayAbort(index, exc) from exc

    report.event_count = len(events)
    snapshot(len(events), events[-1].ts_ms if events else 0)
    if config.final_drain:
        declined_before = len(pool.declined)
        report.blocks.extend(drain(pool, world))
        for tx, _ in pool.declined[declined_before:]:
            report.util.record(OutcomeClass.UNBUILDABLE, -tx.fee, tx.fee)
    report.final_pending = pool.pending()
    report.declined = pool.declined
    report.pool_fees_final = pool.fee_sum()
    report.block_fees_final = sum(b.revenue for b in report.blocks)
    report.declined_fees_final = sum(tx.fee for tx, _ in pool.declined)
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
    """Wall-clock admission time per round; mean and stdev across rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
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
        pool = Mempool(config.capacity, config.policy.per_sender_limit)
        world = world_template.clone()
        policy = config.policy.build()
        t0 = time.perf_counter()
        for event in events:
            if event.kind == "tx_arrival":
                pool.admit(event.tx, world, policy)
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
