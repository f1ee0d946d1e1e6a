"""Deterministic mempool simulator: admission policies with provable
eviction-cost bounds, a vulnerable price-only baseline, replayable
adversarial traces, and the metrics to compare them."""

from .core import (
    AccountState,
    AdmissionOutcome,
    Block,
    OutcomeKind,
    Reason,
    Transaction,
    PoolError,
    WorldState,
)
from .pool import Mempool, SenderChain
from .policies import (
    ChildlessPricePolicy,
    MinFeeChainTailPolicy,
    PolicyConfig,
    PriceOnlyPolicy,
)
from .builder import BuildResult, build_block, candidate_order, drain
from .attacks import (
    AttackCostReport,
    AttackPlan,
    XT6_DESK,
    XT6_FULL,
    attack_cost,
    gen_cp_lock,
    gen_deter_future,
    gen_mempurge,
    gen_random_adversary,
    gen_xt6,
)
from .metrics import (
    BoundEstimate,
    GammaReport,
    OutcomeClass,
    UtilLedger,
    classify_outcome,
    eviction_bound_baseline_under_xt6,
    eviction_bound_cp,
    gamma,
)
from .trace import (
    TraceEvent,
    TraceError,
    arrival,
    block_trigger,
    dump_events,
    parse_trace,
    parse_trace_text,
    snapshot_marker,
    workload_batch_insert,
    workload_tn1,
    world_for_trace,
    write_trace,
)
from .replay import BenchReport, ReplayAbort, RunReport, ScenarioConfig, bench, replay

__version__ = "0.1.0"
