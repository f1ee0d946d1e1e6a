"""Command-line harness.

Subcommands:
  replay  - run a trace file through a policy and print the run summary
  attack  - generate an attack trace (optionally replay it immediately)
  bench   - run a performance workload for N rounds, emit CSV
  bounds  - eviction-bound estimates for the end-of-trace pool snapshot
  gamma   - locking-bound statistics for the end-of-trace pool

Exit codes: 0 success, 1 usage or I/O error (argparse errors included),
2 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional

from .attacks import ATTACKS, XT6_DESK, XT6_FULL, AttackPlan, attack_cost
from .core import PoolError
from .metrics import eviction_bound_baseline_under_xt6, eviction_bound_cp, gamma
from .policies import POLICIES, PolicyConfig
from .replay import ReplayAbort, ScenarioConfig, bench, replay
from .trace import (
    TraceError,
    parse_trace,
    workload_batch_insert,
    workload_tn1,
    write_trace,
)

DESK_CAPACITY = 192
FULL_CAPACITY = 5120


def _add_common(parser: argparse.ArgumentParser, json_report: bool = True) -> None:
    parser.add_argument("--policy", choices=POLICIES, default="cp")
    parser.add_argument("--capacity", type=int, default=None)
    parser.add_argument("--full", action="store_true", help="full-scale profile (capacity 5120)")
    parser.add_argument("--drain-mode", choices=("end_only", "interleaved"), default="end_only")
    parser.add_argument("--per-sender-limit", type=int, default=None)
    if json_report:  # bench writes CSV only
        parser.add_argument("--json", dest="json_out", default=None, help="write JSON report here")


def _scenario(args, **fields) -> ScenarioConfig:
    capacity = args.capacity
    if capacity is None:
        capacity = FULL_CAPACITY if args.full else DESK_CAPACITY
    return ScenarioConfig(
        policy=PolicyConfig(kind=args.policy),
        capacity=capacity,
        per_sender_limit=args.per_sender_limit,
        drain_mode=args.drain_mode,
        **fields,
    )


def _emit(payload: dict, json_out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_replay(args) -> int:
    events = parse_trace(args.trace)
    config = _scenario(args)
    report = replay(config, events)
    payload = report.summary()
    payload["report_hash"] = report.report_hash()
    _emit(payload, args.json_out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("block,revenue\n")
            for i, block in enumerate(report.blocks):
                fh.write(f"{i},{block.revenue}\n")
    return 0


def cmd_attack(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except (ValueError, RecursionError) as exc:
        # as for a trace line: nesting past the decoder's recursion limit too
        raise ValueError(f"--params is malformed JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    if args.kind == "xt6":
        # given params override the profile --full picks, not always the full one
        params = {**(XT6_FULL if args.full else XT6_DESK), **params}
    if args.kind == "random_adversary":
        params.setdefault("seed", args.seed)
    plan = AttackPlan(kind=args.kind, params=params, delay_seconds=args.delay)
    events, seeds = plan.generate()
    if args.out:
        write_trace(args.out, events)
        print(f"wrote {len(events)} events to {args.out}")
    if args.run or not args.out:
        report = replay(_scenario(args, account_seeds=seeds), events)
        cost = attack_cost(report.included_txs(), report.unbuildable)
        payload = report.summary()
        payload["fees_charged"] = cost.fees_charged
        payload["fees_at_risk"] = cost.fees_at_risk
        _emit(payload, args.json_out)
    return 0


def cmd_bench(args) -> int:
    config = _scenario(args)
    if args.workload == "batch_insert":
        events = workload_batch_insert(args.n0)
    else:
        events, seeds = workload_tn1(args.n1, args.n1_prime, capacity=config.capacity)
        config = replace(config, account_seeds=seeds)
    result = bench(config, events, rounds=args.rounds, workload=args.workload)
    print(result.CSV_HEADER)
    print(result.csv_row())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(result.CSV_HEADER + "\n" + result.csv_row() + "\n")
    return 0


def cmd_bounds(args) -> int:
    events = parse_trace(args.trace)
    config = _scenario(args, final_drain=False)
    report = replay(config, events)
    pending = report.final_pending
    cp_bound = eviction_bound_cp(pending)
    payload = {
        "pending": len(pending),
        "cp_bound_wei": cp_bound.bound_wei,
        "cp_basis": cp_bound.basis,
    }
    if pending:
        base = eviction_bound_baseline_under_xt6(pending, config.block_gas_limit)
        payload["baseline_bound_wei"] = base.bound_wei
        payload["baseline_basis"] = base.basis
        payload["cp_over_baseline"] = cp_bound.bound_wei / base.bound_wei
    _emit(payload, args.json_out)
    return 0


def cmd_gamma(args) -> int:
    report = replay(_scenario(args, final_drain=False), parse_trace(args.trace))
    pending = report.final_pending
    if not pending:
        raise ValueError("empty end-of-trace pool; nothing to report")
    g = gamma(pending)
    payload = {
        "senders": len(g.per_sender),
        "gamma_max": g.gamma_max,
        "gamma_avg": g.gamma_avg,
        "gamma_p95": g.gamma_p95,
        "gamma_max_fee_denom": g.gamma_max_fee_denom,
    }
    _emit(payload, args.json_out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, not argparse's 2, which is reserved for
    invariant violations; subparsers are built from this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mempoolsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay", help="replay a trace file")
    p.add_argument("trace")
    p.add_argument("--csv", default=None, help="write per-block revenue CSV here")
    _add_common(p)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("attack", help="generate and/or run an attack trace")
    p.add_argument("kind", choices=ATTACKS)
    p.add_argument("--params", default=None, help="JSON object of generator parameters")
    p.add_argument("--delay", type=float, default=0.0, help="block-to-attack delay (seconds)")
    p.add_argument("--out", default=None, help="write the generated trace here")
    p.add_argument("--run", action="store_true", help="replay the trace after generating")
    p.add_argument("--seed", type=int, default=0, help="random_adversary seed if --params has none")
    _add_common(p)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("bench", help="run a performance workload")
    p.add_argument("workload", choices=("batch_insert", "tn1"))
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--n0", type=int, default=10_000, help="batch_insert transaction count")
    p.add_argument("--n1", type=int, default=100, help="tn1 pending transactions")
    p.add_argument("--n1-prime", type=int, default=10, help="tn1 account count")
    p.add_argument("--csv", default=None)
    _add_common(p, json_report=False)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("bounds", help="eviction-bound estimates for a trace")
    p.add_argument("trace")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("gamma", help="locking-bound statistics for the end-of-trace pool")
    p.add_argument("trace")
    _add_common(p)
    p.set_defaults(fn=cmd_gamma)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TraceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ReplayAbort, PoolError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
