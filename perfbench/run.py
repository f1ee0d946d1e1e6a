"""Replay benchmark for mempoolsim.

Replays one workload's seeded trace under ``baseline``, ``cp`` and ``map``
through the public API (``parse_trace`` -> ``world_for_trace`` -> ``replay``
-> ``report_hash``), checks every report and prints the metrics, one per
line, then one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload xt6_chain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Load model: one process, one thread, a closed loop that handles each trace
event after the previous one. A run repeats rounds until ``--seconds`` is
used up; a round sets up once and replays the trace once per policy, each
on a fresh copy of the world. Metrics are medians over the rounds, and
times are calibrated for the host's speed while they ran (speedprobe.py).

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
``--trace 1`` alternates an untraced round with a traced one and prints the
per-layer metrics of the traced rounds (see tracer.py and README.md).

Exit code 0 when every report is correct, 1 otherwise or on a set-up error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speedprobe import SpeedProbe, Timing  # noqa: E402
from tracer import Tracer, misnested, self_times  # noqa: E402

GOLDEN_FILE = HERE / "golden.json"
LAYER_SUM_TOLERANCE = 0.05

Metrics = Dict[str, Tuple[float, str]]  # name -> (value, unit)


def ensure_trace(workload: wl.Workload, seed: int, smoke: bool) -> Tuple[Path, Path]:
    """Paths of the workload's trace and account seeds, generated on first use.

    Generation runs in a child process, so its memory does not count in this
    process's peak RSS.
    """
    trace, seeds_file = wl.trace_paths(workload, seed)
    if not (trace.is_file() and seeds_file.is_file()):
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name]
        cmd += ["--seed", str(seed)] + (["--smoke"] if smoke else [])
        subprocess.run(cmd, check=True, timeout=170)
    return trace, seeds_file


def check_report(workload: wl.Workload, events, report, digest: str, expected: str) -> List[str]:
    """What is wrong with one policy's report: its hash against the expected
    one, and invariants that hold for every seed."""
    problems = []
    if digest != expected:
        problems.append(f"report_hash {digest} != expected {expected}")
    arrivals = sum(1 for e in events if e.kind == "tx_arrival")
    if len(report.outcomes) != arrivals:
        problems.append(f"{len(report.outcomes)} outcomes for {arrivals} arrivals")
    ended = len(report.final_pending) + len(report.included_txs()) + len(report.declined)
    if ended != arrivals:
        problems.append(f"{ended} pending+included+declined for {arrivals} arrivals")
    fees = report.pool_fees_final + report.block_fees_final - report.declined_fees_final
    if report.util.total.dutil != fees:
        problems.append(f"dutil_total {report.util.total.dutil} != {fees}")
    if report.policy == "cp" and workload.drain_mode == "end_only":
        series = report.price_sum_series
        if any(b < a for a, b in zip(series, series[1:])):
            problems.append("cp price sum decreased")
    return problems


class Bench:
    """One workload's replays, checks and timings within one run."""

    def __init__(self, ms, workload: wl.Workload, seed: int, smoke: bool):
        self.ms = ms
        self.workload = workload
        self.trace, seeds_file = ensure_trace(workload, seed, smoke)
        self.seeds = wl.read_seeds(seeds_file)
        self.configs = {
            p: ms.ScenarioConfig(
                policy=ms.PolicyConfig(kind=p),
                capacity=workload.capacity,
                account_seeds=self.seeds,
                drain_mode=workload.drain_mode,
            )
            for p in wl.POLICIES
        }
        golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
        self.golden: Dict[str, str] = golden.get(wl.stem(workload, seed), {})
        # a policy without a golden hash must repeat its first round's hash
        self.expected: Dict[str, str] = dict(self.golden)
        self.hashes: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.n_events = 0
        self.probe = SpeedProbe()

    def setup(self):
        """(events, world, timing) of one timed set-up."""
        gc.collect()
        with self.probe.measure() as timing:
            events = self.ms.parse_trace(self.trace)
            world = self.ms.world_for_trace(
                events, overrides=self.seeds, block_gas_limit=self.configs["cp"].block_gas_limit
            )
        self.n_events = len(events)
        return events, world, timing

    def replay(self, policy: str, events, world) -> Optional[Timing]:
        """Timing of ``replay()`` + ``report_hash()`` on a copy of ``world``,
        or None when the replay raised or its report failed a check."""
        world = world.clone()
        gc.collect()
        self.attempted += 1
        try:
            with self.probe.measure() as elapsed:
                report = self.ms.replay(self.configs[policy], events, world=world)
                digest = report.report_hash()
        except Exception:  # a failing replay is counted and reported, not fatal
            self._fail(policy, traceback.format_exc())
            return None
        self.hashes.setdefault(policy, digest)
        expected = self.expected.setdefault(policy, digest)
        problems = check_report(self.workload, events, report, digest, expected)
        if problems:
            self._fail(policy, "; ".join(problems))
            return None
        return elapsed

    def _fail(self, policy: str, message: str) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name} {policy}: {message}", file=sys.stderr)

    def round(self, tracer: Optional[Tracer] = None) -> Dict[str, Timing]:
        """Set up, then replay each policy once: {"setup_s": timing, policy: timing}.
        With ``tracer``, every call into a layer records a span."""
        if tracer is not None:
            tracer.reset()
            tracer.policy = ""
            install(tracer, self.ms)
        try:
            events, world, setup_s = self.setup()
            times = {"setup_s": setup_s}
            for policy in wl.POLICIES:
                if tracer is not None:
                    tracer.policy = policy
                elapsed = self.replay(policy, events, world)
                if elapsed is not None:
                    times[policy] = elapsed
        finally:
            if tracer is not None:
                tracer.unpatch()
        return times


# ----------------------------------------------------------------- tracing


def _count_admit(counts, outcome) -> None:
    counts["admitted"] += outcome.admitted
    counts["evicted"] += len(outcome.victims)


def _count_decide(counts, decision) -> None:
    counts["evicting"] += bool(decision.victims)


def _count_build(counts, result) -> None:
    counts["blocks"] += bool(result.block.txs)
    counts["included"] += len(result.block.txs)
    counts["skipped"] += len(result.skipped)


def install(tracer: Tracer, ms) -> None:
    """Wrap the public calls of each layer on the replay path."""
    trace, replay = sys.modules["mempoolsim.trace"], sys.modules["mempoolsim.replay"]
    builder = sys.modules["mempoolsim.builder"]
    tracer.patch("trace.parse_trace", trace, "parse_trace")
    tracer.patch("trace.world_for_trace", trace, "world_for_trace")
    tracer.patch("replay.replay", replay, "replay")
    tracer.patch("replay.report_hash", ms.RunReport, "report_hash")
    tracer.patch("pool.admit", ms.Mempool, "admit", _count_admit)
    tracer.patch("pool.precheck", ms.Mempool, "precheck")
    tracer.patch("pool.apply_admission", ms.Mempool, "apply_admission")
    tracer.patch("pool.remove_included", ms.Mempool, "remove_included")
    for policy_cls in (ms.PriceOnlyPolicy, ms.ChildlessPricePolicy, ms.MinFeeChainTailPolicy):
        tracer.patch("policies.decide", policy_cls, "decide", _count_decide)
    tracer.patch("builder.candidate_order", builder, "candidate_order")
    tracer.patch("builder.build_block", builder, "build_block", _count_build)
    tracer.patch("builder.drain", builder, "drain")


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, scale: Dict[str, float]) -> Metrics:
    """Per-layer metrics of one traced round, summed over the policies.
    ``scale`` maps a span's policy ("" for set-up) to calibrated ÷ wall
    seconds of that section, so layer times share the end-to-end unit."""
    st = self_times(tracer.spans)

    def self_s(name: str, policy: Optional[str] = None) -> float:
        ns = sum(v * scale[p] for (n, p), v in st.items() if n == name and policy in (None, p))
        return ns / 1e9

    c = tracer.counts
    admit_us = sorted(
        (end - start) * scale[p] / 1e3 for _, n, start, end, _, p in tracer.spans if n == "pool.admit"
    )
    decides = sum(1 for s in tracer.spans if s[1] == "policies.decide")
    considered = c["included"] + c["skipped"]
    m: Metrics = {
        "trace.parse_s": (self_s("trace.parse_trace"), "s"),
        "trace.world_s": (self_s("trace.world_for_trace"), "s"),
        "pool.precheck_s": (self_s("pool.precheck"), "s"),
        "pool.apply_admission_s": (self_s("pool.apply_admission"), "s"),
        "pool.admit_s": (self_s("pool.admit"), "s"),
        "pool.remove_included_s": (self_s("pool.remove_included"), "s"),
        "pool.admit_p50_us": (_percentile(admit_us, 0.50), "us"),
        "pool.admit_p99_us": (_percentile(admit_us, 0.99), "us"),
        "pool.admit_calls": (len(admit_us), "count"),
        "pool.evicted": (c["evicted"], "count"),
        "pool.admitted_share": (c["admitted"] / len(admit_us), "ratio"),
    }
    for policy in wl.POLICIES:
        m[f"policies.decide_s.{policy}"] = (self_s("policies.decide", policy), "s")
    m.update(
        {
            "policies.decide_calls": (decides, "count"),
            "policies.evict_share": (c["evicting"] / decides if decides else 0.0, "ratio"),
            "builder.candidate_order_s": (self_s("builder.candidate_order"), "s"),
            "builder.build_block_s": (self_s("builder.build_block"), "s"),
            "builder.drain_s": (self_s("builder.drain"), "s"),
            "builder.blocks": (c["blocks"], "count"),
            "builder.included": (c["included"], "count"),
            "builder.skip_share": (c["skipped"] / considered if considered else 0.0, "ratio"),
            "replay.self_s": (self_s("replay.replay"), "s"),
            "replay.report_hash_s": (self_s("replay.report_hash"), "s"),
        }
    )
    return m


def replay_self_sum(tracer: Tracer, scale: Dict[str, float]) -> float:
    """Seconds of self time in every span recorded under a policy replay."""
    return sum(v * scale[p] for (_, p), v in self_times(tracer.spans).items() if p) / 1e9


# --------------------------------------------------------------------- run


def measure(ms, workload: wl.Workload, seed: int, seconds: float, traced: bool, smoke: bool):
    """Run rounds for ``seconds``; returns (bench, metrics, correct)."""
    bench = Bench(ms, workload, seed, smoke)
    tracer = Tracer() if traced else None
    rounds: List[Dict[str, Timing]] = []
    layers: List[Metrics] = []
    overheads: List[float] = []
    layers_ok = True
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        plain = bench.round()
        rounds.append(plain)
        print(
            f"round {len(rounds)} (wall s/calibrated s) "
            + " ".join(f"{k} {t.seconds:.4f}/{t.calibrated:.4f}" for k, t in plain.items())
        )
        if tracer is not None:
            with_spans = bench.round(tracer)
            scale = defaultdict(lambda: 1.0)  # a failed replay has no timing
            for key, t in with_spans.items():
                scale["" if key == "setup_s" else key] = t.calibrated / t.seconds
            traced_s = sum(with_spans[p].calibrated for p in wl.POLICIES if p in with_spans)
            plain_s = sum(plain[p].calibrated for p in wl.POLICIES if p in plain)
            traced_wall = sum(with_spans[p].seconds for p in wl.POLICIES if p in with_spans)
            plain_wall = sum(plain[p].seconds for p in wl.POLICIES if p in plain)
            if plain_s:
                print(
                    f"tracing overhead wall {traced_wall / plain_wall - 1:.4f} "
                    f"calibrated {traced_s / plain_s - 1:.4f}"
                )
            # Self times add up to the root spans, which the probe times too, so
            # this holds unless a span leaked; the nesting check can fail.
            covered = replay_self_sum(tracer, scale)
            share = covered / traced_s if traced_s else 0.0
            print(f"layer self times {covered:.6f} s of traced replay_s {traced_s:.6f} s ({share:.4f})")
            if abs(share - 1) > LAYER_SUM_TOLERANCE:
                print(f"FAILED layer self times cover {share:.4f} of traced replay_s", file=sys.stderr)
                layers_ok = False
            bad = misnested(tracer.spans)
            if bad:
                print(f"FAILED {bad} spans lie outside their parent span", file=sys.stderr)
                layers_ok = False
            layers.append(layer_metrics(tracer, scale))
            overheads.append(traced_s / plain_s - 1 if plain_s else 0.0)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    if tracer is not None:
        tracer.write(wl.DATA_DIR / f"{wl.stem(workload, seed)}.spans.csv")
        metrics = {
            name: (statistics.median_low(r[name][0] for r in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        metrics["tracing.overhead_share"] = (statistics.median_low(overheads), "ratio")
    else:
        metrics = end_to_end(bench, rounds)
    return bench, metrics, bench.failed == 0 and layers_ok


def end_to_end(bench: Bench, rounds: List[Dict[str, Timing]]) -> Metrics:
    """Medians over the rounds of the calibrated times (see speedprobe.py)."""
    setup = statistics.median(r["setup_s"].calibrated for r in rounds)
    metrics: Metrics = {"setup_s": (setup, "s")}
    total = 0.0
    for policy in wl.POLICIES:
        times = [r[policy].calibrated for r in rounds if policy in r]
        median = statistics.median(times) if times else math.nan
        metrics[f"replay_s.{policy}"] = (median, "s")
        total += median
    metrics["events_per_s"] = (len(wl.POLICIES) * bench.n_events / total, "events/s")
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def run_one(args) -> int:
    ms = wl.import_mempoolsim()
    workload = (wl.SMOKE if args.smoke else wl.WORKLOADS)[args.workload]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    bench, metrics, correct = measure(
        ms, workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(f"events {bench.n_events}")
    for policy in wl.POLICIES:
        digest = bench.hashes.get(policy, "-")
        golden = bench.golden.get(policy)
        verdict = "none" if golden is None else ("ok" if golden == digest else "MISMATCH")
        print(f"hash {policy} {digest} golden {verdict}")
    failed_share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_share {failed_share} ratio ({bench.failed} of {bench.attempted} replays)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        status = max(status, subprocess.run(cmd, timeout=600).returncode)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Replay benchmark for mempoolsim.")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
