#!/usr/bin/env python3
"""SwiShmem host and simulated performance, end to end and by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sro_lossy_writes --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` runs every episode of the workload once, then replays
episodes in order until ``--seconds`` is used (at least one replay).
Each replay must reproduce its episode exactly (determinism in one
process).  It checks the outputs and reports the end-to-end metrics.

``--trace 1`` runs the workload's first few episodes untraced and then
traced, checks the traced run reproduced the untraced one (the wrappers
are neutral), and reports the per-layer metrics.

The last line of standard output is one JSON object; the exit code is
0 only if every check passed.  A run still going after ``DEADLINE_S``
stops, prints which episode stalled, and exits 1.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Span dumps of traced runs (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench")

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_fail_frac": "ratio",
    "commit_p50_us": "us",
    "commit_p99_us": "us",
    "pkt_p50_us": "us",
    "pkt_p99_us": "us",
    "detect_us": "us",
    "unavail_us": "us",
}


#: A run still going after this long stops and fails.  A normal run
#: takes under a minute; a longer one has met a stalling program.
DEADLINE_S = 120


class RunDeadline(Exception):
    """The run passed :data:`DEADLINE_S`."""


def _deadline(signum, frame) -> None:
    raise RunDeadline()


#: Seed of the episode being built or run, for the deadline message.
_running: List[int] = [-1]


class EpisodeRun:
    __slots__ = ("seed", "setup_s", "wall_s", "outcome")

    def __init__(self, seed: int, setup_s: float, wall_s: float, outcome) -> None:
        self.seed = seed
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.outcome = outcome


def run_episode(workload, seed: int, tracer=None, dump: str = "") -> EpisodeRun:
    """Build, run and finish one episode; time set-up and run."""
    _running[0] = seed
    gc.collect()
    t0 = time.perf_counter()
    episode = workload.episode(seed)
    setup_s = time.perf_counter() - t0
    gc.collect()
    if tracer is not None:
        episode.sim.profiler = tracer
        tracer.active = True
    t0 = time.perf_counter()
    episode.run()
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
        if dump:
            tracer.write_spans(dump)
        tracer.fold()
    return EpisodeRun(seed, setup_s, wall_s, episode.finish())


def sim_metrics(outcomes) -> Tuple[Dict[str, float], List[str]]:
    """Every simulated end-to-end metric the outcomes support, and a line
    per sample count."""
    import stats

    def pooled(key: str) -> List[float]:
        return [x for o in outcomes for x in o.samples.get(key, ())]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics: Dict[str, float] = {"op_fail_frac": stats.fail_frac(attempted, failed)}
    lines = [f"ops: {attempted} attempted, {failed} failed"]
    for prefix, key in (("commit", "commit_lat"), ("pkt", "pkt_lat")):
        samples = pooled(key)
        if not samples:
            continue
        for q in (50, 99):
            metrics[f"{prefix}_p{q}_us"] = stats.tail_percentile(samples, q) * 1e6
        lines.append(
            f"{prefix} latency: {len(samples)} samples, "
            f"{stats.beyond(len(samples), 99)} beyond p99"
        )
    detect = pooled("detect")
    if detect:
        metrics["detect_us"] = statistics.median(detect) * 1e6
        lines.append(f"detection: median of {len(detect)} attacks")
    gaps = pooled("unavail")
    if gaps:
        metrics["unavail_us"] = statistics.median(gaps) * 1e6
        lines.append(
            f"unavailability: median of {len(gaps)} crashes, "
            f"longest {max(gaps) * 1e6:.1f} us"
        )
    return metrics, lines


def check_outcomes(runs: List[EpisodeRun]) -> List[str]:
    """Each episode's own checks plus zero generator lateness."""
    errors = []
    for run in runs:
        errors.extend(f"episode seed {run.seed}: {e}" for e in run.outcome.errors)
        if run.outcome.lateness != 0.0:
            errors.append(
                f"episode seed {run.seed}: generator ran "
                f"{run.outcome.lateness * 1e6:.3f} us late"
            )
    return errors


def same_outcome(a: EpisodeRun, b: EpisodeRun, what: str) -> List[str]:
    errors = []
    if a.outcome.digest != b.outcome.digest:
        errors.append(
            f"{what}: seed {a.seed} digest {b.outcome.digest[:12]} != {a.outcome.digest[:12]}"
        )
    if a.outcome.counters != b.outcome.counters:
        errors.append(f"{what}: seed {a.seed} work counters differ")
    if (a.outcome.samples, a.outcome.attempted, a.outcome.failed) != (
        b.outcome.samples,
        b.outcome.attempted,
        b.outcome.failed,
    ):
        errors.append(f"{what}: seed {a.seed} simulated samples differ")
    return errors


def layer_metrics(tracer, traced: List[EpisodeRun], untraced: List[EpisodeRun]):
    """Per-layer metrics of the traced episodes (totals over them), the
    report lines, and the accounting error if the layers miss wall time."""
    import stats

    counters: Dict[str, float] = {}
    for run in traced:
        for key, value in run.outcome.counters.items():
            if key == "sim.peak_queue":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    traced_wall = sum(r.wall_s for r in traced)
    selfs = tracer.layer_self(traced_wall)

    def c(key: str) -> float:
        return counters.get(key, 0)

    def manager(*methods: str) -> int:
        return sum(tracer.calls_of(f"SwiShmemManager.{m}") for m in methods)

    out = {
        "sim.events": (c("sim.events"), "count"),
        "sim.events_cancelled": (c("sim.events_cancelled"), "count"),
        "sim.peak_queue": (c("sim.peak_queue"), "count"),
        "sim.self_s": (selfs["sim"], "s"),
        "net.pkts_sent": (c("net.pkts_sent"), "count"),
        "net.bytes_sent": (c("net.bytes_sent"), "count"),
        "net.pkts_dropped": (c("net.pkts_dropped"), "count"),
        "net.clones": (tracer.calls_of("Packet.clone"), "count"),
        "net.clone_s": (tracer.self_of("Packet.clone"), "s"),
        "net.transmit_self_s": (tracer.self_of("Channel.transmit"), "s"),
        "net.self_s": (selfs["net"], "s"),
        "switch.rx_pkts": (c("switch.rx_pkts"), "count"),
        "switch.multicast_copies": (c("switch.multicast_copies"), "count"),
        "switch.pass_self_s": (selfs["switch"], "s"),
        "core.reads": (
            manager("register_read", "register_peek", "register_set_contains"),
            "count",
        ),
        "core.writes": (
            manager(
                "register_write",
                "register_increment",
                "register_fetch_add",
                "register_set_add",
                "register_set_remove",
            ),
            "count",
        ),
        "core.op_self_s": (selfs["core"], "s"),
        "protocols.sro.writes_initiated": (c("sro.writes_initiated"), "count"),
        "protocols.sro.retries": (c("sro.retries"), "count"),
        "protocols.sro.chain_updates": (c("sro.chain_updates"), "count"),
        "protocols.sro.out_of_order_drops": (c("sro.out_of_order_drops"), "count"),
        "protocols.sro.reorder_stashed": (c("sro.reorder_stashed"), "count"),
        "protocols.sro.self_s": (selfs["protocols.sro"], "s"),
        "protocols.sro.useful_frac": (
            stats.ratio(c("sro.writes_committed"), c("sro.writes_initiated") + c("sro.retries")),
            "ratio",
        ),
        "protocols.ewo.update_pkts": (c("ewo.update_pkts"), "count"),
        "protocols.ewo.sync_entries": (c("ewo.sync_entries"), "count"),
        "protocols.ewo.self_s": (selfs["protocols.ewo"], "s"),
        "protocols.ewo.merge_useful_frac": (
            stats.ratio(c("ewo.merges_applied"), c("ewo.updates_received")),
            "ratio",
        ),
        "protocols.controller.heartbeats": (c("controller.heartbeats"), "count"),
        "protocols.controller.leader_changes": (c("controller.leader_changes"), "count"),
        "protocols.controller.self_s": (selfs["protocols.controller"], "s"),
        "chaos.nemesis_plans": (tracer.calls_of("Nemesis.plan"), "count"),
        "chaos.invariant_checks": (tracer.calls_of("InvariantSuite.check_now"), "count"),
        "chaos.self_s": (selfs["chaos"], "s"),
        "obs.hook_calls": (tracer.entries("obs"), "count"),
        "obs.self_s": (selfs["obs"], "s"),
        "nf.process_calls": (tracer.calls_matching("nf", "process"), "count"),
        "nf.self_s": (selfs["nf"], "s"),
        "trace.overhead_frac": (
            stats.overhead_frac(traced_wall, sum(r.wall_s for r in untraced)),
            "ratio",
        ),
    }
    accounted = sum(selfs.values())
    lines = [f"traced: {traced_wall:.3f} s wall, layer self times sum to {accounted:.3f} s"]
    for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<22} {seconds:8.3f} s  {seconds / traced_wall:6.1%}")
    errors = []
    if abs(accounted - traced_wall) > 1e-6 * traced_wall:
        errors.append(
            f"layer self times sum to {accounted:.6f} s, traced wall is {traced_wall:.6f} s"
        )
    return out, lines, errors


def measure(workload, seed: int, seconds: float):
    """Untraced: every episode once, then replays until ``seconds``."""
    started = time.perf_counter()
    seeds = workload.episode_seeds(seed)
    runs = [run_episode(workload, s) for s in seeds]
    errors = check_outcomes(runs)
    by_seed: Dict[int, List[EpisodeRun]] = {r.seed: [r] for r in runs}
    replay = 0
    while True:
        first = runs[replay % len(runs)]
        again = run_episode(workload, first.seed)
        errors += same_outcome(first, again, "replay")
        by_seed[first.seed].append(again)
        replay += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / (len(runs) + replay) > seconds:
            break
    measured, lines = sim_metrics([r.outcome for r in runs])
    missing = [m for m in workload.metrics if m not in measured]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    # Simulated metrics are printed, not reported: the JSON holds the
    # metrics every workload has (see NOTES.md).
    lines.append("simulated:")
    lines.extend(f"  {m:<36} {v:>18.6f} {UNITS[m]}" for m, v in measured.items())
    every = [r for rs in by_seed.values() for r in rs]
    host = {
        "setup_s": statistics.median(r.setup_s for r in every),
        # Per episode: each seed's median over its runs, averaged over seeds.
        "wall_s": statistics.mean(
            statistics.median(r.wall_s for r in rs) for rs in by_seed.values()
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = [r.wall_s for r in every]
    lines.append(
        f"host: {len(runs)} episodes + {replay} replays; wall per episode "
        f"min {min(walls):.4f} s max {max(walls):.4f} s"
    )
    lines.append(
        f"generator lateness: {max(r.outcome.lateness for r in runs) * 1e6:.3f} us max "
        f"over {sum(r.outcome.timed_ops for r in runs)} ops with a due time"
    )
    result = {m: (v, UNITS[m]) for m, v in host.items()}
    return runs, result, lines, errors


def trace(workload, seed: int):
    """Untraced then traced runs of the first ``workload.traced`` episodes."""
    from tracing import LayerTracer

    seeds = workload.episode_seeds(seed)[: workload.traced]
    untraced = [run_episode(workload, s) for s in seeds]
    errors = check_outcomes(untraced)
    os.makedirs(OUT_DIR, exist_ok=True)
    dump = os.path.join(OUT_DIR, f"spans-{workload.name}.bin")
    tracer = LayerTracer().install()
    try:
        traced = [
            run_episode(workload, s, tracer, dump if i == 0 else "")
            for i, s in enumerate(seeds)
        ]
    finally:
        tracer.uninstall()
    for a, b in zip(untraced, traced):
        errors += same_outcome(a, b, "traced vs untraced")
    result, lines, accounting = layer_metrics(tracer, traced, untraced)
    lines.append(f"spans of the first traced episode: {os.path.relpath(dump, ROOT)}")
    return untraced, result, lines, errors + accounting


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(f"{workload.name} seed {args.seed}: {workload.why}")
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        if args.trace:
            runs, result, lines, errors = trace(workload, args.seed)
        else:
            runs, result, lines, errors = measure(workload, args.seed, args.seconds)
    except RunDeadline:
        print(f"CHECK FAILED: episode seed {_running[0]} still running after {DEADLINE_S} s")
        return 1
    finally:
        signal.alarm(0)
    for line in lines:
        print(line)
    for metric, (value, unit) in result.items():
        print(f"  {metric:<36} {value:>18.6f} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    correct = not errors
    metrics = {m: {"value": v, "unit": u} for m, (v, u) in result.items()} if correct else {}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.outcome.attempted for r in runs),
                "failed": sum(r.outcome.failed for r in runs),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
