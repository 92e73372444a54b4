"""The three workloads, each a list of seeded episodes.

An episode is one simulated world: ``Episode(seed)`` builds it (the
timed set-up), ``run()`` drives ``sim.run`` to the fixed horizon (the
timed run), and ``finish()`` reads the outcome and checks it (untimed).
Every generator is open loop in simulated time: each operation is
scheduled at its due time during set-up, and the episode records how
late it actually issued (zero by construction; the run asserts it).

Episode seeds are ``seed * 1000 + j``; the episode count per workload
is fixed, so a seed fixes every input of a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.chaos import FaultInjector, InvariantSuite, Nemesis
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.nf.ddos import DdosDetectorNF
from repro.nf.firewall import FirewallNF
from repro.obs.accessprof import AccessProfiler
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.protocols.sro import RETRY_HORIZON
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch
from repro.testing import build_nf_world
from repro.workload.attack import AttackScenario
from repro.workload.flows import FlowGenerator
from repro.workload.zipf import ZipfSampler

from stats import censored_latencies, packet_failures


@dataclass
class Outcome:
    """What one episode did, in simulated terms only (no host time)."""

    digest: str
    attempted: int
    failed: int
    #: Latest an operation issued after its due time (sim seconds).
    lateness: float
    #: Operations whose due time the generator fixed (lateness sample size).
    timed_ops: int
    samples: Dict[str, List[float]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Deterministic per-layer work counters (stats objects, kernel).
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _kernel_counters(sim: Simulator) -> Dict[str, float]:
    return {
        "sim.events": sim.events_processed,
        "sim.events_cancelled": sim.events_cancelled,
        "sim.peak_queue": sim.peak_queue_len,
    }


def _deployment_counters(dep: SwiShmemDeployment) -> Dict[str, float]:
    """Sum the stats objects every layer keeps (deterministic)."""
    out: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    for link in dep.topo.links:
        for channel in (link.ab, link.ba):
            add("net.pkts_sent", channel.stats.packets_sent)
            add("net.bytes_sent", channel.stats.bytes_sent)
            add("net.pkts_dropped", channel.stats.packets_dropped)
    for switch in dep.switches:
        add("switch.rx_pkts", switch.stats.rx_packets)
        add("switch.multicast_copies", switch.stats.multicast_copies)
    for name in dep.switch_names:
        manager = dep.manager(name)
        for state in manager.sro.groups.values():
            stats = state.stats
            add("sro.writes_initiated", stats.writes_initiated)
            add("sro.writes_committed", stats.writes_committed)
            add("sro.retries", stats.retries)
            add("sro.chain_updates", stats.chain_updates_seen)
            add("sro.out_of_order_drops", stats.out_of_order_drops)
            add("sro.reorder_stashed", stats.reorder_stashed)
        for state in manager.ewo.groups.values():
            stats = state.stats
            add("ewo.update_pkts", stats.update_packets_sent)
            add("ewo.sync_entries", stats.sync_entries_sent)
            add("ewo.updates_received", stats.updates_received)
            add("ewo.merges_applied", stats.merges_applied)
    add("controller.heartbeats", dep.controller.heartbeats_received)
    add("controller.leader_changes", dep.controller.leader_changes)
    out.update(_kernel_counters(dep.sim))
    return out


# ----------------------------------------------------------------------
# sro_lossy_writes
# ----------------------------------------------------------------------
class SroLossyEpisode:
    """Three writers, control-plane SRO writes round-robin over a small
    Zipf-skewed key set, on a 3-switch full mesh with plain link loss
    (ROADMAP item 1's setting), then a settle window as long as a
    writer's whole retry schedule.  No nemesis, obs off."""

    SWITCHES = 3
    LOSS_RATE = 0.05
    WRITES = 2400
    SPACING = 100e-6
    START = 1e-3
    KEYS = 8
    ZIPF_S = 0.9

    def __init__(self, seed: int) -> None:
        sim = self.sim = Simulator()
        rng = SeededRng(seed)
        topo = Topology(sim, rng)
        switches = build_full_mesh(
            topo,
            lambda name: PisaSwitch(
                name, sim, memory_bytes=10 * 1024 * 1024, control_op_latency=20e-6
            ),
            self.SWITCHES,
            loss_rate=self.LOSS_RATE,
            latency=5e-6,
        )
        self.dep = SwiShmemDeployment(sim, topo, switches)
        self.spec = self.dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        self.writers = [self.dep.manager(s.name) for s in switches]
        keys = ZipfSampler(self.KEYS, s=self.ZIPF_S, rng=rng.stream("perfbench:keys"))
        n = self.WRITES
        self.due = [self.START + i * self.SPACING for i in range(n)]
        self.keys = [f"k{keys.sample()}" for _ in range(n)]
        self.commit: List[Optional[float]] = [None] * n
        self.acks: List[Optional[tuple]] = [None] * n
        self.late = 0.0
        self.listener_errors: List[str] = []
        self.dep.commit_listeners.append(self._on_commit)
        for i in range(n):
            sim.schedule_at(self.due[i], self._write, i, label="perfbench-write")
        # Long enough for every writer retry to run out.
        self.horizon = self.due[-1] + RETRY_HORIZON + 1e-3

    def _write(self, i: int) -> None:
        self.late = max(self.late, self.sim.now - self.due[i])
        # The value is the op index: unique, so commits map back to ops.
        self.writers[i % len(self.writers)].register_write(self.spec, self.keys[i], i)

    def _on_commit(self, writer, spec, key, ack) -> None:
        i = ack.value
        if self.commit[i] is not None or self.keys[i] != key:
            self.listener_errors.append(f"write {i}: duplicate or mismatched commit")
            return
        self.commit[i] = self.sim.now
        self.acks[i] = (ack.slot, ack.seq)

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def finish(self) -> Outcome:
        errors = list(self.listener_errors)
        # key -> (slot, seq, op) of its newest committed write
        newest: Dict[str, tuple] = {}
        for i, ack in enumerate(self.acks):
            key = self.keys[i]
            if ack is not None and (key not in newest or ack[1] > newest[key][1]):
                newest[key] = (ack[0], ack[1], i)
        stores = []
        for manager in self.writers:
            state = manager.sro.groups[self.spec.group_id]
            name = manager.switch.name
            for key, (slot, seq, value) in sorted(newest.items()):
                applied = state.pending.applied_seq(slot)
                if applied < seq:
                    errors.append(f"{name}: {key} applied seq {applied} < committed {seq}")
                elif applied == seq and state.store.get(key) != value:
                    held = state.store.get(key)
                    errors.append(f"{name}: {key} holds {held!r}, committed {value}")
            for key, value in state.store.items():
                written = isinstance(value, int) and 0 <= value < len(self.keys)
                if not (written and self.keys[value] == key):
                    errors.append(f"{name}: {key} holds {value!r}, never written to it")
            stores.append(tuple(sorted(state.store.items())))
        failed = sum(1 for c in self.commit if c is None)
        return Outcome(
            digest=_digest(self.commit, self.acks, stores, _kernel_counters(self.sim)),
            attempted=len(self.due),
            failed=failed,
            lateness=self.late,
            timed_ops=len(self.due),
            samples={"commit_lat": censored_latencies(self.due, self.commit, self.horizon)},
            errors=errors,
            counters=_deployment_counters(self.dep),
        )


# ----------------------------------------------------------------------
# nf_dataplane_mix
# ----------------------------------------------------------------------
class NfMixEpisode:
    """FirewallNF (SRO conntrack: write on flow setup, read per packet)
    and DdosDetectorNF(use_sketch=True) (EWO count-min: writes per
    packet, per-write multicast plus the 1 ms sync) on the
    ``build_nf_world`` cluster, loaded by FlowGenerator TCP flows plus
    an AttackScenario burst.  Obs off; servers do not answer, so every
    packet is client to server."""

    CLIENTS = 6
    SERVERS = 6
    DURATION = 20e-3
    TAIL = 5e-3
    FLOW_RATE = 3000.0
    BACKGROUND_PPS = 5000.0
    ATTACK_PPS = 120000.0
    ATTACK_START = 10e-3
    ATTACK_DURATION = 5e-3
    WINDOW = 5e-3
    THRESHOLD = -0.3

    def __init__(self, seed: int) -> None:
        world = self.world = build_nf_world(
            seed=seed, clients=self.CLIENTS, servers=self.SERVERS, responder_servers=False
        )
        self.sim = world.sim
        dep = world.deployment
        self.firewalls = dep.install_nf(FirewallNF)
        self.detectors = dep.install_nf(
            DdosDetectorNF,
            window=self.WINDOW,
            entropy_threshold=self.THRESHOLD,
            min_packets=40,
            use_sketch=True,
        )
        self.flows = FlowGenerator(
            world.sim, world.clients, world.server_ips(), world.rng,
            flow_rate=self.FLOW_RATE, data_packets=8,
        ).start(self.DURATION)
        self.attack = AttackScenario(
            sim=world.sim,
            clients=world.clients,
            server_ips=world.server_ips(),
            rng=world.rng,
            background_pps=self.BACKGROUND_PPS,
            attack_pps=self.ATTACK_PPS,
            attack_start=self.ATTACK_START,
            attack_duration=self.ATTACK_DURATION,
            bot_count=150,
        ).start(self.DURATION)
        self.horizon = self.DURATION + self.TAIL

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def finish(self) -> Outcome:
        world, errors = self.world, []
        attempted = sum(c.sent_count for c in world.clients)
        received = [r for s in world.servers for r in s.received]
        dropped = sum(nf.stats.dropped for nf in self.firewalls + self.detectors)
        failed = packet_failures(attempted, len(received), dropped)
        # Due time of every flow packet: the flow start plus its gaps,
        # accumulated the way the kernel accumulates event times.
        flow_of = {(f.client.ip, f.src_port): f for f in self.flows.flows_started}
        late, timed = 0.0, 0
        first_attack = None
        for r in received:
            pkt = r.packet
            if pkt.tcp is not None:
                flow = flow_of[(pkt.ipv4.src, pkt.tcp.src_port)]
                due = flow.start_at
                for _ in range(pkt.tcp.seq):
                    due += flow.inter_packet_gap
                late = max(late, pkt.created_at - due)
                timed += 1
            elif pkt.ipv4.dst == self.attack.victim_ip and pkt.udp.dst_port == 53:
                if first_attack is None or pkt.created_at < first_attack:
                    first_attack = pkt.created_at
        cluster = {s.name for s in world.cluster}
        window_end = self.attack.attack_end + self.WINDOW
        in_window = []
        for det in self.detectors:
            for t in det.alarms:
                if first_attack is None or not first_attack <= t <= window_end:
                    errors.append(
                        f"{det.manager.switch.name}: alarm at {t * 1e3:.3f} ms outside the attack"
                    )
                elif det.manager.switch.name in cluster:
                    in_window.append((t, det))
        detect = None
        if not in_window:
            errors.append("attack not detected on any cluster switch")
        else:
            detect = min(t for t, _ in in_window) - first_attack
            if not any(d.suspected_victim == self.attack.victim_ip for _, d in in_window):
                errors.append("no cluster alarm names the victim")
        latencies = [r.time - r.packet.created_at for r in received]
        counters = _deployment_counters(world.deployment)
        return Outcome(
            digest=_digest(
                latencies,
                [(d.manager.switch.name, d.alarms, d.suspected_victim) for d in self.detectors],
                [nf.stats.as_dict() for nf in self.firewalls + self.detectors],
                sorted(counters.items()),
            ),
            attempted=attempted,
            failed=failed,
            lateness=late,
            timed_ops=timed,
            samples={"pkt_lat": latencies, "detect": [] if detect is None else [detect]},
            errors=errors,
            counters=counters,
        )


# ----------------------------------------------------------------------
# chaos_soak_observed
# ----------------------------------------------------------------------
#: The objectives the T3 benchmark watches.
SLO_OBJECTIVES = (
    "sro.write_commit p99 < 1ms over 10ms windows",
    "sro.write availability >= 0.999 over 10ms windows",
)


class ChaosSoakEpisode:
    """The F3 soak (``benchmarks/bench_chaos_soak.run_chaos_soak`` with
    ``controller_chaos=True`` and its default length), step for step,
    with every observer attached: metrics, flight recorder, access
    profiler, SLO monitor."""

    SWITCHES = 5
    DURATION = 0.12
    WRITER = "s0"
    PERIOD = 400e-6

    def __init__(self, seed: int) -> None:
        duration, switches = self.DURATION, self.SWITCHES
        sim = self.sim = Simulator()
        topo = Topology(sim, SeededRng(seed))
        nodes = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), switches)
        self.slo = SLOMonitor()
        for objective in SLO_OBJECTIVES:
            self.slo.add_objective(objective)
        dep = self.dep = SwiShmemDeployment(
            sim,
            topo,
            nodes,
            sync_period=1e-3,
            metrics=MetricsRegistry(),
            controller_replicas=3,
            flight_recorder=FlightRecorder(),
            access_profiler=AccessProfiler(),
            slo_monitor=self.slo,
        )
        self.sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        self.ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        self.nemesis = Nemesis(
            seed=seed, duplicate_prob=0.05, delay_prob=0.05, max_delay=100e-6
        ).install(topo)
        injector = self.injector = FaultInjector(dep, seed=seed)
        scripted = f"s{switches - 1}"
        injector.schedule_random(
            start=5e-3,
            horizon=max(duration - 45e-3, 10e-3),
            crashes=2,
            flaps=1,
            bursts=1,
            partitions=1,
            crash_downtime=(5e-3, 15e-3),
            burst_loss=0.05,
            partition_duration=(3e-3, 10e-3),
            protect=[self.WRITER, scripted],
            controller_crashes=1,
            controller_downtime=(20e-3, 35e-3),
        )
        t_crash, down = 8e-3, 10e-3
        injector.crash_recover(t_crash, scripted, down_for=down)
        kill_at = t_crash + down + dep.controller.drain_delay + 30e-6
        injector.crash_leader_for(kill_at, down_for=25e-3)
        self.suite = InvariantSuite(dep).start(period=1e-3)
        self.due: List[float] = []
        self.commit: List[Optional[float]] = []
        self.late = 0.0
        self._next_due = 1e-3
        dep.commit_listeners.append(self._on_commit)
        sim.schedule(self._next_due, self._workload)

    def _workload(self) -> None:
        sim, dep = self.sim, self.dep
        i = len(self.due)
        self.due.append(self._next_due)
        self.commit.append(None)
        self.late = max(self.late, sim.now - self._next_due)
        self._next_due += self.PERIOD
        dep.manager(self.WRITER).register_write(self.sro, f"k{i % 16}", i)
        for name in dep.switch_names:
            if not dep.manager(name).switch.failed:
                dep.manager(name).register_increment(self.ctr, "c", 1)
        if sim.now < self.DURATION - 30e-3:
            sim.schedule(self.PERIOD, self._workload)

    def _on_commit(self, writer, spec, key, ack) -> None:
        if spec is self.sro and self.commit[ack.value] is None:
            self.commit[ack.value] = self.sim.now

    def run(self) -> None:
        self.sim.run(until=self.DURATION)

    def finish(self) -> Outcome:
        report = self.suite.finalize()
        self.slo.finalize(self.sim.now)
        errors = [f"invariant: {v}" for v in report.violations]
        horizon = self.DURATION
        commits = self.suite.commit_times
        gaps = []
        for record in self.injector.log:
            if record.kind == "crash":
                later = [t for t in commits if t > record.at]
                gaps.append((min(later) if later else horizon) - record.at)
        dep = self.dep
        history = (
            self.injector.log_digest(),
            tuple(commits),
            tuple(
                (e.switch, e.failed_at, e.detected_at, e.false_positive)
                for e in dep.controller.failures
            ),
            tuple(tuple(sorted(store.items())) for store in dep.sro_stores(self.sro)),
            tuple(tuple(sorted(state.items())) for state in dep.ewo_states(self.ctr)),
            tuple(sorted(self.nemesis.counters().items())),
            dep.controller.leadership_digest(),
            self.sim.events_processed,
        )
        return Outcome(
            digest=_digest(history, self.commit, len(self.slo.breaches)),
            attempted=len(self.due),
            failed=sum(1 for c in self.commit if c is None),
            lateness=self.late,
            timed_ops=len(self.due),
            samples={
                "commit_lat": censored_latencies(self.due, self.commit, horizon),
                "unavail": gaps,
            },
            errors=errors,
            counters=_deployment_counters(dep),
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    episode: type
    #: Episodes per run (fixed, so a seed fixes the inputs).
    episodes: int
    #: Episodes of a traced run (the first ones of the run's list).
    traced: int
    #: Simulated end-to-end metrics the run must measure (printed).
    metrics: tuple

    def episode_seeds(self, seed: int) -> List[int]:
        return [seed * 1000 + j for j in range(self.episodes)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sro_lossy_writes",
            "SRO chain, kernel timers and controller heartbeats under 5% link loss; "
            "shows the retry-exhaustion wedge as a failure share",
            SroLossyEpisode,
            episodes=5,
            traced=1,
            metrics=("op_fail_frac", "commit_p50_us", "commit_p99_us"),
        ),
        Workload(
            "nf_dataplane_mix",
            "data plane: firewall SRO reads and writes beside DDoS EWO sketch writes "
            "with per-write multicast, where packet cloning dominates",
            NfMixEpisode,
            episodes=3,
            traced=1,
            metrics=("op_fail_frac", "pkt_p50_us", "pkt_p99_us", "detect_us"),
        ),
        Workload(
            "chaos_soak_observed",
            "F3 chaos soak (nemesis, faults, leader kill) with every observer on: "
            "the only workload where obs, chaos and controller failover run",
            ChaosSoakEpisode,
            episodes=34,
            traced=6,
            metrics=("op_fail_frac", "commit_p50_us", "commit_p99_us", "unavail_us"),
        ),
    )
}
