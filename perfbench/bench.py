"""Benchmark child process: set up one workload, run it closed-loop, audit it.

``run.py`` starts this file in a fresh interpreter, once with ``--baseline``
(import everything, do nothing, report peak RSS) and once per measured run.
A run builds the workload's mesh several times (set-up time), then plays
fixed-length closed-loop sample paths drawn from the seed until the time
budget is spent, stamping every epoch from the engine's ``on_epoch``
callback.  Each path is played several times, in rounds spread over the
run, and all plays must agree record for record.  Every epoch and build is
bracketed by a fixed reference loop, so its wall can be reported at a
reference host speed.  The exact-SINR audit runs after the timed region.
The result goes to stdout as one JSON line.

Every layer is measured from outside: the benchmark times its own calls into
``repro.topology``, ``repro.phy``, ``repro.routing`` and ``repro.traffic``,
wraps the scheduler and protocol callables it hands to the engines in
:class:`repro.obs.spans.Span` s, and reads the spans the engines already emit
at ``level="spans"``.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import multiprocessing
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.controlplane import ControlPlaneModel
from repro.core.fdd import fdd_on_network
from repro.obs import Obs, ObsConfig
from repro.obs.spans import BufferRecorder, Span
from repro.phy.gain import received_power_matrix
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.radio import RateTable
from repro.phy.sparse import sparse_gain_model
from repro.routing import build_routing_forest, planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.scheduling.links import forest_link_set
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from repro.traffic import (
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    PoissonArrivals,
    centralized_scheduler,
    distributed_scheduler,
    make_controller,
    plan_for_network,
    rate_aware_scheduler,
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
)
from repro.traffic.epoch import EpochSchedule
from repro.util.rng import spawn

DENSITY_PER_KM2 = 1000.0
SLOT_SECONDS = 0.04
#: The paper's protocol constants (Section VI-A), pinned here so the
#: workloads do not move when an experiment profile is retuned.
PAPER_PROTOCOL = ProtocolConfig(k=5, smbytes=15, id_bits=8)
#: Fixes the routing forest of every workload (see ``build_mesh``).
DEPLOYMENT_SEED = 1
#: E7's uncontrolled FDD knee on the 8x8 grid (pkt/node/slot).
FDD_KNEE = 0.019
#: Wall of ``reference_loop_s`` on the reference host.  Every reported
#: time is scaled to a host that runs the loop in exactly this long.
REFERENCE_LOOP_S = 1e-3


def reference_loop_s() -> float:
    """Wall of a fixed 20,000-step pure-Python loop, the lowest of three.

    It uses nothing under ``src/``, so no change to the program moves it;
    only the host's speed does.  The host this benchmark was written on
    ran it in 0.8-0.9 ms when quiet and up to 1.5x slower for stretches of
    seconds to minutes, when every timing of the program slowed alike.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(wall_s: float, loop_before: float, loop_after: float) -> float:
    """``wall_s`` scaled to the reference host, by the reference loop timed
    right before and right after it."""
    return wall_s * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: mesh shape, engine settings, run length.

    ``epochs`` is the length of one sample path; short paths give a run
    many independent paths, which keeps its figures steady across seeds.
    ``plays`` is how often each path is played, one play per round of the
    run.
    """

    name: str
    side: int
    n_gateways: int
    backend: str  # "dense" | "sparse"
    epochs: int
    epoch_slots: int
    setup_reps: int
    plays: int = 3
    sharded: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fdd-8x8", side=8, n_gateways=4, backend="dense",
                 epochs=5, epoch_slots=300, setup_reps=5),
        # One play of a path takes about a third of a 30 s run, so a run
        # is one path played twice.
        Workload("sparse-10k", side=100, n_gateways=100, backend="sparse",
                 epochs=5, epoch_slots=500, setup_reps=5, plays=2),
        Workload("sharded-24x24", side=24, n_gateways=4, backend="dense",
                 epochs=4, epoch_slots=300, setup_reps=2, sharded=True),
        Workload("flows-8x8", side=8, n_gateways=4, backend="dense",
                 epochs=10, epoch_slots=300, setup_reps=5),
    )
}

SHARDS = 4
SHARD_WORKERS = 2
SHARD_RADIUS_M = 80.0
SHARD_GUARD = 1.0


# --------------------------------------------------------------------------
# Set-up: deploy, gain model, communication graph, forest (and shard plan)
# --------------------------------------------------------------------------


@dataclass
class Mesh:
    network: object
    model: PhysicalInterferenceModel
    links: object
    gateways: np.ndarray
    plan: object
    protocol: ProtocolConfig
    nnz: int
    power_bytes: int
    layer_s: dict[str, float]


def build_mesh(w: Workload) -> Mesh:
    """Deploy and build one workload's mesh, timing each layer call."""
    layer: dict[str, float] = {}

    def timed(name: str, fn: Callable[[], object]):
        with Span(name) as span:
            out = fn()
        layer[name] = span.wall_s
        return out

    network = timed(
        "topology.deploy",
        lambda: grid_network(w.side, w.side, density_per_km2=DENSITY_PER_KM2),
    )
    gateways = planned_gateways(w.side, w.side, w.n_gateways)
    # The deployment, routing tie-breaks included, is part of the workload
    # definition; the seed drives the traffic and protocol randomness.
    forest_rng = spawn(DEPLOYMENT_SEED, "bench-forest", w.name)
    if w.backend == "sparse":
        radio = network.radio
        sgm = timed(
            "phy.model",
            lambda: sparse_gain_model(
                network.positions, network.tx_power_mw, network.propagation, radio
            ),
        )
        model = sgm.interference_model(radio)
        indptr, indices = timed(
            "topology.commgraph",
            lambda: communication_csr(
                sgm.power, radio.noise_mw, radio.beta, budget_mw=sgm.floor_mw
            ),
        )
        forest = timed(
            "routing.forest",
            lambda: build_routing_forest_csr(indptr, indices, gateways, rng=forest_rng),
        )
        nnz = int(sgm.power.nnz)
        # Computed, not measured: one int64 key plus one float64 value per
        # stored entry.
        power_bytes = nnz * (8 + 8)
    else:
        model = timed("phy.model", lambda: network.model)
        adj = timed("topology.commgraph", lambda: network.comm_adj)
        forest = timed(
            "routing.forest",
            lambda: build_routing_forest(adj, gateways, rng=forest_rng),
        )
        nnz = network.n_nodes**2
        power_bytes = int(model.power.nbytes)
    links = forest_link_set(forest, np.zeros(network.n_nodes, dtype=np.int64))
    plan = None
    protocol = PAPER_PROTOCOL
    if w.sharded:
        protocol = backbone_protocol(network)
        plan = timed(
            "traffic.plan",
            lambda: plan_for_network(
                links,
                network,
                n_shards=SHARDS,
                interference_radius_m=SHARD_RADIUS_M,
                guard_factor=SHARD_GUARD,
            ),
        )
    return Mesh(
        network, model, links, gateways, plan, protocol, nnz, power_bytes, layer
    )


def backbone_protocol(network) -> ProtocolConfig:
    """The paper's constants sized for a whole backbone (as E9 sizes them):
    ``K >= ID(GS)`` and an ID width covering every node."""
    diameter = network.interference_diameter()
    k = PAPER_PROTOCOL.k
    if math.isfinite(diameter):
        k = max(k, int(math.ceil(diameter)))
    id_bits = max(PAPER_PROTOCOL.id_bits, int(network.n_nodes - 1).bit_length())
    return replace(PAPER_PROTOCOL, k=k, id_bits=id_bits)


# --------------------------------------------------------------------------
# One play of a sample path
# --------------------------------------------------------------------------


class EpochRow(NamedTuple):
    """The simulated outcome of one epoch, as the determinism check compares it."""

    arrivals: int
    served: int
    delivered: int
    backlog_end: int
    demand_scheduled: int
    schedule_length: int
    overhead_slots: int
    cache_hit: bool
    patched: bool
    control_slots: int
    control_messages: int
    reconciled: int


class Probe:
    """What the benchmark attaches to one engine run.

    Always: the ``on_epoch`` stamp (epoch wall between callbacks), the
    reference loop timed after it (outside the epoch's wall), and the
    per-epoch ``EpochRow`` the determinism check compares.  With
    ``capture``: every schedule the scheduler callable returns (for the
    audit and the schedule digest).  With ``recorder``: spans around the
    scheduler and protocol callables, and the engines' own spans.
    """

    def __init__(self, capture: bool, recorder: BufferRecorder | None):
        self.capture = capture
        self.recorder = recorder
        self.stamps: list[float] = []
        self.loops: list[float] = []
        self.resumes: list[float] = []
        self.records: list[EpochRow] = []
        self.schedules: list = []
        self.memberships = 0
        self.slots = 0
        self.tally: dict[str, int] = dict.fromkeys(
            ("scream_calls", "elections", "handshakes", "rounds"), 0
        )
        self.observe: Callable | None = None

    def make_obs(self) -> Obs | None:
        if self.recorder is None:
            return None
        obs = Obs(ObsConfig(level="spans"))
        obs.recorder = self.recorder
        return obs

    def on_epoch(self, record, queues) -> None:
        if self.observe is not None:
            self.observe(record, queues)
        self.stamps.append(time.perf_counter())
        self.records.append(
            EpochRow(*(getattr(record, name) for name in EpochRow._fields))
        )
        self.loops.append(reference_loop_s())
        self.resumes.append(time.perf_counter())

    def scheduler(self, inner):
        if not self.capture and self.recorder is None:
            return inner
        recorder = self.recorder

        def schedule(links, epoch: int) -> EpochSchedule:
            with Span("scheduling.call", recorder=recorder):
                planned = inner(links, epoch)
            slots = planned.schedule.slots
            self.slots += len(slots)
            self.memberships += sum(len(s) for s in slots)
            if self.capture:
                self.schedules.append((None, planned.schedule))
            return planned

        return schedule

    def protocol(self, inner):
        if self.recorder is None:
            return inner
        recorder = self.recorder

        def protocol(*args, **kwargs):
            with Span("core.protocol", recorder=recorder):
                result = inner(*args, **kwargs)
            for key in self.tally:
                self.tally[key] += getattr(result.tally, key)
            return result

        return protocol

    def shard_factory(self, inner):
        """Wrap a shard scheduler factory so each shard's schedules are
        captured with the shard's global link indices (thread executor)."""

        def factory(shard, shard_model):
            sched = inner(shard, shard_model)

            def schedule(links, epoch: int) -> EpochSchedule:
                planned = sched(links, epoch)
                self.schedules.append((shard.link_indices, planned.schedule))
                return planned

            return schedule

        return factory


def start_run(w: Workload, mesh: Mesh, seed: int, stream: int, probe: Probe,
              n_epochs: int, executor: str = "process"):
    """Build fresh per-run state and run the engine; return the trace and
    the flow workload (``None`` unless ``flows-8x8``).

    Arrivals, sessions and protocol randomness come from ``seed`` and the
    ``stream`` index: the paths of one run are independent, so a run
    averages over inputs as well as over host noise.
    """
    net = mesh.network
    n = net.n_nodes
    config = EpochConfig(
        epoch_slots=w.epoch_slots, n_epochs=n_epochs, slot_seconds=SLOT_SECONDS
    )
    obs = probe.make_obs()
    if w.name == "fdd-8x8":
        scheduler = distributed_scheduler(
            net,
            probe.protocol(fdd_on_network),
            config=mesh.protocol,
            seed=spawn(seed, "bench-fdd", stream),
        )
        gen = PoissonArrivals(
            n, 0.0145, gateways=mesh.gateways, seed=spawn(seed, "bench-arrivals", stream)
        )
        trace = run_epochs(
            mesh.links, gen, probe.scheduler(scheduler), config,
            on_epoch=probe.on_epoch, obs=obs,
        )
        return trace, None
    if w.name == "sparse-10k":
        # One packet per node per epoch on average (E13's offered load).
        gen = PoissonArrivals(
            n, 1.0 / w.epoch_slots, gateways=mesh.gateways,
            seed=spawn(seed, "bench-arrivals", stream),
        )
        config = EpochConfig(
            epoch_slots=w.epoch_slots, n_epochs=n_epochs, slot_seconds=SLOT_SECONDS,
            demand_cap=1, retain_records="stream",
        )
        trace = run_epochs(
            mesh.links, gen, probe.scheduler(centralized_scheduler(mesh.model)),
            config, on_epoch=probe.on_epoch, obs=obs,
        )
        return trace, None
    if w.name == "sharded-24x24":
        factory = sharded_distributed_factory(
            net,
            fdd_on_network,
            config=mesh.protocol,
            seed=spawn(seed, "bench-fdd", stream),
        )
        if probe.capture:
            factory = probe.shard_factory(factory)
        gen = PoissonArrivals(
            n, 0.0012, gateways=mesh.gateways, seed=spawn(seed, "bench-arrivals", stream)
        )
        trace = run_epochs_sharded(
            mesh.plan, gen, factory, mesh.model, config,
            max_workers=SHARD_WORKERS if executor == "process" else 1,
            executor=executor, on_epoch=probe.on_epoch, obs=obs,
        )
        return trace, None
    if w.name == "flows-8x8":
        table = RateTable.geometric(
            net.radio.beta, n_tiers=3, sinr_step=2.0, rate_step=2.0, hysteresis=1.25
        )
        n_sources = mesh.links.n_links
        # E10's session population at twice the uncontrolled FDD knee.
        sessions = FlowConfig.for_offered_rate(
            2.0 * FDD_KNEE, n_sources, w.epoch_slots,
            mean_size=30, cbr_fraction=0.3, elastic_rate=0.08, max_size_factor=10.0,
        )
        workload = FlowWorkload(
            mesh.links, sessions, controller=make_controller("knee-tracker"),
            seed=spawn(seed, "bench-sessions", stream),
        )
        probe.observe = workload.observe
        config = EpochConfig(
            epoch_slots=w.epoch_slots, n_epochs=n_epochs, slot_seconds=SLOT_SECONDS,
            demand_cap=w.epoch_slots // 10, reschedule_policy="patch",
            rate_table=table,
        )
        trace = run_epochs(
            mesh.links, workload,
            probe.scheduler(rate_aware_scheduler(mesh.model, table)), config,
            model=mesh.model, on_epoch=probe.on_epoch,
            control=ControlPlaneModel.default_priced(), obs=obs,
        )
        return trace, workload
    raise ValueError(f"unknown workload {w.name!r}")


@dataclass
class Rep:
    stream: int
    traced: bool
    engine_s: float
    epoch_walls: list[float]
    ref_walls: list[float]
    records: list[EpochRow]
    sim: dict[str, int]
    probe: Probe
    trace: object


def schedule_digests(schedules) -> list[str]:
    """One digest per captured schedule (slot order and members)."""
    out = []
    for _, schedule in schedules:
        h = hashlib.sha256()
        for slot in schedule.slots:
            h.update(slot.as_array().astype(np.int64).tobytes())
            h.update(b"|")
        out.append(h.hexdigest())
    return out


def run_rep(w: Workload, mesh: Mesh, seed: int, stream: int, traced: bool,
            capture: bool, n_epochs: int, executor: str = "process") -> Rep:
    """One closed-loop run of ``n_epochs`` epochs on sample path ``stream``."""
    probe = Probe(capture=capture, recorder=BufferRecorder() if traced else None)
    gc.collect()
    loop0 = reference_loop_s()
    t0 = time.perf_counter()
    trace, workload = start_run(w, mesh, seed, stream, probe, n_epochs, executor)
    engine_s = time.perf_counter() - t0
    # An epoch runs from the end of the previous epoch's reference loop to
    # its own ``on_epoch`` stamp.
    starts = [t0, *probe.resumes[:-1]]
    walls = [b - a for a, b in zip(starts, probe.stamps)]
    if len(walls) != n_epochs:
        raise RuntimeError(f"{w.name}: ran {len(walls)} epochs, expected {n_epochs}")
    loops = [loop0, *probe.loops]
    ref_walls = [
        at_reference_speed(x, a, b) for x, a, b in zip(walls, loops, loops[1:])
    ]
    sim = sim_counts(probe.records)
    if workload is not None:
        sim["blocked_sessions"] = int(workload.sessions_blocked)
    return Rep(
        stream, traced, engine_s, walls, ref_walls, probe.records, sim, probe, trace
    )


def sim_counts(records: list[EpochRow]) -> dict[str, int]:
    """Exact simulated totals of one path (the report's ``sim`` counts)."""

    def total(name: str) -> int:
        return int(sum(getattr(r, name) for r in records))

    return {
        "arrivals": total("arrivals"),
        "served": total("served"),
        "delivered": total("delivered"),
        "backlog_end": int(records[-1].backlog_end),
        "schedule_slots": total("schedule_length"),
        "overhead_slots": total("overhead_slots"),
        "cache_hits": total("cache_hit"),
        "patched": total("patched"),
        "control_slots": total("control_slots"),
        "control_messages": total("control_messages"),
        "reconciled": total("reconciled"),
    }


# --------------------------------------------------------------------------
# Exact-SINR audit
# --------------------------------------------------------------------------


def audit(mesh: Mesh, schedules, self_check: bool) -> dict:
    """Check every captured slot membership under the exact SINR model.

    Per slot, only the member nodes' received powers are built
    (``received_power_matrix`` on their positions: no cutoff, no far-field
    floor, no ``(n, n)`` matrix), and the members are checked with
    ``PhysicalInterferenceModel.feasible_mask``.  With ``self_check`` the
    same slot is also checked against the network's dense model, and any
    disagreement is reported.
    """
    net = mesh.network
    radio = net.radio
    heads, tails = mesh.links.heads, mesh.links.tails
    memberships = infeasible = mismatched = 0
    worst = math.inf
    for link_indices, schedule in schedules:
        for slot in schedule.slots:
            idx = slot.as_array()
            if idx.size == 0:
                continue
            if link_indices is not None:
                idx = link_indices[idx]
            snd, rcv = heads[idx], tails[idx]
            nodes, local = np.unique(np.concatenate([snd, rcv]), return_inverse=True)
            power = received_power_matrix(
                net.positions[nodes], net.tx_power_mw[nodes], net.propagation
            )
            exact = PhysicalInterferenceModel(power, radio)
            lsnd, lrcv = local[: idx.size], local[idx.size :]
            ok = exact.feasible_mask(lsnd, lrcv)
            data, ack = exact.link_sinrs(lsnd, lrcv)
            worst = min(worst, float(np.minimum(data, ack).min()) / radio.beta)
            memberships += idx.size
            infeasible += int((~ok).sum())
            if self_check and not np.array_equal(ok, net.model.feasible_mask(snd, rcv)):
                mismatched += 1
    return {
        "memberships": memberships,
        "infeasible": infeasible,
        "worst_sinr_over_beta": worst if memberships else None,
        "self_check_mismatched_slots": mismatched if self_check else None,
    }


def unseen_epochs(records: list[EpochRow]) -> int:
    """Epochs whose played schedule no captured scheduler call produced:
    patched epochs, and cache hits replaying a patched schedule."""
    unseen = 0
    from_patch = False
    for row in records:
        if row.demand_scheduled == 0:
            continue
        if row.patched:
            from_patch = True
        elif not row.cache_hit:
            from_patch = False
        unseen += row.patched or (row.cache_hit and from_patch)
    return unseen


# --------------------------------------------------------------------------
# Traced per-layer numbers
# --------------------------------------------------------------------------


def self_times(spans) -> dict[str, tuple[float, int]]:
    """``name -> (self seconds, count)``.

    A span's self time is its wall minus its direct children's walls.  The
    parent of a span at depth ``d`` is the latest-opened span at depth
    ``d - 1`` with the recorded parent name (spans nest on one thread;
    the sharded engine's pool-thread spans are all at depth 0).
    """
    ordered = sorted(spans, key=lambda s: s.seq)
    child_wall = [0.0] * len(ordered)
    last_at_depth: dict[int, int] = {}
    for i, span in enumerate(ordered):
        if span.depth > 0:
            j = last_at_depth.get(span.depth - 1)
            if j is not None and ordered[j].name == span.parent:
                child_wall[j] += span.wall_s
        last_at_depth[span.depth] = i
    out: dict[str, tuple[float, int]] = {}
    for span, covered in zip(ordered, child_wall):
        s, c = out.get(span.name, (0.0, 0))
        out[span.name] = (s + span.wall_s - covered, c + 1)
    return out


def layer_metrics(w: Workload, mesh: Mesh, traced: list[Rep],
                  untraced: list[Rep], setups: list[dict], audit_row: dict) -> dict:
    """Per-layer numbers: set-up layers as medians over the builds, run
    layers as means per traced sample path (``w.epochs`` epochs)."""
    k = len(traced)
    selfs: dict[str, tuple[float, int]] = {}
    for rep in traced:
        for name, (s, c) in self_times(rep.probe.recorder.spans).items():
            s0, c0 = selfs.get(name, (0.0, 0))
            selfs[name] = (s0 + s, c0 + c)

    def self_s(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0] / k

    def mean(fn) -> float:
        return sum(fn(r) for r in traced) / k

    def setup_median(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in setups)

    sched_self = self_s("scheduling.call")
    memberships = mean(lambda r: r.probe.memberships)
    epoch_wall = mean(lambda r: sum(r.epoch_walls))
    # Epoch wall the engine's and the benchmark's spans do not cover: the
    # loop itself, rate annotation, booking, on_epoch feedback.  The
    # sharded fan-out runs on pool threads, so its wall comes from the
    # trace instead of a main-thread span.
    covered = sum(
        selfs.get(name, (0.0, 0))[0]
        for name in (
            "epoch.arrivals", "admission.decide", "epoch.schedule",
            "scheduling.call", "core.protocol", "incremental.patch",
            "epoch.control", "epoch.serve", "sharded.reconcile",
        )
    ) / k
    sharded_cpu = sharded_crit = sharded_wall = 0.0
    if w.sharded:
        sharded_cpu = mean(lambda r: r.trace.scheduling_seconds or 0.0)
        sharded_crit = mean(lambda r: r.trace.critical_path_seconds or 0.0)
        sharded_wall = mean(lambda r: r.trace.scheduling_wall_seconds or 0.0)
        covered += sharded_wall
    reconciled = mean(lambda r: r.sim["reconciled"])
    traced_rate = sum(r.engine_s for r in traced) / k
    untraced_rate = sum(r.engine_s for r in untraced) / len(untraced)
    values = {
        "topology.deploy_s": setup_median("topology.deploy"),
        "topology.commgraph_s": setup_median("topology.commgraph"),
        "phy.model_s": setup_median("phy.model"),
        "routing.forest_s": setup_median("routing.forest"),
        "traffic.plan_s": setup_median("traffic.plan"),
        "phy.nnz": mesh.nnz,
        "phy.power_mib": mesh.power_bytes / 2**20,
        "scheduling.busy_s": sched_self,
        "scheduling.calls": selfs.get("scheduling.call", (0.0, 0))[1] / k,
        "scheduling.memberships": memberships,
        "scheduling.slots": mean(lambda r: r.probe.slots),
        "scheduling.us_per_membership": (
            1e6 * sched_self / memberships if memberships else 0.0
        ),
        "core.protocol_busy_s": self_s("core.protocol"),
        "core.protocol_calls": selfs.get("core.protocol", (0.0, 0))[1] / k,
        "core.scream_calls": mean(lambda r: r.probe.tally["scream_calls"]),
        "core.elections": mean(lambda r: r.probe.tally["elections"]),
        "core.handshakes": mean(lambda r: r.probe.tally["handshakes"]),
        "core.rounds": mean(lambda r: r.probe.tally["rounds"]),
        "incremental.patch_s": self_s("incremental.patch"),
        "incremental.hit_rate": mean(lambda r: r.trace.cache_hit_rate),
        "incremental.patched_epochs": mean(lambda r: r.sim["patched"]),
        "admission.decide_s": self_s("admission.decide"),
        "traffic.arrivals_s": self_s("epoch.arrivals"),
        "control.slots": mean(lambda r: r.sim["control_slots"]),
        "control.messages": mean(lambda r: r.sim["control_messages"]),
        "traffic.serve_s": self_s("epoch.serve"),
        "traffic.control_s": self_s("epoch.control"),
        "traffic.epoch_self_s": epoch_wall - covered,
        "sharded.shard_busy_s": sharded_cpu,
        "sharded.critical_path_s": sharded_crit,
        "sharded.sched_wall_s": sharded_wall,
        "sharded.dispatch_wait_s": sharded_wall - sharded_crit,
        "sharded.reconcile_s": self_s("sharded.reconcile"),
        "sharded.reconciled": reconciled,
        # Path 0's reconciled memberships over the shard memberships the
        # audit saw on the same path.
        "sharded.reconciled_frac": (
            untraced[0].sim["reconciled"] / audit_row["memberships"]
            if w.sharded and audit_row["memberships"] else 0.0
        ),
        "sharded.parallel_eff": (
            sharded_cpu / (sharded_wall * SHARD_WORKERS) if sharded_wall else 0.0
        ),
        "audit.memberships": audit_row["memberships"],
        "audit.infeasible": audit_row["infeasible"],
        "audit.worst_sinr_over_beta": audit_row["worst_sinr_over_beta"] or 0.0,
        "obs.overhead_frac": traced_rate / untraced_rate - 1.0,
    }
    return values


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


def max_rss_kib(who=resource.RUSAGE_SELF) -> int:
    return int(resource.getrusage(who).ru_maxrss)


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers still alive after the run")
        time.sleep(0.01)


def measure(w: Workload, seed: int, seconds: float, traced_mode: bool) -> dict:
    # Sample paths until the budget is spent: at least one, and none that
    # would end past the budget.  The run goes in ``w.plays`` rounds: the
    # first round draws the paths, and every later round replays all of
    # them in the same order, so the plays of one path lie about a round
    # apart.  All plays of a path must agree record for record (the
    # determinism check).  Each epoch's wall is scaled to reference speed by
    # the reference loop timed around it, and an epoch's figure is the
    # lowest over its plays: the host runs slow for seconds to minutes at a
    # time, the scaling takes out most of a slow stretch, and plays spread
    # over the run rarely all land in one.  In traced mode one play of each
    # path is traced, so the tracing overhead compares identical work
    # under the same host conditions.  Path 0 captures its schedules for
    # the audit in its untraced plays.
    #
    # Path 0's first play runs on the first build, and peak RSS is read
    # right after it: memory freed by later builds stays with the
    # allocator in an order-dependent way, and must not leak into the
    # figure.  In the first round every later path rebuilds the mesh
    # ``setup_reps`` times first, so set-up time is sampled across it.
    setups: list[dict] = []
    setup_walls: list[float] = []
    setup_ref_walls: list[float] = []

    def build() -> Mesh:
        gc.collect()
        loop_before = reference_loop_s()
        t0 = time.perf_counter()
        built = build_mesh(w)
        wall = time.perf_counter() - t0
        setup_walls.append(wall)
        setup_ref_walls.append(
            at_reference_speed(wall, loop_before, reference_loop_s())
        )
        setups.append(built.layer_s)
        return built

    def play(stream: int, round_: int) -> Rep:
        # Rotate which round is traced, so play order cannot bias the
        # overhead; path 0's first play is never traced.
        traced = traced_mode and round_ == (stream + 1) % w.plays
        capture = stream == 0 and not traced and not w.sharded
        rep = run_rep(w, mesh, seed, stream, traced, capture, w.epochs)
        reap_children()
        return rep

    paths: list[list[Rep]] = []
    t_start = time.perf_counter()
    mesh = build()
    replay_s = 0.0
    while True:
        for _ in range(w.setup_reps if paths else 0):
            mesh = None
            mesh = build()
        t_play = time.perf_counter()
        paths.append([play(len(paths), 0)])
        replay_s += time.perf_counter() - t_play
        if len(paths) == 1:
            parent_kib = max_rss_kib()
            worker_kib = (
                max_rss_kib(resource.RUSAGE_CHILDREN) if w.sharded else None
            )
        # The run's projected length with one more path: its first-round
        # cost so far, the replays of every path, and one path more.
        first_round_s = time.perf_counter() - t_start
        k = len(paths)
        per_path = (first_round_s + (w.plays - 1) * replay_s) / k
        if per_path * (k + 1) > seconds:
            break
    for round_ in range(1, w.plays):
        for stream, plays in enumerate(paths):
            plays.append(play(stream, round_))
    while len(setup_walls) < w.setup_reps:
        mesh = None
        mesh = build()

    first = paths[0][0]
    mismatched = [
        f"the plays of path {plays[0].stream}"
        for plays in paths
        if any(r.records != plays[0].records or r.sim != plays[0].sim
               for r in plays[1:])
    ]
    if w.sharded:
        # The timed shard schedules live in pool workers.  Replay path 0
        # with the thread executor, whose shard schedulers run in this
        # process, to capture what the audit checks.
        replay = run_rep(w, mesh, seed, 0, False, True, w.epochs, "thread")
        if replay.records != first.records:
            mismatched.append("thread-executor replay of path 0")
        schedules = replay.probe.schedules
        unseen = {
            "reconciled_round": (
                "played rounds are superposed and reconciled inside the engine; "
                "the audit checks the shard schedules of path 0, of which the "
                f"reconcile pass moved {first.sim['reconciled']} memberships"
            )
        }
    else:
        schedules = first.probe.schedules
        digests = schedule_digests(schedules)
        if any(
            schedule_digests(r.probe.schedules) != digests
            for r in paths[0][1:]
            if r.probe.capture
        ):
            mismatched.append("the plays of path 0 produced other schedules")
        unseen = {}
        if w.name == "flows-8x8":
            unseen["patched_schedules"] = (
                f"{unseen_epochs(first.records)} of {w.epochs} epochs played a "
                "schedule patched inside ScheduleCache"
            )
    audit_row = audit(mesh, schedules, self_check=w.backend == "dense")
    audit_row["unseen"] = unseen

    plays = [r for p in paths for r in p]
    untraced = [r for r in plays if not r.traced]
    traced = [r for r in plays if r.traced]
    # Per path, each epoch's lowest wall over its untraced plays, as
    # measured and at reference speed.
    def lowest(field: str) -> list[float]:
        return [
            min(walls)
            for p in paths
            for walls in zip(*(getattr(r, field) for r in p if not r.traced))
        ]
    out = {
        "workload": w.name,
        "seed": seed,
        "exact_model": w.backend == "dense",
        "numpy": np.__version__,
        "setup_walls": setup_walls,
        "setup_ref_walls": setup_ref_walls,
        "paths": len(paths),
        "plays": w.plays,
        "epochs_per_path": w.epochs,
        "epoch_slots": w.epoch_slots,
        "epoch_walls": lowest("epoch_walls"),
        "ref_walls": lowest("ref_walls"),
        "reference_loop_s": {
            "reference": REFERENCE_LOOP_S,
            "median": statistics.median(
                x for p in paths for r in p for x in r.probe.loops
            ),
        },
        "sim_slots": len(paths) * w.epochs * w.epoch_slots,
        "parent_kib": parent_kib,
        "worker_kib": worker_kib,
        "sim": first.sim,
        "schedule_digest": hashlib.sha256(
            "".join(schedule_digests(schedules)).encode()
        ).hexdigest(),
        "determinism_mismatches": mismatched,
        "audit": audit_row,
    }
    if traced_mode:
        out["layers"] = layer_metrics(w, mesh, traced, untraced, setups, audit_row)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.baseline:
        result = {"baseline_kib": max_rss_kib()}
    else:
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
