"""The two fleet workloads: trace-mode ``FleetSimulator.run`` in simulated
time on one thread, over one small package.

Both run the same serve-layer code on the same package; they differ only in
how many transfers overlap on the shared uplink, which decides whether
per-session logic or the fair-share pool dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import DcsrClient
from repro.obs import Observability, span_to_dict
from repro.serve import FleetConfig, FleetSimulator

from . import harness, inputs, layers
from .harness import Outcome


@dataclass(frozen=True)
class FleetWorkload:
    name: str
    sessions: int
    quick_sessions: int
    arrival: str
    bandwidth_bps: float
    #: Runs per window of ``harness.best_window``, ~0.6 s of work.
    window_runs: int

    def config(self, seed: int, quick: bool) -> FleetConfig:
        return FleetConfig(
            sessions=self.quick_sessions if quick else self.sessions,
            mode="trace", arrival=self.arrival,
            bandwidth_bps=self.bandwidth_bps, latency_s=0.005,
            fail_rate=0.02, retries=3, edges=8,
            cache_admission="second-hit", fallback=True, seed=seed)


WORKLOADS = {
    # ~2 transfers overlap at the peak: wall time is per-session logic.
    "fleet_sparse": FleetWorkload(
        name="fleet_sparse", sessions=1500, quick_sessions=200,
        arrival="poisson:100.0", bandwidth_bps=1e9, window_runs=2),
    # ~150 transfers overlap: fair-share charging in the pool is quadratic
    # in concurrency and takes over (~3.7 vs ~0.16 ms per session).
    "fleet_contended": FleetWorkload(
        name="fleet_contended", sessions=150, quick_sessions=40,
        arrival="poisson:500.0", bandwidth_bps=1e6, window_runs=1),
}


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    telemetry: object

    @property
    def invariants(self) -> tuple:
        t = self.telemetry
        return (t.completed, t.events_processed, t.origin_offload)


def fleet_run(package, config: FleetConfig, tracer=None) -> Run:
    clock = harness.wall()
    wall0, cpu0 = clock.now(), harness.cpu_seconds()
    if tracer is None:
        result = FleetSimulator(package, config).run()
    else:
        with tracer.span("serve.FleetSimulator.run", stage="serve",
                         sessions=config.sessions):
            result = FleetSimulator(package, config).run()
    return Run(wall_s=clock.now() - wall0,
               cpu_s=harness.cpu_seconds() - cpu0,
               telemetry=result.telemetry)


def _warm_up(package, config: FleetConfig, outcome: Outcome) -> Run:
    """The untimed first run; every later run must repeat its outcome."""
    reference = fleet_run(package, config)
    outcome.check(reference.telemetry.completed == config.sessions,
                  f"only {reference.telemetry.completed} of "
                  f"{config.sessions} sessions completed")
    return reference


def _count_runs(outcome: Outcome, runs: list[Run], reference: Run,
                sessions: int) -> None:
    """Every repeat simulates the same fleet, so its simulated outcome must
    repeat exactly; a session that did not complete is a failed operation."""
    for run in runs:
        outcome.attempted += sessions
        outcome.failed += sessions - run.telemetry.completed
        if run.invariants != reference.invariants:
            outcome.failed += sessions
            outcome.problems.append(
                f"fleet repeat diverged: {run.invariants} != "
                f"{reference.invariants}")


def run_untraced(workload: FleetWorkload, seed: int, seconds: float,
                 quick: bool) -> Outcome:
    outcome = Outcome()
    config = workload.config(seed, quick)
    rounds = 1 if quick else harness.SETUP_REPEATS
    setups, windows, reference = [], [], None
    for (_clip, package), setup_s in harness.setup_rounds(
            lambda: inputs.build(inputs.SMALL_PACKAGE, seed, workload.name),
            rounds):
        setups.append(setup_s)
        if reference is None:
            reference = _warm_up(package, config, outcome)
        runs = harness.repeat_for(
            seconds / rounds, 1, lambda: fleet_run(package, config))
        _count_runs(outcome, runs, reference, config.sessions)
        windows += harness.windows_of(runs, workload.window_runs)

    outcome.metrics = {
        "throughput_per_s": harness.best_window(
            windows, lambda r: config.sessions / r.wall_s, "higher"),
        "latency_ms_p50": harness.best_window(
            windows, lambda r: 1e3 * r.wall_s, "lower"),
        "setup_s": min(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    outcome.samples = {"setups": len(setups),
                       "repeats": sum(len(w) for w in windows),
                       "sessions_per_repeat": config.sessions}
    return outcome


def _playback_fleet(package, outcome: Outcome) -> float:
    """Four full playback sessions; each must emit the plain client's
    frames (the fleet-of-one == client contract, four times over)."""
    plain = DcsrClient(package).play()
    clock = harness.wall()
    start = clock.now()
    result = FleetSimulator(
        package, FleetConfig(sessions=4, mode="playback")).run()
    seconds = clock.now() - start
    for session in result.completed():
        same = len(session.result.frames) == len(plain.frames) and all(
            np.array_equal(a, b)
            for a, b in zip(session.result.frames, plain.frames))
        outcome.check(same, f"playback-mode session {session.session_id} "
                            "frames differ from a plain client's")
    outcome.check(len(result.completed()) == 4,
                  "playback-mode fleet did not complete 4 sessions")
    return seconds / 4


def run_traced(workload: FleetWorkload, seed: int, seconds: float,
               quick: bool) -> Outcome:
    outcome = Outcome()
    _clip, package = inputs.build(inputs.SMALL_PACKAGE, seed, workload.name)
    config = workload.config(seed, quick)
    reference = _warm_up(package, config, outcome)
    half_s = seconds * harness.TRACED_MEASURE_SHARE / 2
    bare = harness.repeat_for(half_s, 1 if quick else 2,
                              lambda: fleet_run(package, config))
    obs = Observability(root_name=workload.name)
    traced = harness.repeat_for(
        half_s, 1 if quick else 2,
        lambda: fleet_run(package, config, tracer=obs.tracer))
    _count_runs(outcome, bare + traced, reference, config.sessions)

    t = reference.telemetry
    run_wall = harness.median(r.wall_s for r in traced)
    m = outcome.metrics
    m["serve.events_per_s"] = t.events_processed / run_wall
    m["serve.events_per_session"] = t.events_processed / config.sessions
    m["serve.peak_concurrency"] = t.peak_network_concurrency
    m["serve.origin_offload"] = t.origin_offload
    m["serve.edge_hit_rate"] = t.cache_hit_rate
    m["serve.bare_loop_events_per_s"] = layers.bare_loop_events_per_s(
        2000 if quick else 20000)
    m["serve.playback_s_per_session"] = _playback_fleet(package, outcome)
    m["bench.trace_overhead_share"] = \
        run_wall / harness.median(r.wall_s for r in bare) - 1.0
    m["bench.cpu_ms_per_unit"] = harness.median(
        1e3 * r.cpu_s / config.sessions for r in bare)
    build = package.telemetry.stage_seconds
    for name in ("split", "embed", "cluster", "train", "quantize"):
        m[f"server.{name}_s"] = build.get(name, 0.0)
    outcome.samples = {"repeats": len(traced),
                       "sessions_per_repeat": config.sessions}
    outcome.spans = span_to_dict(obs.tracer.root)
    return outcome
