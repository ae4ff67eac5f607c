"""Multi-session serving simulator: the fleet around the dcSR client.

The paper evaluates one client; the deployment question (ROADMAP north
star) is what happens when thousands of viewers hit the same package.
:class:`FleetSimulator` runs N concurrent sessions against the shared
serving substrate:

- one :class:`~repro.serve.shared_cache.CacheHierarchy` — per-edge model
  caches in front of an origin shield, with configurable admission, so a
  micro model any session downloaded is an edge hit for its neighbours
  and the origin-offload curve is measurable;
- one :class:`~repro.serve.netpool.SharedNetworkPool` — sessions split a
  single simulated uplink fairly instead of each getting a private link,
  optionally behind per-session token-bucket rate limits.

**Everything runs on one thread.**  All time a result depends on is
simulated seconds, so sessions are processes on a deterministic
:class:`~repro.serve.events.EventLoop` (an event heap with ``(time,
seq)`` ordering) rather than OS threads: no GIL contention, no
scheduler nondeterminism, and fleet sizes are bounded by memory, not by
thread count.  Two session engines share that loop:

- ``mode="playback"`` (default) — each session is a full
  :class:`~repro.core.client.DcsrClient` playing real media (decode, SR,
  per-frame quality).  Sessions execute at their admitted start instants
  in deterministic order; a fleet of one is bitwise-equal to a plain
  client on a dedicated link.
- ``mode="trace"`` — each session is a lightweight generator that
  replays the package's *byte trace* (manifest model sizes + encoded
  segment sizes) through the same cache hierarchy, network pool, retry,
  and playout-clock math, but performs no decode or SR.  Sessions
  interleave per segment in sim-time order, which is what makes
  5,000–10,000-session runs practical and gives the fair-share pool a
  causally ordered charge sequence.

Admission control is pure simulated time.  Each session plays for
``n_frames / fps`` simulated seconds; with ``max_sessions = c`` the
fleet behaves as a c-server queue over the arrival schedule — the
``queue`` policy delays a session's start until a slot frees (M/D/c
style), while ``reject`` turns it away when all ``c`` slots are busy at
its arrival instant.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

import numpy as np

from ..control import (
    CONTROLLER_NAMES,
    JointController,
    build_controller,
    segment_energy,
)
from ..core.client import (
    DcsrClient,
    FastPathConfig,
    PlaybackResult,
    PlaybackTelemetry,
)
from ..core.network import RetryPolicy
from ..core.server import DcsrPackage
from ..core.session import (FetchStage, PlayoutClock, count_downloads,
                            record_segment)
from ..core.streaming import session_goodput_bps, stall_ratio
from ..devices import DEVICES, get_device
from ..obs import Observability, cdf_points, format_table
from .events import EventLoop, Until
from .netpool import SharedNetworkPool
from .shared_cache import ADMISSION_POLICIES, CacheHierarchy

__all__ = [
    "FLEET_MODES",
    "FleetConfig",
    "SessionResult",
    "FleetTelemetry",
    "FleetResult",
    "FleetSimulator",
    "arrival_times",
]

#: Accepted values of :attr:`FleetConfig.mode`.
FLEET_MODES = ("playback", "trace")


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run (``cli serve`` mirrors these knobs).

    Parameters
    ----------
    sessions:
        Number of viewer sessions to simulate.
    mode:
        ``"playback"`` runs full :class:`~repro.core.client.DcsrClient`
        sessions (real decode + SR); ``"trace"`` replays the package's
        byte trace through the same serving substrate without media
        compute — the engine for thousand-session runs.
    arrival:
        Arrival schedule: ``"all"`` (everyone at t=0), ``"poisson:<rate>"``
        (seeded exponential inter-arrivals at ``rate`` sessions/s), or
        ``"uniform:<gap>"`` (one session every ``gap`` seconds).
    bandwidth_bps / latency_s / fail_rate / retries:
        The shared uplink: one pool of ``bandwidth_bps`` split fairly
        among active transfers; latency, failure injection, and the retry
        budget apply per session exactly as on a dedicated link.
    rate_limit_bps:
        Optional per-session token-bucket cap in bit/s (burst = one
        second's worth): each session's transfers wait out their token
        deficit before joining the pool.  ``None`` disables the limiter.
    edges:
        Number of edge caches in the CDN hierarchy; sessions shard
        across them by ``session_id % edges``.
    cache_admission:
        Edge admission policy, one of
        :data:`~repro.serve.shared_cache.ADMISSION_POLICIES`
        (``always`` / ``second-hit`` / ``size-aware``).
    cache_capacity:
        LRU bound per edge cache (``None`` = unbounded).
    max_sessions / admission:
        Session admission control: at most ``max_sessions`` sessions
        play concurrently (in simulated time); an arrival beyond that is
        queued until a slot frees (``"queue"``) or turned away
        (``"reject"``).  ``max_sessions=None`` admits everyone at their
        arrival instant.
    fallback:
        Per-session model-fetch fallback (play unenhanced instead of
        raising), as in :class:`~repro.core.client.DcsrClient`.
    fast_path:
        Optional :class:`~repro.core.client.FastPathConfig` every
        playback-mode session plays with (tiling, quantized kernels, the
        skip gate, temporal reuse).  ``None`` plays a client's default,
        ``FastPathConfig(calibrate=False)``.  Ignored in trace mode —
        see ``sr_demand_factor`` (``cli serve --mode trace`` refuses
        ``--reuse`` rather than ignore it).
    sr_demand_factor:
        Trace mode's model of the client fast path: the fraction of a
        session's *nominal* per-I-frame SR FLOPs it would actually
        execute (1.0 = ungated reference compute; a gated + reusing
        client measured in playback mode at, say, 60% skipped and 30%
        reused demands 0.1).  Trace sessions do no media compute, but
        they report the modeled demand per segment
        (``SegmentPlayback.sr_flops``) and the fleet aggregates it — so
        ``cli serve`` capacity numbers reflect what reuse/gating save
        across thousands of sessions.
    devices:
        Per-session device classes (keys of
        :data:`repro.devices.DEVICES`): session ``i`` plays on
        ``devices[i % len(devices)]``.  A fleet with devices models each
        session's rail energy with that device's power curve — in both
        modes — and feeds it to the session's joint controller when one
        is configured.  Empty (the default) disables energy modeling.
    controller:
        Per-session joint (rung, tier, SR-mode) controller, one of
        :data:`repro.control.CONTROLLER_NAMES`.  ``"off"`` (default)
        keeps the pre-controller session paths bit-for-bit.  Anything
        else requires ``devices``; each session gets a private
        controller instance (budget state is per viewer, never shared).
    power_budget_w:
        Session-average power budget handed to each controller (watts);
        ``None`` = unconstrained.
    controller_tier:
        The pinned SR tier of ``controller="fixed"`` (ignored by
        ``"greedy"``); it runs at fp32.
    seed:
        Fleet seed: drives the arrival schedule and derives each
        session's private failure-RNG stream.
    """

    sessions: int = 4
    mode: str = "playback"
    arrival: str = "all"
    bandwidth_bps: float | None = None
    latency_s: float = 0.0
    fail_rate: float = 0.0
    retries: int = 3
    rate_limit_bps: float | None = None
    edges: int = 1
    cache_admission: str = "always"
    cache_capacity: int | None = None
    max_sessions: int | None = None
    admission: str = "queue"
    fallback: bool = False
    fast_path: FastPathConfig | None = None
    sr_demand_factor: float = 1.0
    devices: tuple[str, ...] = ()
    controller: str = "off"
    power_budget_w: float | None = None
    controller_tier: str | None = None
    seed: int = 0

    def device_name_for(self, session_id: int) -> str | None:
        """The device class session ``session_id`` plays on (or ``None``)."""
        if not self.devices:
            return None
        return self.devices[session_id % len(self.devices)]

    def __post_init__(self):
        if self.fast_path is not None \
                and not isinstance(self.fast_path, FastPathConfig):
            raise TypeError("fast_path must be a FastPathConfig or None")
        if not 0.0 <= self.sr_demand_factor <= 1.0:
            raise ValueError(f"sr_demand_factor must be in [0, 1], "
                             f"got {self.sr_demand_factor}")
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.mode not in FLEET_MODES:
            raise ValueError(
                f"mode must be one of {FLEET_MODES}, got {self.mode!r}")
        if self.admission not in ("queue", "reject"):
            raise ValueError(
                f"admission must be 'queue' or 'reject', got {self.admission!r}")
        if self.cache_admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"cache_admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.cache_admission!r}")
        if self.edges < 1:
            raise ValueError(f"edges must be >= 1, got {self.edges}")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1 (or None)")
        if self.rate_limit_bps is not None and self.rate_limit_bps <= 0:
            raise ValueError("rate_limit_bps must be > 0 (or None)")
        for name in self.devices:
            if name.lower() not in DEVICES:
                raise ValueError(f"unknown device {name!r}; "
                                 f"choose from {sorted(DEVICES)}")
        if self.controller not in CONTROLLER_NAMES:
            raise ValueError(
                f"controller must be one of {CONTROLLER_NAMES}, "
                f"got {self.controller!r}")
        if self.controller != "off" and not self.devices:
            raise ValueError("a joint controller needs --device classes "
                             "(energy has no meaning without a power model)")
        if self.mode == "playback" and self.fast_path is not None \
                and self.controller != "off":
            # Each playback session's client runs this check; trace
            # sessions ignore ``fast_path``.
            self.fast_path.validate(self.controller)
        if self.power_budget_w is not None and self.power_budget_w <= 0:
            raise ValueError("power_budget_w must be > 0 (or None)")
        arrival_times(self)     # validates the arrival spec eagerly


def arrival_times(config: FleetConfig) -> list[float]:
    """The seeded simulated arrival instant of every session.

    Session 0 always arrives at t=0; ``poisson:<rate>`` draws exponential
    inter-arrival gaps from ``random.Random(config.seed)`` (bit-identical
    across runs), ``uniform:<gap>`` spaces arrivals evenly.
    """
    spec = config.arrival
    n = config.sessions
    if spec == "all":
        return [0.0] * n
    kind, _, value = spec.partition(":")
    if kind == "poisson":
        try:
            rate = float(value)
        except ValueError:
            rate = -1.0
        if rate <= 0:
            raise ValueError(f"poisson arrival needs a positive rate, "
                             f"got {spec!r}")
        rng = random.Random(config.seed)
        times, t = [], 0.0
        for _ in range(n):
            times.append(t)
            t += rng.expovariate(rate)
        return times
    if kind == "uniform":
        try:
            gap = float(value)
        except ValueError:
            gap = -1.0
        if gap < 0:
            raise ValueError(f"uniform arrival needs a non-negative gap, "
                             f"got {spec!r}")
        return [i * gap for i in range(n)]
    raise ValueError(f"unknown arrival spec {spec!r} "
                     "(expected 'all', 'poisson:<rate>', or 'uniform:<gap>')")


@dataclass
class SessionResult:
    """One session's outcome within a fleet run."""

    session_id: int
    arrival_s: float
    start_s: float              # == arrival_s unless queued by admission
    status: str                 # completed | rejected
    result: PlaybackResult | None = None

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s


@dataclass
class FleetTelemetry:
    """Fleet-level aggregates over every completed session."""

    sessions: int = 0
    completed: int = 0
    rejected: int = 0
    queue_wait_s: float = 0.0           # summed across queued sessions
    aggregate_goodput_bps: float = 0.0  # delivered bits / summed download s
    mean_session_goodput_bps: float = 0.0
    #: Edge hits over *all* model requests, failed fetches included
    #: (``HierarchyStats.requests``).  A session's own
    #: ``PlaybackTelemetry.cache_hit_rate`` divides by the requests that
    #: were served (``CacheStats.requests`` = hits + downloads), so under
    #: ``fail_rate > 0`` the two are not the same ratio even for one
    #: session.
    cache_hit_rate: float = 0.0
    cache_downloads: int = 0
    cache_evictions: int = 0
    #: Fraction of model requests that never read origin storage
    #: (edge hits + origin-shield hits).
    origin_offload: float = 0.0
    edge_hits: int = 0
    origin_fetches: int = 0
    cache_admission_denied: int = 0
    total_model_bytes: int = 0
    total_video_bytes: int = 0
    #: (stall_seconds, cumulative fraction) quantiles across sessions.
    stall_cdf: list[tuple[float, float]] = field(default_factory=list)
    mean_stall_ratio: float = 0.0
    peak_network_concurrency: int = 0
    #: Simulated seconds sessions idled in their token buckets.
    rate_limit_wait_s: float = 0.0
    #: SR FLOPs across sessions: executed (playback mode, where gates and
    #: reuse reduce it directly) or modeled nominal demand scaled by
    #: :attr:`FleetConfig.sr_demand_factor` (trace mode).
    total_sr_flops: float = 0.0
    #: Simulated rail energy summed across sessions (device classes
    #: configured), and mean session quality per joule when measurable.
    total_energy_joules: float = 0.0
    mean_quality_per_joule: float = 0.0
    #: Discrete events the loop processed, and the sim instant it ended.
    events_processed: int = 0
    sim_duration_s: float = 0.0

    def summary_lines(self) -> list[str]:
        """Printable fleet summary (CLI ``serve``), via the shared
        :func:`~repro.obs.format_table` renderer."""
        rows = [
            ["sessions", f"{self.completed}/{self.sessions} completed"
             + (f", {self.rejected} rejected" if self.rejected else "")],
            ["goodput", f"{self.aggregate_goodput_bps / 1e6:.2f} Mbit/s "
             f"aggregate, {self.mean_session_goodput_bps / 1e6:.2f} mean"],
            ["cache", f"{self.cache_hit_rate:.0%} edge hit rate, "
             f"{self.cache_downloads} downloads, "
             f"{self.total_model_bytes} model bytes"],
            ["origin", f"{self.origin_offload:.0%} offload, "
             f"{self.origin_fetches} storage fetches"],
            ["network", f"peak {self.peak_network_concurrency} concurrent "
             f"transfers, {self.total_video_bytes} video bytes"],
            ["stalls", f"{self.mean_stall_ratio:.1%} mean stall ratio"],
            ["events", f"{self.events_processed} processed, "
             f"sim ended at {self.sim_duration_s:.2f}s"],
        ]
        if self.rate_limit_wait_s:
            rows.append(["ratelimit",
                         f"{self.rate_limit_wait_s:.2f}s total bucket wait"])
        if self.total_sr_flops:
            rows.append(["sr demand",
                         f"{self.total_sr_flops / 1e9:.2f} GFLOP "
                         f"across sessions"])
        if self.total_energy_joules:
            line = f"{self.total_energy_joules:.1f} J across sessions"
            if self.mean_quality_per_joule:
                line += f", {self.mean_quality_per_joule:.3f} dB/J mean"
            rows.append(["energy", line])
        if self.cache_admission_denied:
            rows.append(["admission(edge)",
                         f"{self.cache_admission_denied} models not stored"])
        if self.queue_wait_s:
            rows.append(["admission",
                         f"{self.queue_wait_s:.2f}s total queue wait"])
        lines = [f"fleet of {self.sessions} sessions:"]
        lines += ["  " + line
                  for line in format_table("", ["metric", "value"],
                                           rows).splitlines()]
        return lines


@dataclass
class FleetResult:
    """Outcome of one :meth:`FleetSimulator.run`."""

    config: FleetConfig
    sessions: list[SessionResult] = field(default_factory=list)
    telemetry: FleetTelemetry = field(default_factory=FleetTelemetry)
    obs: Observability = field(default_factory=Observability,
                               repr=False, compare=False)

    def completed(self) -> list[SessionResult]:
        return [s for s in self.sessions if s.status == "completed"]


class FleetSimulator:
    """Run one package through a fleet of concurrent streaming sessions.

    All sessions of a run share one :class:`CacheHierarchy`, one
    :class:`SharedNetworkPool`, and this simulator's
    :class:`~repro.obs.Observability` session (per-session subtrees are
    tagged ``session=<id>`` on their ``play``/``session`` spans and
    download counters).  Execution is a single-threaded
    :class:`~repro.serve.events.EventLoop`.  Loop, hierarchy and pool are
    state of one run — each :meth:`run` starts from an empty timeline and
    cold caches — and stay readable afterwards: :attr:`loop` is the
    drained loop (event count, final sim instant, optional history),
    :attr:`cache` and :attr:`pool` what the sessions left behind.
    """

    def __init__(self, package: DcsrPackage, config: FleetConfig,
                 obs: Observability | None = None,
                 network_factory=None):
        if network_factory is not None and config.mode != "playback":
            raise ValueError(
                "network_factory is a playback-mode seam (trace mode "
                "replays bytes through the shared pool, not a transport)")
        self.package = package
        self.config = config
        self.obs = obs or Observability(root_name="fleet")
        #: Optional ``(session_id, arrival_s) -> network`` override: when
        #: set, each playback session downloads through the returned
        #: transport (e.g. :class:`repro.net.HttpTransport` against a real
        #: origin) instead of a :class:`SharedNetworkPool` session, and
        #: ``close()``s it when the session ends.  The serve layer never
        #: imports ``repro.net`` — callers inject it.
        self.network_factory = network_factory
        # The most recent run's state, built by run().
        self.loop: EventLoop | None = None
        self.cache: CacheHierarchy | None = None
        self.pool: SharedNetworkPool | None = None
        self._flops_cache: dict[int, float] = {}

    def _controller_for(self, session_id: int) -> JointController | None:
        """A fresh private controller for one session (or ``None``).

        Budget state (joules spent, seconds played) is per viewer, so
        controllers are never shared between sessions.
        """
        device_name = self.config.device_name_for(session_id)
        if device_name is None or self.config.controller == "off":
            return None
        return build_controller(
            self.config.controller, get_device(device_name),
            power_budget_w=self.config.power_budget_w,
            tier=self.config.controller_tier)

    def _nominal_flops(self, label: int) -> float:
        """Nominal FLOPs of one full-frame forward of ``label``'s base
        model — the unit of trace mode's SR-demand model and of
        uncontrolled sessions' energy model (cached per label)."""
        flops = self._flops_cache.get(label)
        if flops is None:
            model = self.package.models.get(label)
            if model is None:
                flops = 0.0
            else:
                from ..sr.engine import InferenceEngine
                encoded = self.package.encoded
                flops = (InferenceEngine(model).flops_per_pixel()
                         * (encoded.width * encoded.height))
            self._flops_cache[label] = flops
        return flops

    # -------------------------------------------------------------- admission

    def session_duration_s(self) -> float:
        """Simulated seconds one session occupies an admission slot."""
        encoded = self.package.encoded
        n_frames = sum(seg.n_frames for seg in encoded.segments)
        return n_frames / encoded.fps

    def admit(self, arrivals: list[float]) -> list[SessionResult]:
        """Admission control over the arrival schedule (pure sim time).

        Returns one :class:`SessionResult` shell per session, in session
        order: rejected sessions are final, admitted ones carry their
        effective ``start_s`` and are run by :meth:`run`.
        """
        c = self.config.max_sessions
        duration = self.session_duration_s()
        out = []
        if c is None:
            return [SessionResult(i, a, a, "completed")
                    for i, a in enumerate(arrivals)]
        # c servers, each holding the sim time it next comes free.
        servers = [0.0] * c
        heapq.heapify(servers)
        for i, a in enumerate(arrivals):
            free = servers[0]
            if self.config.admission == "reject" and free > a:
                out.append(SessionResult(i, a, a, "rejected"))
                continue
            start = max(a, heapq.heappop(servers))
            heapq.heappush(servers, start + duration)
            out.append(SessionResult(i, a, start, "completed"))
        return out

    # -------------------------------------------------------------- execution

    def run(self, reference: np.ndarray | None = None,
            trace_events: bool = False) -> FleetResult:
        """Drive every admitted session on one event loop; return
        fleet-wide results.

        ``reference`` (the pristine frames) enables per-frame quality
        scoring in each playback-mode session, exactly as in
        :meth:`~repro.core.client.DcsrClient.play`.  ``trace_events``
        records the loop's processed-event history (determinism tests
        compare two histories for bitwise equality).
        """
        config = self.config
        shells = self.admit(arrival_times(config))
        admitted = [s for s in shells if s.status == "completed"]
        for shell in shells:
            if shell.status == "rejected":
                self.obs.metrics.counter(
                    "dcsr_fleet_rejected_total",
                    "Sessions turned away by admission control").inc()

        # Built per run, like the loop: a pool carried over would charge
        # this run against the previous run's transfers (and, with its
        # watermark already past every start, never prune again).
        self.cache = CacheHierarchy(
            edges=config.edges,
            edge_capacity=config.cache_capacity,
            admission=config.cache_admission,
            model_sizes=self.package.manifest.model_sizes)
        self.pool = SharedNetworkPool(
            bandwidth_bps=config.bandwidth_bps, latency_s=config.latency_s,
            fail_rate=config.fail_rate, seed=config.seed,
            rate_limit_bps=config.rate_limit_bps)
        loop = self.loop = EventLoop(trace=trace_events)
        for shell in admitted:
            if config.mode == "trace":
                loop.spawn(self._trace_session(shell), at=shell.start_s,
                           name=f"session-{shell.session_id}")
            else:
                loop.call_at(shell.start_s,
                             self._playback_action(shell, reference),
                             label=f"session-{shell.session_id}")
        loop.run()

        result = FleetResult(config=config, sessions=shells, obs=self.obs)
        self._finalize(result)
        return result

    # ------------------------------------------------------ playback sessions

    def _playback_action(self, shell: SessionResult, reference):
        """One playback session as a single event at its start instant.

        A full client session runs inline when the loop reaches
        ``start_s``: sessions execute in deterministic (start, session)
        order, and every simulated quantity each one records is anchored
        at its own arrival offset on the pool timeline — exactly the
        causal model the threaded scheduler computed, minus the
        nondeterministic charge interleaving.
        """
        def action() -> None:
            self.pool.advance_watermark(shell.start_s)
            shell.result = self._run_session(shell, reference)
        return action

    def _run_session(self, shell: SessionResult,
                     reference) -> PlaybackResult:
        factory = self.network_factory
        network = (factory(shell.session_id, shell.start_s)
                   if factory is not None
                   else self.pool.session(shell.session_id,
                                          arrival_s=shell.start_s))
        controller = self._controller_for(shell.session_id)
        client = DcsrClient(
            self.package,
            network=network,
            retry=RetryPolicy(retries=self.config.retries),
            fallback=self.config.fallback,
            obs=self.obs,
            fast_path=self.config.fast_path,
            model_cache=self.cache.edge_for(shell.session_id),
            span_attrs={"session": shell.session_id},
            controller=controller,
        )
        try:
            result = client.play(reference)
        finally:
            # A factory-made transport owns an event loop (three file
            # descriptors) that outlives the session unless released here.
            if factory is not None:
                network.close()
        device_name = self.config.device_name_for(shell.session_id)
        if controller is None and device_name is not None:
            # Device class without a controller: the client modeled no
            # energy itself, so cost the realized playback (one nominal
            # forward per executed inference) on the session's device.
            self._model_session_energy(result.telemetry, device_name)
        return result

    def _model_session_energy(self, telemetry: PlaybackTelemetry,
                              device_name: str) -> None:
        device = get_device(device_name)
        fps = self.package.encoded.fps
        manifest = self.package.manifest
        for seg_t in telemetry.segments:
            label = manifest.model_label_for(seg_t.index)
            telemetry.energy_joules += segment_energy(
                device, seg_t.n_frames / fps, self._nominal_flops(label),
                seg_t.sr_inferences).energy_j

    # --------------------------------------------------------- trace sessions

    def _trace_session(self, shell: SessionResult):
        """One byte-trace session as an event-loop process.

        The client's session machine with a null decode stage: the same
        :class:`~repro.core.session.FetchStage` (controller decision,
        edge sharing, fair-share pool charges, token buckets,
        retry/backoff, fallback/concealment) and playout clock, with
        nothing between ``fetch`` and ``release``.  Only what is
        fleet-side stays here: yielding to the loop before each segment
        so sessions interleave in sim-time order (the pool's charges
        arrive causally sorted, and the watermark can prune dead
        intervals), the modelled SR demand, and one ``session`` span.
        """
        package = self.package
        config = self.config
        network = self.pool.session(shell.session_id,
                                    arrival_s=shell.start_s)
        device_name = config.device_name_for(shell.session_id)
        stage = FetchStage(
            package, network, RetryPolicy(retries=config.retries),
            config.fallback,
            model_cache=self.cache.edge_for(shell.session_id),
            controller=self._controller_for(shell.session_id),
            device=get_device(device_name) if device_name else None)
        fps = package.encoded.fps
        telemetry = PlaybackTelemetry(native_fps=fps, obs=self.obs)
        result = PlaybackResult(telemetry=telemetry)
        playout = PlayoutClock()

        for segment, encoded_segment in zip(package.segments,
                                            package.encoded.segments):
            # Wake exactly when this session's link is next free: charges
            # hit the pool in global sim-time order across all sessions.
            now = yield Until(shell.start_s + network.clock.now())
            self.pool.advance_watermark(now)

            fetched = stage.fetch(segment, encoded_segment)
            stage.release(fetched)      # the null decode stage
            seg_t = fetched.seg_t
            decision = fetched.decision
            if seg_t.status == "ok" \
                    and (decision is None or decision.sr_enabled):
                # No decode/SR runs, so model the segment's SR demand
                # instead: one forward per I-frame (dcSR enhances
                # I-frames only), scaled by sr_demand_factor — the fleet
                # knob for fast-path savings (skip gate + temporal reuse)
                # measured in playback mode.
                # Under a controller the tier's own FLOPs replace the
                # base model's, and an SR-off decision demands nothing.
                flops = (self._nominal_flops(fetched.label)
                         if decision is None
                         else decision.option.flops_per_inference)
                seg_t.sr_inferences = fetched.n_inferences
                seg_t.sr_flops = (flops * fetched.n_inferences
                                  * config.sr_demand_factor)
            if stage.device is not None:
                stage.feedback(fetched, seg_t.sr_inferences,
                               seg_t.sr_flops / seg_t.sr_inferences
                               if seg_t.sr_inferences else 0.0)
            record_segment(result, telemetry, playout, seg_t)

        stage.settle(result, telemetry)
        count_downloads(self.obs.metrics, stage.download_ledger,
                        session=shell.session_id)
        # One span per session (per-download spans would dominate memory
        # at 5k sessions); stamped against the session's simulated clock
        # so it carries clock="simulated" like client download spans.
        self.obs.tracer.record(
            "session", playout.position_s, clock=network.clock,
            session=shell.session_id, mode="trace",
            segments=len(telemetry.segments))
        shell.result = result

    # ------------------------------------------------------------ aggregation

    def _finalize(self, fleet: FleetResult) -> None:
        t = fleet.telemetry
        config = fleet.config
        completed = fleet.completed()
        t.sessions = config.sessions
        t.completed = len(completed)
        t.rejected = sum(1 for s in fleet.sessions if s.status == "rejected")
        t.queue_wait_s = sum(s.queue_wait_s for s in completed)
        cache = self.cache.stats
        t.cache_hit_rate = cache.hit_rate
        t.cache_downloads = cache.downloads
        t.cache_evictions = self.cache.evictions
        t.origin_offload = cache.origin_offload
        t.edge_hits = cache.edge_hits
        t.origin_fetches = cache.origin_fetches
        t.cache_admission_denied = cache.denied
        t.peak_network_concurrency = self.pool.peak_concurrency
        t.rate_limit_wait_s = self.pool.rate_limit_wait_s
        if self.loop is not None:
            t.events_processed = self.loop.events_processed
            t.sim_duration_s = self.loop.now

        goodputs, stall_ratios, stalls, dbs_per_joule = [], [], [], []
        download_s = 0.0
        for shell in completed:
            result = shell.result
            t.total_model_bytes += result.model_bytes
            t.total_video_bytes += result.video_bytes
            t.total_sr_flops += sum(s.sr_flops
                                    for s in result.telemetry.segments)
            t.total_energy_joules += result.telemetry.energy_joules
            if result.telemetry.energy_joules > 0 and result.psnr_per_frame:
                dbs_per_joule.append(float(np.mean(result.psnr_per_frame))
                                     / result.telemetry.energy_joules)
            goodputs.append(session_goodput_bps(result))
            stall_ratios.append(stall_ratio(result.telemetry))
            stalls.append(result.telemetry.stall_seconds)
            download_s += result.telemetry.stage_seconds.get("download", 0.0)
        if dbs_per_joule:
            t.mean_quality_per_joule = float(np.mean(dbs_per_joule))
        if goodputs:
            t.mean_session_goodput_bps = float(np.mean(goodputs))
            t.mean_stall_ratio = float(np.mean(stall_ratios))
        if download_s > 0:
            t.aggregate_goodput_bps = (
                8.0 * (t.total_model_bytes + t.total_video_bytes)
                / download_s)
        t.stall_cdf = cdf_points(stalls)

        metrics = self.obs.metrics
        metrics.gauge("dcsr_fleet_sessions",
                      "Sessions in the most recent fleet run"
                      ).set(t.sessions)
        metrics.gauge("dcsr_fleet_cache_hit_rate",
                      "Cross-session edge cache hit rate"
                      ).set(t.cache_hit_rate)
        metrics.gauge("dcsr_fleet_origin_offload",
                      "Fraction of model requests kept off origin storage"
                      ).set(t.origin_offload)
        metrics.gauge("dcsr_fleet_goodput_bps",
                      "Aggregate delivered bits per download second"
                      ).set(t.aggregate_goodput_bps)
        metrics.counter("dcsr_fleet_events_total",
                        "Discrete events processed by the fleet loop"
                        ).inc(t.events_processed)
        if t.total_sr_flops:
            metrics.counter("dcsr_fleet_sr_flops_total",
                            "SR FLOPs demanded across fleet sessions"
                            ).inc(t.total_sr_flops)
        if t.total_energy_joules:
            metrics.counter("dcsr_fleet_energy_joules_total",
                            "Simulated rail energy across fleet sessions"
                            ).inc(t.total_energy_joules)
        for seconds in stalls:
            metrics.histogram("dcsr_fleet_stall_seconds",
                              "Per-session simulated stall seconds"
                              ).observe(seconds)
