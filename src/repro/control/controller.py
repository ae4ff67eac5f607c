"""Joint (ladder rung, model tier, SR-mode) controllers.

The control problem follows the adaptive-SR literature (delay/power-aware
quality control, arxiv 2110.05783; bitrate/energy-optimized "green
streaming", arxiv 2402.03513): at every segment boundary pick the tuple
that maximizes expected quality subject to a bandwidth estimate *and* a
client power budget.

- :class:`GreedyKnapsackController` — the baseline joint policy: treat SR
  configurations as knapsack items valued by quality uplift and weighed by
  joules + model bits, and greedily take the densest affordable upgrade
  over the best plain-ABR rung.
- :class:`FixedController` — rung-only throughput ABR with a pinned SR
  configuration (always-off or always-on-at-tier); the fixed points the
  benchmark frontier compares the joint policy against.

Controllers are deterministic: the same context sequence and feedback
produces the same decision sequence, bit for bit.
"""

from __future__ import annotations

from ..abr.policies import SAFETY
from ..devices import DeviceSpec
from .context import ControlContext, ControlDecision, SrOption
from .energy import segment_energy

__all__ = ["JointController", "GreedyKnapsackController", "FixedController",
           "CONTROLLER_NAMES", "build_controller"]


class JointController:
    """Base joint controller: decision loop plus realized-energy state.

    ``power_budget_w`` caps the *session-average* rail power: a candidate
    is power-feasible only if playing it keeps cumulative joules at or
    under ``budget x played seconds``.  ``None`` means unconstrained.
    The client calls :meth:`feedback` with realized energy after each
    segment, so the budget binds on what actually happened, not on the
    controller's own predictions.
    """

    name = "joint"

    def __init__(self, device: DeviceSpec,
                 power_budget_w: float | None = None):
        if power_budget_w is not None and power_budget_w <= 0:
            raise ValueError("power_budget_w must be positive (or None)")
        self.device = device
        self.power_budget_w = power_budget_w
        self.energy_spent_j = 0.0
        self.played_seconds = 0.0
        self.decisions: list[ControlDecision] = []

    def decide(self, ctx: ControlContext) -> ControlDecision:
        decision = self._decide(ctx)
        self.decisions.append(decision)
        return decision

    def _decide(self, ctx: ControlContext) -> ControlDecision:
        raise NotImplementedError

    def feedback(self, energy_j: float, seconds: float) -> None:
        """Fold one segment's *realized* energy into the budget state."""
        if energy_j < 0 or seconds < 0:
            raise ValueError("feedback must be non-negative")
        self.energy_spent_j += float(energy_j)
        self.played_seconds += float(seconds)

    @property
    def mean_power_w(self) -> float:
        if self.played_seconds <= 0:
            return 0.0
        return self.energy_spent_j / self.played_seconds

    def power_feasible(self, energy_j: float, seconds: float) -> bool:
        if self.power_budget_w is None:
            return True
        total_s = self.played_seconds + seconds
        if total_s <= 0:
            return True
        return (self.energy_spent_j + energy_j
                <= self.power_budget_w * total_s)

    def reset(self) -> None:
        """Forget all session state (for replaying another session)."""
        self.energy_spent_j = 0.0
        self.played_seconds = 0.0
        self.decisions = []


class GreedyKnapsackController(JointController):
    """Greedy knapsack baseline over the joint decision space.

    Per segment: (1) pick the best bandwidth-feasible rung with SR off —
    classic throughput ABR, the guaranteed-playable floor; (2) enumerate
    every (rung, tier, precision) candidate that fits the bandwidth budget
    (segment bits + model bits owed) *and* the session power budget;
    (3) among candidates that beat the floor's quality, take the one with
    the highest quality-uplift-per-SR-joule density.  A buffer thinner
    than one segment forces the cheapest rung with SR off — stall
    avoidance outranks quality.  The bandwidth budget is the ABR
    policies' :data:`~repro.abr.policies.SAFETY` share of the throughput.
    """

    name = "greedy"

    def _decide(self, ctx: ControlContext) -> ControlDecision:
        off = ctx.off_option
        off_energy = segment_energy(self.device, ctx.segment_seconds)
        worst = ctx.n_levels - 1
        if ctx.buffer_s < ctx.segment_seconds and ctx.segment > 0:
            return ControlDecision(
                segment=ctx.segment, level=worst, option=off,
                quality_db=ctx.rung_quality_db[worst],
                energy_j=off_energy.energy_j,
                download_bits=ctx.rung_bits[worst])

        budget_bits = SAFETY * ctx.throughput_bps * ctx.segment_seconds
        floor: ControlDecision | None = None
        upgrades: list[tuple[ControlDecision, float]] = []
        for option in ctx.sr_options:
            if option.enabled:
                energy = segment_energy(
                    self.device, ctx.segment_seconds,
                    option.flops_per_inference, ctx.n_inferences)
                if not self.power_feasible(energy.energy_j,
                                           ctx.segment_seconds):
                    continue
            else:
                energy = off_energy
            for level in range(ctx.n_levels):
                bits = ctx.rung_bits[level] + option.model_bits
                if bits > budget_bits:
                    continue
                quality = ctx.rung_quality_db[level] + option.gain_db
                decision = ControlDecision(
                    segment=ctx.segment, level=level, option=option,
                    quality_db=quality, energy_j=energy.energy_j,
                    download_bits=bits)
                if not option.enabled:
                    if (floor is None or quality > floor.quality_db
                            or (quality == floor.quality_db
                                and bits < floor.download_bits)):
                        floor = decision
                else:
                    upgrades.append((decision, energy.sr_j))

        if floor is None:
            # Nothing fits the bandwidth budget: take the cheapest rung
            # with SR off and eat the stall.
            return ControlDecision(
                segment=ctx.segment, level=worst, option=off,
                quality_db=ctx.rung_quality_db[worst],
                energy_j=off_energy.energy_j,
                download_bits=ctx.rung_bits[worst])

        best = floor
        best_rank: tuple | None = None
        for decision, sr_j in upgrades:
            uplift = decision.quality_db - floor.quality_db
            if uplift <= 0:
                continue
            density = uplift / max(sr_j, 1e-9)
            # Deterministic preference: densest first, then higher quality,
            # then fewer joules/bits, then the stable option identity.
            rank = (-density, -decision.quality_db, decision.energy_j,
                    decision.download_bits, decision.level,
                    decision.option.tier or "", decision.option.precision)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = decision
        return best


class FixedController(JointController):
    """Rung-only throughput ABR with a pinned SR configuration.

    The fixed points of the frontier: ``tier=None`` reproduces plain
    rate-based ABR (SR never runs); a named tier keeps SR always on at
    that tier/precision, charging the model download but never letting it
    — or the power budget — influence the rung choice.  What the joint
    controller must beat.
    """

    name = "fixed"

    def __init__(self, device: DeviceSpec, tier: str | None = None,
                 precision: str = "fp32",
                 power_budget_w: float | None = None):
        super().__init__(device, power_budget_w)
        self.tier = tier
        self.precision = precision

    def _option(self, ctx: ControlContext) -> SrOption:
        if self.tier is None:
            return ctx.off_option
        for option in ctx.sr_options:
            if option.tier == self.tier and option.precision == self.precision:
                return option
        return ctx.off_option  # tier not published for this segment

    def _decide(self, ctx: ControlContext) -> ControlDecision:
        budget_bps = SAFETY * ctx.throughput_bps
        level = ctx.n_levels - 1
        for candidate in range(ctx.n_levels):  # best quality first
            if ctx.rung_bits[candidate] / ctx.segment_seconds <= budget_bps:
                level = candidate
                break
        option = self._option(ctx)
        energy = segment_energy(
            self.device, ctx.segment_seconds,
            option.flops_per_inference if option.enabled else 0.0,
            ctx.n_inferences if option.enabled else 0)
        return ControlDecision(
            segment=ctx.segment, level=level, option=option,
            quality_db=ctx.rung_quality_db[level] + option.gain_db,
            energy_j=energy.energy_j,
            download_bits=ctx.rung_bits[level] + option.model_bits)


#: Names :func:`build_controller` (and the CLI ``--controller`` flag)
#: accepts.  ``"off"`` disables joint control entirely.
CONTROLLER_NAMES = ("greedy", "fixed", "off")


def build_controller(
    name: str, device: DeviceSpec, power_budget_w: float | None = None,
    tier: str | None = None,
) -> JointController | None:
    """Controller factory keyed by :data:`CONTROLLER_NAMES`.

    ``"off"`` returns ``None`` — callers treat that as "keep the
    pre-controller code path", which stays bitwise-identical.
    """
    if name == "greedy":
        return GreedyKnapsackController(device, power_budget_w=power_budget_w)
    if name == "fixed":
        return FixedController(device, tier=tier,
                               power_budget_w=power_budget_w)
    if name == "off":
        return None
    raise ValueError(
        f"unknown controller {name!r}; choose from {CONTROLLER_NAMES}")
