"""Two-stage antenna position optimization over a movement region.

Stage one places the antenna at the argmax of a gain field simulated from
estimated path state information; no measurements are spent. Stage two is a
derivative-free compass search driven by live power measurements through a
MeasurementChannel, halving the step until it falls under the positioning
accuracy of the slide track or the measurement budget runs out.

Every probe follows the hardware protocol: command a move, wait for the
acknowledgment, then measure. A channel that fails to acknowledge aborts
the search with the partial trace preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .channel import MovementRegion, PathStateInfo, Position, gain_field, gain_map
from .powermeter import measure_power
from .signals import NoiseSpec, add_noise, apply_channel, derive_seed, gen_tone

# slide track positioning accuracy; steps below this are not executable
POSITIONING_ACCURACY_M = 0.05e-3

# compass pattern: +x, -x, +y, -y
COMPASS_PATTERN = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


@runtime_checkable
class MeasurementChannel(Protocol):
    """Protocol to the measurement hardware: move, acknowledge, measure."""

    def move(self, position: Position) -> bool:
        """Command a move; True means the position was reached."""
        ...

    def measure(self) -> float:
        """One power measurement (dBr) at the current position."""
        ...


@dataclass(frozen=True)
class MoveResult:
    final_position: Position
    final_power_dbr: float
    measurements_used: int
    trace: tuple[tuple[Position, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "final_position_m": [self.final_position.x_m, self.final_position.y_m],
            "final_power_dbr": self.final_power_dbr,
            "measurements_used": self.measurements_used,
            "trace": [
                {"x_m": p.x_m, "y_m": p.y_m, "power_dbr": v} for p, v in self.trace
            ],
        }


class MoveAborted(RuntimeError):
    """Channel failed mid-search; partial holds the trace collected so far."""

    def __init__(self, message: str, partial: MoveResult):
        super().__init__(message)
        self.partial = partial


class SimulatedSlideTrack:
    """MeasurementChannel backed by the synthetic channel model.

    Each measure() synthesizes a fresh tone capture at the current position
    (independent noise per probe, seeded from master_seed and the probe
    counter) and meters it with the single-bin DFT of `measure_power` on
    the default bin grid. An event log of ("move"|"ack"|"measure", position)
    tuples is kept for protocol audits.
    """

    def __init__(
        self,
        psi: PathStateInfo,
        region: MovementRegion,
        noise: NoiseSpec,
        f0_hz: float,
        num_samples: int,
        master_seed: int,
    ):
        self.psi = psi
        self.region = region
        self.noise = noise
        self.f0_hz = f0_hz
        self.num_samples = num_samples
        self.master_seed = master_seed
        self.sample_interval_s = 1.0 / noise.bandwidth_hz
        self.events: list[tuple[str, Position]] = []
        self._position: Position | None = None
        self._probes = 0
        self._tone = gen_tone(f0_hz, num_samples, self.sample_interval_s)

    def move(self, position: Position) -> bool:
        self.events.append(("move", position))
        if not self.region.contains(position):
            return False
        self._position = position
        self.events.append(("ack", position))
        return True

    def measure(self) -> float:
        if self._position is None:
            raise RuntimeError("measure() before any acknowledged move")
        self.events.append(("measure", self._position))
        seed = derive_seed(self.master_seed, "probe", self._probes)
        self._probes += 1
        rx = apply_channel(self._tone, self.psi, self._position)
        return measure_power(add_noise(rx, self.noise, seed), self.sample_interval_s, self.f0_hz).power_db


def coarse_position(psi: PathStateInfo, region: MovementRegion) -> Position:
    """Argmax of the gain field simulated from estimated PSI over the region grid.

    Ties go to the smallest (y, then x) grid point. Costs no measurements.
    """
    return gain_map(psi, region).argmax_position()


def _probe(channel: MeasurementChannel, position: Position, trace: list) -> float:
    if not channel.move(position):
        partial = _result_from_trace(trace)
        raise MoveAborted(f"move to ({position.x_m}, {position.y_m}) not acknowledged", partial)
    power = channel.measure()
    trace.append((position, power))
    return power


def _result_from_trace(trace: list) -> MoveResult:
    if not trace:
        return MoveResult(Position(0.0, 0.0), -np.inf, 0, ())
    best = max(range(len(trace)), key=lambda i: trace[i][1])
    return MoveResult(
        final_position=trace[best][0],
        final_power_dbr=trace[best][1],
        measurements_used=len(trace),
        trace=tuple(trace),
    )


def refine(
    channel: MeasurementChannel, region: MovementRegion, start: Position, refine_step_m: float, budget: int
) -> MoveResult:
    """Measurement-driven compass search from the coarse position start.

    Probes the pattern around the incumbent at the current step (clamped to
    the region); moves the incumbent on improvement, halves the step
    otherwise, and stops when the budget is exhausted or the step drops
    below the slide track positioning accuracy.
    """
    if not (math.isfinite(refine_step_m) and refine_step_m > 0.0):
        raise ValueError(f"refine_step_m must be finite and > 0: {refine_step_m}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1: {budget}")
    trace: list[tuple[Position, float]] = []
    incumbent = region.clamp(start.x_m, start.y_m)
    best_power = _probe(channel, incumbent, trace)
    step = refine_step_m
    while step >= POSITIONING_ACCURACY_M and len(trace) < budget:
        candidates = []
        for dx, dy in COMPASS_PATTERN:
            cand = region.clamp(incumbent.x_m + step * dx, incumbent.y_m + step * dy)
            if cand != incumbent and cand not in candidates:
                candidates.append(cand)
        improved = False
        for cand in candidates:
            if len(trace) >= budget:
                break
            power = _probe(channel, cand, trace)
            if power > best_power:
                best_power = power
                incumbent = cand
                improved = True
        if not improved:
            step /= 2.0
    return _result_from_trace(trace)


def brute_force_best(psi: PathStateInfo, region: MovementRegion) -> tuple[Position, float]:
    """Oracle: exhaustive linear gain over the region grid, (position, gain), ties as in coarse_position."""
    xs, ys = region.grid_x(), region.grid_y()
    gain = gain_field(psi, xs, ys)
    iy, ix = np.unravel_index(int(np.argmax(gain)), gain.shape)
    return Position(float(xs[ix]), float(ys[iy])), float(gain[iy, ix])


def optimize(
    psi: PathStateInfo, region: MovementRegion, channel: MeasurementChannel, refine_step_m: float, budget: int
) -> MoveResult:
    """Two-stage optimization: simulated coarse placement, then measured refinement."""
    return refine(channel, region, coarse_position(psi, region), refine_step_m, budget)
