"""Road network descriptors for the three scenarios: ring, figure-eight, merge."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpec

Interval = tuple[float, float]


@dataclass(frozen=True)
class RingSpec:
    """Single-lane circular track; vehicles drive one closed route."""

    length: float = 230.0

    kind = "ring"

    def validate(self) -> None:
        if self.length <= 0:
            raise InvalidSpec("ring length must be positive")


@dataclass(frozen=True)
class FigureEightSpec:
    """Two circular loops crossing at one shared conflict zone.

    Each loop is a closed route; loop i has circumference 2*pi*loop_radius[i].
    conflict_zone[i] is the arc interval of loop i that overlaps the other
    loop's pavement; two vehicles from different loops inside their zones at
    the same time is a collision.
    """

    loop_radius: tuple[float, float] = (143.0 / (2 * math.pi), 143.0 / (2 * math.pi))
    conflict_zone: tuple[Interval, Interval] = ((0.0, 10.0), (0.0, 10.0))
    # Approaching vehicles within this distance of the zone yield to crossing
    # traffic that is closer to (or inside) the zone.
    yield_window: float = 20.0

    kind = "figure_eight"

    def loop_length(self, route_id: int) -> float:
        return 2.0 * math.pi * self.loop_radius[route_id]

    def validate(self) -> None:
        if any(r <= 0 for r in self.loop_radius):
            raise InvalidSpec("loop radii must be positive")
        for rid, (lo, hi) in enumerate(self.conflict_zone):
            if not (0.0 <= lo < hi <= self.loop_length(rid)):
                raise InvalidSpec(
                    f"conflict zone {lo, hi} must lie within loop {rid} "
                    f"of length {self.loop_length(rid):.3f}")
        if self.yield_window < 0:
            raise InvalidSpec("yield_window must be >= 0")


@dataclass(frozen=True)
class MergeSpec:
    """Open highway with a single on-ramp.

    The ramp joins the highway at merge_point. A ramp vehicle's route is the
    ramp (length ramp_length) followed by the highway tail, so its route
    length is ramp_length + (highway_length - merge_point). Inflows are
    deterministic arrival schedules (one vehicle per 3600/inflow seconds);
    each spawned vehicle is a CAV with probability cav_fraction.
    """

    highway_length: float = 500.0
    ramp_length: float = 100.0
    merge_point: float = 400.0
    inflow_main: float = 1000.0
    inflow_ramp: float = 200.0
    cav_fraction: float = 0.0

    kind = "merge"

    def validate(self) -> None:
        if self.highway_length <= 0 or self.ramp_length <= 0:
            raise InvalidSpec("merge lengths must be positive")
        if not (0.0 < self.merge_point < self.highway_length):
            raise InvalidSpec("merge_point must lie strictly inside the highway")
        if self.inflow_main < 0 or self.inflow_ramp < 0:
            raise InvalidSpec("inflow rates must be >= 0")
        if not (0.0 <= self.cav_fraction <= 1.0):
            raise InvalidSpec("cav_fraction must be in [0, 1]")

    def ramp_route_length(self) -> float:
        return self.ramp_length + (self.highway_length - self.merge_point)


RoadNetwork = RingSpec | FigureEightSpec | MergeSpec
