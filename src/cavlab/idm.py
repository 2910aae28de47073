"""Intelligent Driver Model car-following law and its ring equilibrium.

The IDM gives a follower's acceleration from its own speed, the
bumper-to-bumper gap to the leader, and the speed difference:

    a = a_max * [1 - (v / v0)^delta - (s* / s)^2]
    s* = s0 + max(0, v*T + v*(v - v_lead) / (2*sqrt(a_max*b)))

The max(0, .) guard on the dynamic part of the desired gap prevents
phantom braking against a much faster leader; it is the convention used
by microscopic simulators and does not change any equilibrium.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import DegenerateGap, InvalidSpec


@dataclass(frozen=True)
class IdmParams:
    """Treiber-default IDM constants; v0 should be set to the network target speed.

    noise_mag is the half-width of the uniform acceleration noise added to
    human drivers by the stepper (0.2 m/s^2 models driver sloppiness).
    """

    v0: float = 30.0 / 3.6
    T: float = 1.0
    a_max: float = 1.0
    b: float = 1.5
    delta: float = 4.0
    s0: float = 2.0
    noise_mag: float = 0.2

    def validate(self) -> None:
        for name in ("v0", "T", "a_max", "b", "delta", "s0"):
            if getattr(self, name) <= 0:
                raise InvalidSpec(f"IdmParams.{name} must be positive")
        if self.noise_mag < 0:
            raise InvalidSpec("IdmParams.noise_mag must be >= 0")


def accel_from_speed(speed: float, leader_gap: float, leader_speed: float,
                     params: IdmParams) -> float:
    """IDM acceleration for a follower at `speed` behind a leader.

    `leader_gap` is bumper-to-bumper and must be positive; a non-positive
    gap means a collision that should already have been detected.
    """
    if leader_gap <= 0.0:
        raise DegenerateGap(f"leader_gap={leader_gap} must be positive")
    dv = speed - leader_speed
    s_star = params.s0 + max(
        0.0, speed * params.T + speed * dv / (2.0 * math.sqrt(params.a_max * params.b)))
    return params.a_max * (
        1.0 - (speed / params.v0) ** params.delta - (s_star / leader_gap) ** 2)


def equilibrium_speed(gap: float, params: IdmParams) -> float:
    """Speed at which a uniform platoon with the given gap has zero acceleration.

    Solves a_max*[1 - (v/v0)^delta - ((s0 + v*T)/gap)^2] = 0 for v in [0, v0).
    Returns 0 when the gap is at or below the jam distance s0.
    """
    if gap <= params.s0:
        return 0.0

    def residual(v: float) -> float:
        return accel_from_speed(v, gap, v, params)

    hi = params.v0 * (1.0 - 1e-12)
    if residual(hi) >= 0.0:
        # Gap so large that even v0 is (numerically) sustainable.
        return params.v0
    return brentq(residual, 0.0, hi, xtol=1e-14, rtol=8.9e-16)
