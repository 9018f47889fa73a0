"""False-data-injection layer: h(u) = u + phi on named communication channels.

Two attack shapes are supported.  The non-periodic attack adds a constant
multiple of the clean signal after the start time tau; the periodic attack
modulates it with a sinusoid:

    non-periodic: h(u) = u               (t < tau)
                  h(u) = u + alpha * u   (t >= tau)
    periodic:     h(u) = u + beta * sin(omega * t) * u   (t >= tau)

Both are multiplicative in u and stateless, so ``AttackSpec.gain`` is the
whole layer: the simulator scales the channels ``resolve_channels`` selects
by it, in declaration order.  The sinusoid phase is referenced to simulation
time zero, not to tau.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .graph import SIGNALS

BROADCAST = "broadcast"


class AttackConfigError(ValueError):
    """Raised when an attack spec does not match the scenario's channel set."""


def _finite(kind, *names: str) -> None:
    """Reject a non-finite parameter of an attack kind, naming it."""
    for name in names:
        if not math.isfinite(v := getattr(kind, name)):
            raise AttackConfigError(f"attack {name} must be finite, got {v}")


@dataclass(frozen=True)
class NonPeriodic:
    alpha: float

    def __post_init__(self):
        _finite(self, "alpha")


@dataclass(frozen=True)
class Periodic:
    beta: float
    omega: float  # rad/s

    def __post_init__(self):
        _finite(self, "beta", "omega")


@dataclass(frozen=True)
class AttackSpec:
    src: int | str      # source DG index, or "broadcast" (= every inbound copy of dst)
    dst: int | str      # destination DG index, or "broadcast" (= every outgoing copy of src)
    signal: str         # "voltage" | "frequency"
    kind: NonPeriodic | Periodic
    tau: float          # start time, s
    end: float | None = None

    def __post_init__(self):
        if self.signal not in SIGNALS:
            raise AttackConfigError(f"unknown signal kind {self.signal!r}")
        if not 0 <= self.tau < math.inf:
            raise AttackConfigError(f"attack start tau must be finite and >= 0, got {self.tau}")
        if self.end is not None and not self.tau < self.end < math.inf:
            raise AttackConfigError(f"attack end {self.end} must be finite and exceed "
                                    f"tau {self.tau}")
        if self.src == BROADCAST and self.dst == BROADCAST:
            raise AttackConfigError("src and dst cannot both be broadcast")

    def active(self, t: float) -> bool:
        return t >= self.tau and (self.end is None or t < self.end)

    def gain(self, t: float) -> float:
        """Multiplier on the clean value at time t: h(u) = gain(t) * u."""
        if not self.active(t):
            return 1.0
        if isinstance(self.kind, NonPeriodic):
            return 1.0 + self.kind.alpha
        return 1.0 + self.kind.beta * math.sin(self.kind.omega * t)

    def matches(self, src: int, dst: int, signal: str) -> bool:
        return signal == self.signal and self.src in (BROADCAST, src) \
            and self.dst in (BROADCAST, dst)


_TARGET_RE = re.compile(r"^\s*(?:dg(\d+)\.(\w+)|broadcast)\s*->\s*(?:dg(\d+)(?:\.(\w+))?|broadcast)\s*$")


def parse_target(target: str) -> tuple[int | str, int | str, str]:
    """Parse a channel target string into (src, dst, signal).

    Forms (DG numbering is 1-based in the string, 0-based in the result):
      "dg1.voltage -> dg2"        one directed channel
      "dg1.voltage -> broadcast"  every outgoing copy of DG1's voltage
                                  (its self loop and each out-edge)
      "broadcast -> dg1.voltage"  every voltage channel feeding DG1's
                                  controller (self loop and each in-edge)
    """
    m = _TARGET_RE.match(target)
    if not m:
        raise AttackConfigError(f"cannot parse attack target {target!r}")
    src, left_sig, dst, right_sig = m.groups()
    if src is None and dst is None:
        raise AttackConfigError(f"target {target!r} has no DG endpoint")
    if src is None and right_sig is None:
        raise AttackConfigError(f"target {target!r} is missing the signal kind")
    if left_sig and right_sig and right_sig != left_sig:
        raise AttackConfigError(f"target {target!r} names two different signals")
    if (sig := left_sig or right_sig) not in SIGNALS:
        raise AttackConfigError(f"unknown signal kind {sig!r} in target {target!r}")
    try:
        src, dst = (BROADCAST if g is None else int(g) - 1 for g in (src, dst))
    except ValueError:   # more digits than int() converts
        raise AttackConfigError(f"target {target!r} names a DG number too long to read") from None
    return src, dst, sig


def resolve_channels(spec: AttackSpec, channels: list[tuple[int, int, str]]) -> list[int]:
    """Indices of the channels a spec targets; error if it targets none."""
    idx = [k for k, ch in enumerate(channels) if spec.matches(*ch)]
    if not idx:   # the target as a scenario file writes it, DGs from 1
        src, dst = (e if e == BROADCAST else f"dg{e + 1}" for e in (spec.src, spec.dst))
        target = (f"{src} -> {dst}.{spec.signal}" if src == BROADCAST
                  else f"{src}.{spec.signal} -> {dst}")
        raise AttackConfigError(f"attack {target} matches no channel declared by the "
                                "communication graph")
    return idx
