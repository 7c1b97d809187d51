"""Learning-rate schedule arithmetic: warmup, cosine/inverse-sqrt main phase,
linear cooldown, in early and late variants, plus batch-geometry helpers.

The main phase is always the pointwise minimum of a cosine decay
(max_lr -> min_lr over the whole post-warmup horizon) and an
inverse-square-root envelope max_lr * sqrt(warmup/step). It is continuous at
the warmup boundary (both equal max_lr there) and reproduces each decay in
the region where it dominates. Cooldown ramps linearly from the main-phase
value at the cooldown start down to min_lr at the final step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ._schema import BELOW_2_63, check


LATE_COOLDOWN_STEPS = 10_000  # the late variant cools down over this many final steps, whatever the total


@dataclass(frozen=True)
class ScheduleSpec:
    total_steps: int = 500_000
    warmup_steps: int = 10_000
    cooldown_start: int = 300_000
    max_lr: float = 5e-4
    min_lr: float = 2.5e-6

    def __post_init__(self):
        for name in ("warmup_steps", "cooldown_start", "total_steps"):
            check(getattr(self, name), BELOW_2_63, name)
        # The cooldown ramps over cooldown_start..total_steps, so it needs one step at least.
        if not (0 < self.warmup_steps < self.cooldown_start < self.total_steps):
            raise ValueError(
                "need 0 < warmup_steps < cooldown_start < total_steps, got "
                f"{self.warmup_steps}/{self.cooldown_start}/{self.total_steps}"
            )
        if not (0 < self.min_lr < self.max_lr < math.inf):
            raise ValueError(f"need 0 < min_lr < max_lr, both finite, got min_lr={self.min_lr}, max_lr={self.max_lr}")
        # Only max_lr * step can overflow, largest at the last warmup step: every
        # main-phase and cooldown value is at most max_lr.
        if not math.isfinite(self.max_lr * (self.warmup_steps - 1)):
            raise ValueError(f"max_lr={self.max_lr} is too large: the learning-rate curve overflows")


def early_cooldown(**overrides) -> ScheduleSpec:
    """The default schedule, with ``overrides`` of its ``ScheduleSpec`` fields."""
    return ScheduleSpec(**overrides)


def late_cooldown(**overrides) -> ScheduleSpec:
    """``early_cooldown(**overrides)``, but unless ``cooldown_start`` is given the
    cooldown starts ``LATE_COOLDOWN_STEPS`` before ``total_steps``."""
    total_steps = overrides.get("total_steps", ScheduleSpec.total_steps)
    overrides.setdefault("cooldown_start", total_steps - LATE_COOLDOWN_STEPS)
    return ScheduleSpec(**overrides)


def _cosine(step: int, spec: ScheduleSpec) -> float:
    progress = (step - spec.warmup_steps) / (spec.total_steps - spec.warmup_steps)
    return spec.min_lr + (spec.max_lr - spec.min_lr) * 0.5 * (1.0 + math.cos(math.pi * progress))


def _invsqrt(step: int, spec: ScheduleSpec) -> float:
    return spec.max_lr * math.sqrt(spec.warmup_steps / step)


def _main_lr(step: int, spec: ScheduleSpec) -> float:
    return min(_cosine(step, spec), _invsqrt(step, spec))


def lr_at(step: int, spec: ScheduleSpec) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if not 0 <= step <= spec.total_steps:
        raise ValueError(f"step {step} outside [0, {spec.total_steps}]")
    if step < spec.warmup_steps:
        return spec.max_lr * step / spec.warmup_steps
    if step < spec.cooldown_start:
        return _main_lr(step, spec)
    anchor = _main_lr(spec.cooldown_start, spec)
    t = (step - spec.cooldown_start) / (spec.total_steps - spec.cooldown_start)
    return (1.0 - t) * anchor + t * spec.min_lr


def emit_curve(spec: ScheduleSpec, stride: int) -> Iterator[tuple[int, float]]:
    """Sample the schedule at 0, stride, 2*stride, ... always ending at total_steps."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    for step in range(0, spec.total_steps + 1, stride):
        yield step, lr_at(step, spec)
    if spec.total_steps % stride != 0:
        yield spec.total_steps, lr_at(spec.total_steps, spec)


@dataclass(frozen=True)
class BatchGeometry:
    micro_batch: int = 6
    nodes: int = 2
    gpus_per_node: int = 8
    seq_len: int = 4096  # never stated upstream; inferred from ~400K tokens / 96 sequences

    def __post_init__(self):
        for name in ("micro_batch", "nodes", "gpus_per_node", "seq_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def batch_tokens(geom: BatchGeometry) -> int:
    """Tokens per global batch: micro_batch x nodes x gpus_per_node x seq_len."""
    return geom.micro_batch * geom.nodes * geom.gpus_per_node * geom.seq_len


def total_training_tokens(spec: ScheduleSpec, geom: BatchGeometry) -> int:
    return spec.total_steps * batch_tokens(geom)
