import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from ardata.schedule import (
    MAIN_PHASE_MODES,
    BatchGeometry,
    ScheduleSpec,
    batch_tokens,
    early_cooldown,
    emit_curve,
    late_cooldown,
    lr_at,
    total_training_tokens,
)

EARLY = early_cooldown()
LATE = late_cooldown()


def cosine_closed_form(step, spec):
    progress = (step - spec.warmup_steps) / (spec.total_steps - spec.warmup_steps)
    return spec.min_lr + (spec.max_lr - spec.min_lr) * 0.5 * (1 + math.cos(math.pi * progress))


def invsqrt_closed_form(step, spec):
    return spec.max_lr * math.sqrt(spec.warmup_steps / step)


# --- endpoints and pinned values ----------------------------------------------


def test_warmup_starts_at_zero():
    assert lr_at(0, EARLY) == 0.0


def test_peak_at_end_of_warmup():
    assert lr_at(10_000, EARLY) == pytest.approx(5e-4, rel=1e-12)


def test_final_step_hits_min_lr():
    assert lr_at(500_000, EARLY) == pytest.approx(2.5e-6, rel=1e-12)
    assert lr_at(500_000, LATE) == pytest.approx(2.5e-6, rel=1e-12)


def test_main_phase_is_min_of_both_decays():
    # At 40k the inverse-sqrt envelope (2.5e-4) undercuts the cosine branch.
    expected = min(cosine_closed_form(40_000, EARLY), invsqrt_closed_form(40_000, EARLY))
    assert expected == 5e-4 * math.sqrt(10_000 / 40_000) == 2.5e-4
    assert lr_at(40_000, EARLY) == pytest.approx(expected, rel=1e-12)


def test_main_phase_matches_oracle_across_range():
    for step in range(10_000, 300_000, 7_919):
        expected = min(cosine_closed_form(step, EARLY), invsqrt_closed_form(step, EARLY))
        assert lr_at(step, EARLY) == pytest.approx(expected, rel=1e-12), step


def test_out_of_range_step_raises():
    with pytest.raises(ValueError):
        lr_at(-1, EARLY)
    with pytest.raises(ValueError):
        lr_at(500_001, EARLY)


# --- shape properties ------------------------------------------------------------


def test_non_increasing_after_warmup():
    for spec in (EARLY, LATE):
        previous = lr_at(10_000, spec)
        for step in range(10_100, 500_001, 100):
            current = lr_at(step, spec)
            assert current <= previous + 1e-18, step
            previous = current


def test_continuity_everywhere():
    # The steepest phase is warmup, so adjacent steps can never jump by more.
    for spec in (EARLY, LATE):
        max_slope = spec.max_lr / spec.warmup_steps
        probes = list(range(1, 500_001, 9_973)) + [10_000, 10_001, 300_000, 300_001, 490_000, 490_001, 500_000]
        for step in probes:
            if not 1 <= step <= spec.total_steps:
                continue
            assert abs(lr_at(step, spec) - lr_at(step - 1, spec)) <= max_slope + 1e-18


def test_bounds():
    for spec in (EARLY, LATE):
        for step in range(0, 500_001, 12_345):
            value = lr_at(step, spec)
            assert 0.0 <= value <= spec.max_lr
            if step >= spec.warmup_steps:
                assert value >= spec.min_lr


def test_early_late_differ_only_from_early_cooldown_start():
    for step in range(0, 300_001, 10_000):
        assert lr_at(step, EARLY) == lr_at(step, LATE), step
    assert any(
        lr_at(step, EARLY) != lr_at(step, LATE) for step in range(310_000, 490_001, 10_000)
    )


def test_variants_take_spec_overrides():
    assert (EARLY, LATE) == (ScheduleSpec(), ScheduleSpec(cooldown_start=490_000))
    assert early_cooldown(total_steps=600_000, main_phase="cosine") == ScheduleSpec(total_steps=600_000,
                                                                                   main_phase="cosine")
    # The late cooldown starts 10k steps before the end, unless its start is given.
    assert late_cooldown(total_steps=200_000) == ScheduleSpec(total_steps=200_000, cooldown_start=190_000)
    assert late_cooldown(cooldown_start=400_000) == ScheduleSpec(cooldown_start=400_000)


def test_composition_variants():
    cosine_only = ScheduleSpec(main_phase="cosine")
    invsqrt_only = ScheduleSpec(main_phase="invsqrt")
    product = ScheduleSpec(main_phase="product")
    step = 100_000
    assert lr_at(step, cosine_only) == pytest.approx(cosine_closed_form(step, cosine_only), rel=1e-12)
    assert lr_at(step, invsqrt_only) == pytest.approx(invsqrt_closed_form(step, invsqrt_only), rel=1e-12)
    assert lr_at(step, product) <= min(lr_at(step, cosine_only), lr_at(step, invsqrt_only))


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(warmup_steps=0)
    with pytest.raises(ValueError):
        ScheduleSpec(cooldown_start=600_000)
    with pytest.raises(ValueError):  # the cooldown's ramp once divided by zero at the last step
        ScheduleSpec(cooldown_start=500_000)
    with pytest.raises(ValueError):
        ScheduleSpec(min_lr=1e-3, max_lr=5e-4)
    with pytest.raises(ValueError):
        ScheduleSpec(main_phase="nope")
    # Step counts meet floats in the curve, so each must be below 2**63.
    ScheduleSpec(warmup_steps=2**63 - 3, cooldown_start=2**63 - 2, total_steps=2**63 - 1)
    with pytest.raises(ValueError, match=r"^warmup_steps must be below 2\*\*63, got 9223372036854775808$"):
        ScheduleSpec(warmup_steps=2**63, cooldown_start=2**63 + 1, total_steps=2**63 + 2)
    with pytest.raises(ValueError, match=r"^total_steps must be below 2\*\*63"):
        ScheduleSpec(total_steps=2**63)


@given(
    st.integers(1, 30),
    st.integers(1, 30),
    st.integers(1, 30),
    # Near the two places the curve can overflow: max_lr * step in the warmup,
    # and cosine * invsqrt (about max_lr**2) in the "product" main phase.
    st.one_of(st.floats(1e153, 1e155), st.floats(1e306, sys.float_info.max)),
    st.sampled_from(MAIN_PHASE_MODES),
)
@example(2, 1, 1, sys.float_info.max, "min")
@example(30, 30, 30, 1.34e154, "product")
def test_spec_refuses_exactly_the_max_lr_whose_curve_overflows(warmup, main_steps, cooldown_steps, max_lr, mode):
    fields = dict(
        total_steps=warmup + main_steps + cooldown_steps, warmup_steps=warmup, cooldown_start=warmup + main_steps,
        max_lr=max_lr, min_lr=1e-3, main_phase=mode,
    )
    unchecked = SimpleNamespace(**fields)  # lr_at's own arithmetic, without the spec's checks
    if all(math.isfinite(lr_at(step, unchecked)) for step in range(fields["total_steps"] + 1)):
        ScheduleSpec(**fields)
    else:
        with pytest.raises(ValueError, match="max_lr"):
            ScheduleSpec(**fields)


# --- curve emission ---------------------------------------------------------------


def test_emit_curve_single_stride():
    points = list(emit_curve(EARLY, EARLY.total_steps))
    assert points == [(0, 0.0), (500_000, lr_at(500_000, EARLY))]


def test_emit_curve_includes_last_step_for_ragged_stride():
    points = list(emit_curve(EARLY, 300_001))
    assert points[0][0] == 0
    assert points[-1][0] == 500_000


def test_emit_curve_row_count():
    points = list(emit_curve(EARLY, 1000))
    assert len(points) == 501
    assert points[0] == (0, 0.0)
    assert points[-1][1] == pytest.approx(2.5e-6, rel=1e-12)


def test_emit_curve_bad_stride():
    with pytest.raises(ValueError):
        list(emit_curve(EARLY, 0))


# --- batch geometry ---------------------------------------------------------------


def test_batch_tokens_published_setup():
    assert batch_tokens(BatchGeometry(6, 2, 8, 4096)) == 393_216


def test_batch_tokens_units():
    assert batch_tokens(BatchGeometry(1, 1, 1, 1)) == 1
    assert batch_tokens(BatchGeometry(6, 2, 8, 2048)) == 196_608


def test_total_training_tokens_near_197b():
    total = total_training_tokens(EARLY, BatchGeometry())
    assert abs(total - 197e9) / 197e9 < 0.02


def test_geometry_validation():
    with pytest.raises(ValueError):
        BatchGeometry(micro_batch=0)
