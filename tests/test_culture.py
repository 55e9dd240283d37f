from __future__ import annotations

import math
import random

import numpy as np
import pytest

from rschoice import culture
from rschoice.culture import (
    MAX_CONSISTENCY_GRID,
    MAX_CULTURE_STEPS,
    CultureParams,
    GridBudgetError,
    NotInteriorAtGhatError,
    StepBudgetError,
    check_consistency_grid,
    culture_dynamics,
    culture_effort,
    culture_gbar,
    culture_reactance_comparative,
    culture_rsc_consistency,
    effort,
    steady_state,
    transmission_value,
)
from rschoice.media import InvalidParamsError
from rschoice.structure import two_stage_choice


BASE = dict(beta=2.0, g_hat=2.0, v_hat=2.0, lambda_r=1.5, g=3.0, q0=0.3)


def test_effort_formula_examples():
    # interior branch: ((1-q)/beta * V/g)^(1/(beta-1)), corner (1/g)^(1/beta)
    assert effort(2.0, 1.0, 1.0, 0.0) == pytest.approx(0.5)
    assert effort(2.0, 2.0, 1.5, 1.0) == 0.0
    assert effort(3.0, 10.0, 1.0, 0.0) == 1.0  # corner binds


def test_effort_past_the_float_range_is_the_budget_corner():
    # ((1 - 0.3) / beta * 100 / 3) ** 1e7 overflows a float
    assert effort(1.0000001, 100.0, 3.0, 0.3) == (1.0 / 3.0) ** (1.0 / 1.0000001)
    assert effort(1.0000001, 1.0, 3.0, 0.3) == 0.0  # the interior branch underflows
    # The majority's interior effort overflows too: it sits at its corner, 1.
    assert effort(1.0000001, 2.0, 1.0, 0.1) == 1.0
    params = CultureParams(**dict(BASE, beta=1.0000001, q0=0.9, horizon=1.0))
    assert 0.0 <= culture_dynamics(params).q_end < 0.9


def test_transmission_value_shape():
    assert transmission_value(1.5, 2.0, 2.0, 1.5) == 2.0
    assert transmission_value(2.0, 2.0, 2.0, 1.5) == 2.0
    assert transmission_value(8.0, 2.0, 2.0, 2.0) == pytest.approx(2.0 * 16.0)


def test_culture_effort_sides():
    params = CultureParams(**BASE)
    d_minority = culture_effort(params, 0.3, 3.0, "minority")
    expected = effort(2.0, transmission_value(3.0, 2.0, 2.0, 1.5), 3.0, 0.3)
    assert d_minority == pytest.approx(expected)
    d_majority = culture_effort(params, 0.3, 1.0, "majority")
    assert d_majority == pytest.approx(effort(2.0, 2.0, 1.0, 0.7))
    with pytest.raises(InvalidParamsError):
        culture_effort(params, 1.5, 3.0, "minority")
    with pytest.raises(InvalidParamsError):
        culture_effort(params, 0.3, 3.0, "both")


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        CultureParams(**{**BASE, "beta": 1.0})
    with pytest.raises(InvalidParamsError):
        CultureParams(**{**BASE, "g_hat": 0.9})
    with pytest.raises(InvalidParamsError):
        CultureParams(**{**BASE, "q0": 0.0})
    with pytest.raises(InvalidParamsError):
        CultureParams(**{**BASE, "g": 0.5})


def test_gbar_is_the_branch_crossing():
    params = CultureParams(**BASE)
    q = 0.4
    g_bar = culture_gbar(params, q)
    assert g_bar > params.g_hat
    interior = ((1 - q) / 2.0 * transmission_value(g_bar, 2.0, 2.0, 1.5) / g_bar)
    corner = (1.0 / g_bar) ** 0.5
    assert interior == pytest.approx(corner, abs=1e-8)


def test_gbar_converges_near_unit_reactance_rate():
    # a nearly flat value schedule still meets the falling budget corner
    params = CultureParams(**{**BASE, "lambda_r": 1.01})
    q = 0.3
    g_bar = culture_gbar(params, q)
    interior = (1 - q) / 2.0 * transmission_value(g_bar, 2.0, 2.0, 1.01) / g_bar
    assert interior == pytest.approx((1.0 / g_bar) ** 0.5, abs=1e-8)


def test_gbar_requires_interior_start():
    # huge base value puts the corner in charge already at the threshold
    params = CultureParams(**{**BASE, "v_hat": 50.0})
    with pytest.raises(NotInteriorAtGhatError):
        culture_gbar(params, 0.05)


def test_effort_profile_dips_then_rises_then_falls():
    params = CultureParams(**BASE)
    q = 0.35
    g_bar = culture_gbar(params, q)

    def d(g):
        return effort(2.0, transmission_value(g, 2.0, 2.0, 1.5), g, q)

    below = [d(g) for g in np.linspace(1.0, 2.0, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(below[1:], below))
    middle = [d(g) for g in np.linspace(2.0 + 1e-9, g_bar, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(middle, middle[1:]))
    beyond = [d(g) for g in np.linspace(g_bar, 2 * g_bar, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(beyond[1:], beyond))
    # continuity at the reactance threshold and at the crossing
    assert d(2.0 - 1e-9) == pytest.approx(d(2.0 + 1e-9), abs=1e-6)
    assert d(g_bar - 1e-9) == pytest.approx(d(g_bar + 1e-9), abs=1e-6)


def test_steady_state_closed_forms():
    assert steady_state(CultureParams(**{**BASE, "g": 1.0})) == pytest.approx(0.5)
    params = CultureParams(beta=2, g_hat=2, v_hat=2, lambda_r=2, g=8, q0=0.3)
    assert steady_state(params) == pytest.approx(2.0 / 3.0)


def test_dynamics_converge_to_analytic_rest_point():
    params = CultureParams(**{**BASE, "lambda_r": 1.8, "q0": 0.2})
    out = culture_dynamics(params, record_every=200)
    assert out.converged
    assert out.q_end == pytest.approx(out.q_steady, abs=1e-6)
    assert out.d_star_minority == pytest.approx(out.d_star_majority, abs=1e-12)


def test_trajectory_stays_in_unit_interval_and_is_monotone():
    for q0 in (0.05, 0.45, 0.9):
        params = CultureParams(**{**BASE, "q0": q0, "horizon": 80.0})
        out = culture_dynamics(params, record_every=50)
        qs = [q for _, q in out.trajectory]
        assert all(0.0 <= q <= 1.0 for q in qs)
        toward = out.q_steady
        diffs = [abs(q - toward) for q in qs]
        assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))


def test_reactance_comparative_statics():
    low = CultureParams(**{**BASE, "lambda_r": 1.5, "g": 4.0})
    high = CultureParams(**{**BASE, "lambda_r": 2.5, "g": 4.0})
    q_low, q_high = culture_reactance_comparative(low, high)
    assert 0.0 < q_low < q_high < 1.0
    # below the threshold the rates cannot matter
    low = CultureParams(**{**BASE, "lambda_r": 1.5, "g": 1.5})
    high = CultureParams(**{**BASE, "lambda_r": 2.5, "g": 1.5})
    q_low, q_high = culture_reactance_comparative(low, high)
    assert q_low == q_high
    with pytest.raises(InvalidParamsError):
        culture_reactance_comparative(high, high)


def test_consistency_two_stage_matches_direct():
    params = CultureParams(**BASE)
    report = culture_rsc_consistency(params, 200)
    assert report.max_deviation_direct <= report.cell
    assert not report.grid_too_coarse
    # at g = 1 both sides maximize the same welfare objective exactly
    only_base = culture_rsc_consistency(params, 200, (1.0,))
    assert only_base.rows[0].deviation_direct == 0.0


def test_consistency_effort_within_one_cell_of_analytic():
    params = CultureParams(**BASE)
    g_bar = culture_gbar(params, params.q0)
    g_values = tuple(float(g) for g in np.linspace(params.g_hat + 0.05, g_bar, 8))
    report = culture_rsc_consistency(params, 200, g_values)
    for row in report.rows:
        assert abs(row.two_stage[1] - row.analytic[1]) <= report.cell + 1e-12


def test_consistency_deviation_shrinks_with_refinement():
    params = CultureParams(**BASE)
    g_bar = culture_gbar(params, params.q0)
    g_values = tuple(float(g) for g in np.linspace(1.0, 2 * g_bar, 20))
    coarse = culture_rsc_consistency(params, 200, g_values)
    fine = culture_rsc_consistency(params, 400, g_values)
    assert fine.max_deviation_analytic < coarse.max_deviation_analytic


def _full_lattice_pick(params: CultureParams, grid_n: int, g: float, reacting: list[int]):
    """Two-stage pick with every non-reacting level, feasible or not, in the
    residual chain and the menu built one bit per feasible level."""
    ghat, vhat, lr = params.g_hat, params.v_hat, params.lambda_r
    ds = np.linspace(0.0, 1.0, grid_n)
    cost = ds ** params.beta
    prob = ds + (1.0 - ds) * params.q0
    t = 1.0 - g * cost
    feasible = t >= 0.0
    t = np.where(feasible, t, 0.0)
    welfare = (t + prob * vhat).tolist()
    keys = [(w, -j) for j, w in enumerate(welfare)]
    for j in reacting:
        if feasible[j]:
            implied = (1.0 - t[j]) / cost[j]
            value = vhat if implied <= ghat else transmission_value(implied, ghat, vhat, lr)
            keys[j] = (t[j] + prob[j] * value, -j)
    residual = sorted(set(range(grid_n)) - set(reacting), key=lambda j: (-welfare[j], j))
    menu = 0
    for j in range(grid_n):
        if feasible[j]:
            menu |= 1 << j
    jr = two_stage_choice([residual] + [[j] for j in reacting], keys, menu)[0]
    return float(t[jr]), float(ds[jr])


def _assert_picks_match_full_lattice(params: CultureParams, grid_n: int, g_values):
    report = culture_rsc_consistency(params, grid_n, g_values)
    ds = np.linspace(0.0, 1.0, grid_n).tolist()
    # The reacting levels are the direct picks above the threshold, as in
    # the structure the report is built from.
    reacting = sorted(
        {ds.index(row.direct[1]) for row in report.rows if row.g > params.g_hat} - {0}
    )
    assert reacting
    for row in report.rows:
        assert row.two_stage == _full_lattice_pick(params, grid_n, row.g, reacting)


def _consistency_params(case) -> CultureParams:
    """A reactance rate on ``BASE``, or for ``randomK`` the first draw from
    the benchmark generator's ranges, seeded with that name, whose effort is
    interior at the threshold."""
    if not isinstance(case, str):
        return CultureParams(**dict(BASE, lambda_r=case))
    rng = random.Random(case)
    while True:
        params = _random_params(rng, 200.0)
        try:
            culture_gbar(params, params.q0)
        except NotInteriorAtGhatError:
            continue
        return params


@pytest.mark.parametrize("grid_n", [10, 23, 60, 200])
@pytest.mark.parametrize("case", [1.0, 1.5, 4.0, "random0", "random1", "random2", "random3"])
def test_consistency_pick_matches_full_lattice_menu(grid_n, case):
    params = _consistency_params(case)
    g_bar = culture_gbar(params, params.q0)
    g_values = tuple(float(g) for g in np.linspace(1.0, 2.0 * g_bar, 15))
    _assert_picks_match_full_lattice(params, grid_n, g_values)


def test_consistency_pick_matches_full_lattice_menu_at_the_grid_budget():
    params = CultureParams(**BASE)
    g_bar = culture_gbar(params, params.q0)
    _assert_picks_match_full_lattice(params, MAX_CONSISTENCY_GRID, (1.0, g_bar, 2.0 * g_bar))


def test_consistency_grid_guard():
    with pytest.raises(InvalidParamsError):
        culture_rsc_consistency(CultureParams(**BASE), 5)
    # effort takes policies of at least 1, as CultureParams does.
    for g in (0.5, math.nan):
        with pytest.raises(InvalidParamsError):
            culture_rsc_consistency(CultureParams(**BASE), 200, (1.0, g))


# --- culture_dynamics against every RK4 step ---------------------------------


def reference_effort(beta, value, g, q):
    """``effort`` as one expression per call, with the builtin ``min``."""
    corner = (1.0 / g) ** (1.0 / beta)
    if q >= 1.0:
        return 0.0
    try:
        interior = ((1.0 - q) / beta * value / g) ** (1.0 / (beta - 1.0))
    except OverflowError:
        return corner
    return min(corner, interior)


def reference_dynamics(params, record_every, stage_points=None):
    """The integration loop that runs all ``round(horizon / dt)`` steps and
    calls ``effort`` at every stage.

    Returns ``(trajectory, q_end, converged, d_star_minority,
    d_star_majority, g_bar)``; ``culture_dynamics`` must agree exactly
    although it stops at the first fixed point and computes the step's
    constants once.  A ``stage_points`` list receives each step's four
    stage points ``(q, x2, x3, x4)``.
    """
    beta, g = params.beta, params.g
    value_minority = transmission_value(g, params.g_hat, params.v_hat, params.lambda_r)
    v_hat = params.v_hat

    def rhs(q):
        q = min(max(q, 0.0), 1.0)
        d_m = effort(beta, value_minority, g, q)
        d_mj = effort(beta, v_hat, 1.0, 1.0 - q)
        return q * (1.0 - q) * (d_m - d_mj)

    steps = int(round(params.horizon / params.dt))
    dt = params.dt
    q = params.q0
    trajectory = [(0.0, q)]
    for k in range(steps):
        k1 = rhs(q)
        x2 = q + 0.5 * dt * k1
        k2 = rhs(x2)
        x3 = q + 0.5 * dt * k2
        k3 = rhs(x3)
        x4 = q + dt * k3
        k4 = rhs(x4)
        if stage_points is not None:
            stage_points.append((q, x2, x3, x4))
        q = q + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q = min(max(q, 0.0), 1.0)
        if (k + 1) % record_every == 0 or k == steps - 1:
            trajectory.append(((k + 1) * dt, q))
    q_star = steady_state(params)
    try:
        g_bar = culture_gbar(params, q_star)
    except NotInteriorAtGhatError:
        g_bar = None
    return (
        tuple(trajectory),
        q,
        abs(q - q_star) < 1e-6,
        effort(beta, value_minority, g, q_star),
        effort(beta, v_hat, 1.0, 1.0 - q_star),
        g_bar,
    )


def _first_repeat(trajectory):
    """The first step of a ``record_every=1`` trajectory that returns the
    share it started from, or the last step if none does."""
    qs = [q for _, q in trajectory]
    return next((k for k in range(1, len(qs)) if qs[k] == qs[k - 1]), len(qs) - 1)


def _inline_overflows(x, params):
    """Whether the written-out stage at ``x`` raises ``OverflowError``: one
    of its two interior powers leaves the float range."""
    beta = params.beta
    value = transmission_value(params.g, params.g_hat, params.v_hat, params.lambda_r)
    power = 1.0 / (beta - 1.0)
    rest = 1.0 - x
    try:
        (rest / beta * value / params.g) ** power
        ((1.0 - rest) / beta * params.v_hat) ** power
    except OverflowError:
        return True
    return False


def _slope_plan(stage_points, params):
    """How ``culture_dynamics`` gets each stage's slope on the given steps.

    ``k1`` reuses the last step's ``k4`` when ``q`` is the last step's
    fourth point, and ``k3`` reuses ``k2`` when the third point is the
    second; any other point runs inline in ``(2**-52, 1)`` and calls
    ``_slope`` outside it.  When an inline stage overflows, the step calls
    ``_slope`` at its four points after the boundary calls it made before.
    Returns the points the slope is called at, in order, and the set of
    ways taken.
    """
    calls, ways = [], set()
    last_x4 = math.nan
    for q, x2, x3, x4 in stage_points:
        for x, reuse in ((q, "reuse k1" if q == last_x4 else None), (x2, None),
                         (x3, "reuse k3" if x3 == x2 else None), (x4, None)):
            if reuse:
                ways.add(reuse)
            elif not 2**-52 < x < 1.0:
                ways.add("boundary")
                calls.append(x)
            elif _inline_overflows(x, params):
                ways.add("overflow")
                calls += [q, x2, x3, x4]
                break
            else:
                ways.add("inline")
        last_x4 = x4
    return calls, ways


def _outcome_fields(out):
    """The ``culture_dynamics`` fields that ``reference_dynamics`` returns."""
    return (out.trajectory, out.q_end, out.converged, out.d_star_minority,
            out.d_star_majority, out.g_bar)


def _random_params(rng, horizon):
    """Parameters drawn from the ranges of the benchmark's generator."""
    return CultureParams(
        beta=1.5 + rng.random() * 1.5,
        g_hat=1.5 + rng.random(),
        v_hat=1.5 + rng.random() * 1.5,
        lambda_r=1.2 + rng.random() * 1.3,
        g=1.0 + rng.random() * 3.0,
        q0=0.1 + rng.random() * 0.5,
        dt=0.05,
        horizon=horizon,
    )


def test_dynamics_equal_the_full_loop_with_and_without_a_fixed_point():
    rng = random.Random(11)
    reached = missed = 0
    for horizon in (200.0, 10.0, 200.0, 10.0, 200.0, 200.0):
        params = _random_params(rng, horizon)
        steps = params.steps
        full = reference_dynamics(params, 1)[0]
        qs = [q for _, q in full]
        if any(a == b for a, b in zip(qs, qs[1:])):
            reached += 1
        else:
            missed += 1
        for record_every in (1, 3, 100, steps, steps + 5, rng.randint(2, 499)):
            out = culture_dynamics(params, record_every=record_every)
            assert _outcome_fields(out) == reference_dynamics(params, record_every)
            assert out.steps_taken == _first_repeat(full)
    assert reached and missed


def test_dynamics_equal_the_full_loop_at_the_edges(monkeypatch):
    # beta within 1e-6 of 1 (the interior power overflows to the corner),
    # steps of 1 to 100 (q hits the 0/1 clamp), q0 within 1e-12 of 0 and 1,
    # q0 on both sides of the inline range (2**-52, 1) down to the smallest
    # subnormal, and the policy below, at and above the reactance threshold.
    # _slope must be called at exactly the points outside that range that
    # no reuse covers, and at all four points of a step whose written-out
    # stages overflow.
    calls = []
    real_slope = culture._slope

    def recording_slope(x, *args):
        calls.append(x)
        return real_slope(x, *args)

    monkeypatch.setattr(culture, "_slope", recording_slope)
    clamped = overflowed = 0
    ways = set()
    for beta in (1.0000001, 1.0000009, 1.7, 3.0):
        for dt in (0.05, 1.0, 7.0, 100.0):
            for q0 in (5e-324, 1e-13, 2**-54, 2**-53, 2**-52, 0.3, 1.0 - 1e-13, 1.0 - 2**-53):
                for g in (1.2, 2.0, 4.0):
                    params = CultureParams(beta=beta, g_hat=2.0, v_hat=2.5, lambda_r=1.5,
                                           g=g, q0=q0, dt=dt, horizon=40 * dt)
                    steps = params.steps
                    stage_points = []
                    full = reference_dynamics(params, 1, stage_points)
                    clamped += any(q in (0.0, 1.0) for _, q in full[0])
                    overflowed += beta < 1.000001 and full[3] == (1.0 / g) ** (1.0 / beta)
                    calls.clear()
                    out = culture_dynamics(params, record_every=1)
                    assert _outcome_fields(out) == full
                    assert out.steps_taken == _first_repeat(full[0])
                    planned, taken = _slope_plan(stage_points[:out.steps_taken], params)
                    # repr tells -0.0 from 0.0.
                    assert repr(calls) == repr(planned)
                    ways |= taken
                    for record_every in (3, 100, steps, steps + 5):
                        out = culture_dynamics(params, record_every=record_every)
                        assert _outcome_fields(out) == reference_dynamics(params, record_every)
    assert clamped and overflowed
    assert ways == {"inline", "boundary", "overflow", "reuse k1", "reuse k3"}


def test_effort_helper_equals_effort_pointwise():
    # effort, the _slope that culture_dynamics calls off its written-out
    # stages, and the one-expression formula agree on every branch of both
    # efforts: a share of 1 or more (zero effort), the overflowing interior,
    # the corner and the interior, with -0.0, NaN and shares outside [0, 1],
    # which the slope clamps first.  beta 2, g 1, q 0 and the values around
    # 2 give an interior base of exactly 1 and one float step either side.
    branches = set()
    for beta in (1.0000001, 1.0000009, 1.5, 2.0, 3.0):
        for g in (1.0, 1.5, 3.0, 100.0):
            corner = (1.0 / g) ** (1.0 / beta)
            for value in (1.0, math.nextafter(2.0, -math.inf), 2.0, math.nextafter(2.0, math.inf),
                          100.0, 1e6):
                for v_hat in (1.0, 2.5, 1e6):
                    for q in (-0.5, -0.0, 0.0, 1e-13, 0.3, 0.9, 1.0 - 1e-13, 1.0, 1.5,
                              math.nan):
                        minority = reference_effort(beta, value, g, q)
                        assert effort(beta, value, g, q) == minority
                        x = min(max(q, 0.0), 1.0)
                        expected = x * (1.0 - x) * (
                            reference_effort(beta, value, g, x)
                            - reference_effort(beta, v_hat, 1.0, 1.0 - x)
                        )
                        # repr tells -0.0 from 0.0 and reads every NaN alike.
                        assert repr(culture._slope(q, beta, value, g, v_hat)) == repr(expected)
                        branches.add("zero" if x >= 1.0 else "corner" if minority == corner
                                     else "interior")
                        try:
                            ((1.0 - x) / beta * value / g) ** (1.0 / (beta - 1.0))
                        except OverflowError:
                            branches.add("overflow")
    assert branches == {"zero", "overflow", "corner", "interior"}


def test_dynamics_stop_at_the_fixed_point():
    # The default run of 20 000 steps reaches an exact fixed point near step
    # 7 900 and integrates no step past it.
    params = CultureParams(**BASE)
    first_repeat = _first_repeat(reference_dynamics(params, 1)[0])
    out = culture_dynamics(params, record_every=100)
    assert out.steps_taken == first_repeat < params.steps // 2
    assert len(out.trajectory) == 1 + params.steps // 100
    assert out.trajectory[-1][0] == params.steps * params.dt


def test_non_finite_dt_or_horizon_is_invalid():
    for bad in ({"horizon": math.inf}, {"dt": math.inf}, {"dt": math.nan}, {"horizon": math.nan}):
        with pytest.raises(InvalidParamsError):
            CultureParams(**{**BASE, **bad})


def test_step_budget():
    assert CultureParams(**{**BASE, "dt": 1.0, "horizon": float(MAX_CULTURE_STEPS)}).steps == (
        MAX_CULTURE_STEPS
    )
    for dt, horizon in ((1.0, MAX_CULTURE_STEPS + 1.0), (1e-300, 200.0), (1e-300, 1e300)):
        with pytest.raises(StepBudgetError):
            CultureParams(**{**BASE, "dt": dt, "horizon": horizon})


def test_consistency_grid_budget():
    check_consistency_grid(MAX_CONSISTENCY_GRID)
    with pytest.raises(GridBudgetError):
        culture_rsc_consistency(CultureParams(**BASE), MAX_CONSISTENCY_GRID + 1)
