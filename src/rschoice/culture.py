"""Cultural transmission under repressive policy, with reactance.

Parents split a unit of time between leisure ``t`` and socialization
effort ``d``; a policy ``g >= 1`` scales the effort cost, so the feasible
pairs are ``t + g * d**beta <= 1``.  A child keeps the parents' trait with
probability ``d + (1 - d) * q`` (vertical, then oblique transmission) and
successful transmission is worth ``V(g)``: flat at ``V_hat`` up to the
reactance threshold ``g_hat`` and rising as ``V_hat * (g / g_hat)**lambda_r``
beyond it - harsher repression inflates the perceived value.

The interior first-order effort is ``((1 - q) / beta * V(g) / g) ** (1 /
(beta - 1))``, capped by the budget corner ``(1 / g) ** (1 / beta)``.
Population shares follow the replicator-style flow
``dq = q (1 - q) (d_minority - d_majority)`` whose interior rest point is
``q* = (V(g)/g) / (V(1) + V(g)/g)``.  ``culture_rsc_consistency`` checks
on a lattice that the two-order structure reproduces direct maximization.
Per policy it builds the frontier and the direct pick once, reads the
residual type's stage-one head by argmax, and runs the shared kernel
``structure.two_stage_choice`` on that head and the reacting levels only.

``culture_dynamics`` integrates the flow with fixed-step RK4 and stops at
the first step that returns its input exactly.  That stop is exact: the
flow is autonomous and ``dt`` is fixed, so a step is a pure function of
``q`` and every later step would return the same ``q``.  Runs whose
``round(horizon / dt)`` exceeds ``MAX_CULTURE_STEPS``, and consistency
lattices above ``MAX_CONSISTENCY_GRID``, are rejected before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChoiceModelError
from .media import InvalidParamsError
from .structure import two_stage_choice


class NotInteriorAtGhatError(ChoiceModelError):
    code = "not-interior-at-ghat"


class StepBudgetError(ChoiceModelError):
    code = "too-many-steps"


class GridBudgetError(ChoiceModelError):
    code = "grid-too-large"


#: Most RK4 steps one ``culture_dynamics`` run may take: 50 times the CLI
#: default of 200 / 0.01.
MAX_CULTURE_STEPS = 1_000_000
#: Largest ``culture_rsc_consistency`` lattice.  Its cost is a few array
#: passes per policy, linear in the grid: 0.02 s and 44 MB peak at 100 000,
#: 0.2-0.4 s and 169 MB at 10^6 (whole process, default parameters, shared
#: 2-core machine).
MAX_CONSISTENCY_GRID = 100_000
#: Bracket width at which the ``culture_gbar`` bisection stops.
GBAR_TOL = 1e-10


@dataclass(frozen=True)
class CultureParams:
    """Model constants; see the validation for the admissible ranges.

    ``lambda_r`` is the reactance rate (the media model uses ``lam`` for an
    unrelated signal precision).  ``g`` is the policy applied to the
    minority; the majority always faces policy 1.
    """

    beta: float
    g_hat: float
    v_hat: float
    lambda_r: float
    g: float
    q0: float
    dt: float = 0.01
    horizon: float = 200.0

    def __post_init__(self):
        if not self.beta > 1.0:
            raise InvalidParamsError(f"cost curvature beta must exceed 1, got {self.beta}")
        if not self.g_hat > 1.0:
            raise InvalidParamsError(f"reactance threshold g_hat must exceed 1, got {self.g_hat}")
        if not self.v_hat >= 1.0:
            raise InvalidParamsError(f"base value v_hat must be at least 1, got {self.v_hat}")
        if not self.lambda_r >= 1.0:
            raise InvalidParamsError(f"reactance rate lambda_r must be at least 1, got {self.lambda_r}")
        if not self.g >= 1.0:
            raise InvalidParamsError(f"policy g must be at least 1, got {self.g}")
        if not 0.0 < self.q0 < 1.0:
            raise InvalidParamsError(f"initial share q0 must lie in (0, 1), got {self.q0}")
        if not self.dt > 0.0 or not self.horizon > 0.0:
            raise InvalidParamsError("dt and horizon must be positive")
        if not math.isfinite(self.dt) or not math.isfinite(self.horizon):
            raise InvalidParamsError("dt and horizon must be finite")
        ratio = self.horizon / self.dt
        if ratio == math.inf or round(ratio) > MAX_CULTURE_STEPS:
            raise StepBudgetError(
                f"horizon / dt = {ratio:.6g} steps is over the budget of {MAX_CULTURE_STEPS}"
            )

    @property
    def steps(self) -> int:
        """RK4 steps of one ``culture_dynamics`` run."""
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class CultureOutcome:
    d_star_minority: float
    d_star_majority: float
    trajectory: tuple[tuple[float, float], ...]
    q_steady: float
    q_end: float
    g_bar: float | None
    converged: bool

    def to_dict(self) -> dict:
        return {
            "d_star_minority": self.d_star_minority,
            "d_star_majority": self.d_star_majority,
            "q_steady": self.q_steady,
            "q_end": self.q_end,
            "g_bar": self.g_bar,
            "converged": self.converged,
        }

    def trajectory_csv(self) -> str:
        lines = ["tau,q"]
        lines.extend(f"{tau:.6f},{q:.12f}" for tau, q in self.trajectory)
        return "\n".join(lines) + "\n"


def transmission_value(g: float, g_hat: float, v_hat: float, lambda_r: float) -> float:
    """V(g): flat below the reactance threshold, power-rising above it.

    Raises ``InvalidParamsError`` when V(g) exceeds the float range.
    """
    if g <= g_hat:
        return v_hat
    try:
        value = v_hat * (g / g_hat) ** lambda_r
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise InvalidParamsError(f"V(g) overflows a float at g={g}, lambda_r={lambda_r}")
    return value


def effort(beta: float, value: float, g: float, q: float) -> float:
    """Optimal effort: min of the budget corner and the interior solution.

    ``q`` is the probability the child picks up the trait anyway through
    oblique transmission; at ``q = 1`` the interior branch vanishes.  An
    interior branch beyond the float range (``beta`` near 1) lies above the
    corner, so the corner is returned.
    """
    corner = (1.0 / g) ** (1.0 / beta)
    if q >= 1.0:
        return 0.0
    try:
        interior = ((1.0 - q) / beta * value / g) ** (1.0 / (beta - 1.0))
    except OverflowError:
        return corner
    return min(corner, interior)


def culture_effort(params: CultureParams, q: float, policy_g: float, side: str) -> float:
    """Equilibrium effort of one side at minority share ``q``.

    The minority faces ``policy_g``; the majority always faces policy 1
    and its oblique-transmission probability is ``1 - q``.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidParamsError(f"share q must lie in [0, 1], got {q}")
    if side == "minority":
        if not policy_g >= 1.0:
            raise InvalidParamsError(f"policy must be at least 1, got {policy_g}")
        value = transmission_value(policy_g, params.g_hat, params.v_hat, params.lambda_r)
        return effort(params.beta, value, policy_g, q)
    if side == "majority":
        return effort(params.beta, params.v_hat, 1.0, 1.0 - q)
    raise InvalidParamsError(f"side must be 'minority' or 'majority', got {side!r}")


def culture_gbar(params: CultureParams, q: float) -> float:
    """Smallest policy above the reactance threshold where the rising
    interior effort meets the falling budget corner.

    Requires the solution to be interior at the threshold itself
    (otherwise raises ``NotInteriorAtGhatError``); the two branches are
    monotone on the bracket, so bisection converges.  It stops at width
    ``GBAR_TOL`` or when no float lies strictly between the ends, whichever
    comes first: past about 5e5 adjacent floats are more than 1e-10 apart.
    """
    beta, g_hat = params.beta, params.g_hat

    def at_corner(g: float) -> bool:
        value = transmission_value(g, g_hat, params.v_hat, params.lambda_r)
        return effort(beta, value, g, q) == (1.0 / g) ** (1.0 / beta)

    if at_corner(g_hat):
        raise NotInteriorAtGhatError(
            "effort is already at the budget corner at the reactance threshold"
        )
    hi = g_hat * 2.0
    for _ in range(200):
        if at_corner(hi):
            break
        hi *= 2.0
    else:
        raise NotInteriorAtGhatError("interior effort never reaches the corner")
    lo = g_hat
    while hi - lo > GBAR_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if at_corner(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def steady_state(params: CultureParams) -> float:
    """Interior rest point of the share flow:
    q* = (V(g)/g) / (V(1) + V(g)/g)."""
    g = params.g
    vg = transmission_value(g, params.g_hat, params.v_hat, params.lambda_r) / g
    return vg / (params.v_hat + vg)


def culture_dynamics(params: CultureParams, record_every: int = 1) -> CultureOutcome:
    """Integrate the share flow with fixed-step RK4.

    The trajectory records every ``record_every``-th step (plus the final
    point).  ``converged`` flags agreement of the endpoint with the
    analytic rest point to 1e-6.

    The flow is autonomous and ``dt`` is fixed, so one step is a pure
    function of ``q``.  Once a step returns its input exactly (``q`` is
    never -0.0, so ``==`` means equal bits), every later step would return
    it too: the loop stops there and records the remaining points with that
    ``q``.  The result is bit-identical to running every step.
    """
    if record_every < 1:
        raise InvalidParamsError("record_every must be a positive integer")
    beta, g = params.beta, params.g
    value_minority = transmission_value(g, params.g_hat, params.v_hat, params.lambda_r)
    v_hat = params.v_hat

    def rhs(q: float) -> float:
        q = min(max(q, 0.0), 1.0)
        d_m = effort(beta, value_minority, g, q)
        d_mj = effort(beta, v_hat, 1.0, 1.0 - q)
        return q * (1.0 - q) * (d_m - d_mj)

    steps, dt = params.steps, params.dt
    q = params.q0
    trajectory = [(0.0, q)]
    for k in range(steps):
        q_prev = q
        k1 = rhs(q)
        k2 = rhs(q + 0.5 * dt * k1)
        k3 = rhs(q + 0.5 * dt * k2)
        k4 = rhs(q + dt * k3)
        q = q + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q = min(max(q, 0.0), 1.0)
        if (k + 1) % record_every == 0 or k == steps - 1:
            trajectory.append(((k + 1) * dt, q))
        if q == q_prev:
            tail = range(((k + 1) // record_every + 1) * record_every - 1, steps - 1, record_every)
            trajectory.extend(((j + 1) * dt, q) for j in tail)
            if k < steps - 1:
                trajectory.append((steps * dt, q))
            break

    q_star = steady_state(params)
    try:
        g_bar = culture_gbar(params, q_star)
    except NotInteriorAtGhatError:
        g_bar = None
    d_m = effort(beta, value_minority, g, q_star)
    d_mj = effort(beta, v_hat, 1.0, 1.0 - q_star)
    return CultureOutcome(
        d_star_minority=d_m,
        d_star_majority=d_mj,
        trajectory=tuple(trajectory),
        q_steady=q_star,
        q_end=q,
        g_bar=g_bar,
        converged=abs(q - q_star) < 1e-6,
    )


@dataclass(frozen=True)
class ConsistencyRow:
    g: float
    direct: tuple[float, float]
    two_stage: tuple[float, float]
    analytic: tuple[float, float]
    deviation_direct: float
    deviation_analytic: float


@dataclass(frozen=True)
class ConsistencyReport:
    """Two-stage versus direct maximization on the discretized problem.

    ``max_deviation_direct`` compares the two-stage choice with the direct
    discrete argmax; ``max_deviation_analytic`` compares it with the
    closed-form optimizer.  ``grid_too_coarse`` is reported (not fatal)
    when the former exceeds one grid cell.
    """

    grid_n: int
    cell: float
    rows: tuple[ConsistencyRow, ...]
    max_deviation_direct: float
    max_deviation_analytic: float
    grid_too_coarse: bool

    def to_dict(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "cell": self.cell,
            "max_deviation_direct": self.max_deviation_direct,
            "max_deviation_analytic": self.max_deviation_analytic,
            "grid_too_coarse": self.grid_too_coarse,
            "rows": [
                {
                    "g": r.g,
                    "direct": list(r.direct),
                    "two_stage": list(r.two_stage),
                    "analytic": list(r.analytic),
                    "deviation_direct": r.deviation_direct,
                    "deviation_analytic": r.deviation_analytic,
                }
                for r in self.rows
            ],
        }


def check_consistency_grid(grid_n: int) -> None:
    """Reject a ``culture_rsc_consistency`` lattice size before any work."""
    if grid_n < 10:
        raise InvalidParamsError(f"grid_n must be at least 10, got {grid_n}")
    if grid_n > MAX_CONSISTENCY_GRID:
        raise GridBudgetError(
            f"grid_n {grid_n} is over the budget of {MAX_CONSISTENCY_GRID}"
        )


def culture_rsc_consistency(
    params: CultureParams,
    grid_n: int,
    g_values: tuple[float, ...] | None = None,
) -> ConsistencyReport:
    """Check that the two-order structure reproduces direct maximization.

    The allocation square is discretized on a ``grid_n`` x ``grid_n``
    lattice of effort and leisure levels.  Under any policy the objective
    strictly increases in leisure, so every interior lattice point is
    dominated by its column's budget-binding allocation; each effort level
    therefore enters through its frontier point ``(1 - g d**beta, d)``,
    which keeps the comparison free of lattice rounding noise in leisure.

    The structure mirrors the continuous construction: every effort level
    that is directly optimal under some evaluated policy harsher than the
    reactance threshold forms a type (the zero-effort level stays residual:
    its budget never binds, so no restriction can touch it); the residual
    type collects everything else.  Welfare values a point at
    ``t + P(d) * V_hat``; the reaction value agrees with welfare for
    residual points and for points whose implied binding policy
    ``(1 - t) / d**beta`` stays weakly below the threshold, and inflates by
    the transmission value at the implied policy beyond it.

    Two-stage choice per policy: welfare-best feasible point of each type,
    then reaction-best among those, the smallest effort winning ties in both
    stages.  Stage one of the residual type is a numpy argmax over the
    lattice; ``structure.two_stage_choice`` then runs on its head and the
    feasible reacting levels (at most one per evaluated policy), so each
    policy costs a few array passes.  Deviations are sup-norm distances in
    the allocation square between the selections.

    ``g_values`` defaults to 10 evenly spaced policies from 1 to twice the
    corner-crossing policy.
    """
    check_consistency_grid(grid_n)
    beta, ghat, vhat, lr = params.beta, params.g_hat, params.v_hat, params.lambda_r
    q = params.q0
    if g_values is None:
        g_bar = culture_gbar(params, q)
        g_values = tuple(float(g) for g in np.linspace(1.0, 2.0 * g_bar, 10))
    if not g_values:
        raise InvalidParamsError("g_values must be nonempty")

    ds = np.linspace(0.0, 1.0, grid_n)
    cost = ds ** beta
    prob = ds + (1.0 - ds) * q
    # Once per policy: the budget-binding leisure of every column (negative
    # where infeasible) and the direct pick, whose first maximum is the smallest effort.
    policies = []
    for g in g_values:
        value = transmission_value(g, ghat, vhat, lr)
        t = 1.0 - g * cost
        feasible = t >= 0.0
        direct = int(np.argmax(np.where(feasible, t + prob * value, -np.inf)))
        policies.append((g, value, t, feasible, direct))
    reacting = sorted({jd for g, _, _, _, jd in policies if g > ghat} - {0})
    residual = np.isin(np.arange(grid_n), reacting, invert=True)

    def reaction_value(t: float, j: int) -> float:
        implied = (1.0 - t) / cost[j]
        if implied <= ghat:
            return t + prob[j] * vhat
        return t + prob[j] * transmission_value(implied, ghat, vhat, lr)

    cell = 1.0 / (grid_n - 1)
    rows = []
    worst_direct = worst_analytic = 0.0
    for g, value, t, feasible, jd in policies:
        # Stage one of the residual type keeps its welfare-best feasible
        # level, the smallest effort on ties; zero effort is always feasible
        # and never reacting.  Each feasible reacting level is its own type.
        welfare = np.where(feasible & residual, t + prob * vhat, -np.inf)
        levels = [int(np.argmax(welfare))] + [j for j in reacting if feasible[j]]
        keys = [(welfare[levels[0]], -levels[0])]
        keys += [(reaction_value(t[j], j), -j) for j in levels[1:]]
        chains = [[k] for k in range(len(levels))]
        local, _ = two_stage_choice(chains, keys, (1 << len(levels)) - 1)
        jr = levels[local]
        d_star = effort(beta, value, g, q)
        t_star = max(0.0, 1.0 - g * d_star ** beta)
        pt_d = (float(t[jd]), float(ds[jd]))
        pt_r = (float(t[jr]), float(ds[jr]))
        dev_direct = max(abs(pt_r[0] - pt_d[0]), abs(pt_r[1] - pt_d[1]))
        dev_analytic = max(abs(pt_r[0] - t_star), abs(pt_r[1] - d_star))
        worst_direct = max(worst_direct, dev_direct)
        worst_analytic = max(worst_analytic, dev_analytic)
        rows.append(
            ConsistencyRow(
                g=float(g),
                direct=pt_d,
                two_stage=pt_r,
                analytic=(t_star, d_star),
                deviation_direct=dev_direct,
                deviation_analytic=dev_analytic,
            )
        )
    return ConsistencyReport(
        grid_n=grid_n,
        cell=cell,
        rows=tuple(rows),
        max_deviation_direct=worst_direct,
        max_deviation_analytic=worst_analytic,
        grid_too_coarse=worst_direct > cell,
    )


def culture_reactance_comparative(
    params_low: CultureParams, params_high: CultureParams
) -> tuple[float, float]:
    """Rest points for two reactance rates; the higher rate must not lose.

    Both parameter sets must agree except on ``lambda_r``; for policies
    above the threshold the high-reactance rest point is strictly larger
    and the pair is asserted ordered.
    """
    if params_high.lambda_r <= params_low.lambda_r:
        raise InvalidParamsError("params_high must carry the larger lambda_r")
    for name in ("beta", "g_hat", "v_hat", "g", "q0"):
        if getattr(params_low, name) != getattr(params_high, name):
            raise InvalidParamsError(f"parameter {name} must match across the pair")
    q_low = steady_state(params_low)
    q_high = steady_state(params_high)
    if params_low.g > params_low.g_hat:
        assert q_high > q_low, "higher reactance must raise the rest point above the threshold"
    return q_low, q_high
