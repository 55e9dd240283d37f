"""Attention allocation across biased news sources, with reactance.

A decision maker with prior ``p < 1/2`` on state R picks one of four
signal sources, observes the signal, updates by Bayes and acts.  The two
moderate sources fully reveal the opposite state and leak the own state
with precision ``lambda``; the extreme versions replace ``lambda`` with
``delta = 1/2``.  Sources of the same bias form a type; the moderate
source always dominates its extreme sibling on informativeness, so the
extreme one is only considered when the moderate one is missing - and in
that case the reactance-adjusted payoffs (mistakes in the own-bias state
cost nothing) govern the second stage.  Both stages are the shared kernel
``structure.two_stage_choice`` over the four sources.

The crossing prior at which the extreme opposite source overtakes the
moderate own-biased one in the reduced menu has the closed form
``(1/2) / (5/2 - 2*lambda)``.

``media_menu_choice`` decides one point.  ``media_sweep`` decides many
(prior, precision) points in one numpy pass and backs ``sweep media`` and
the phase-diagram script.  It is exact, not approximate: numpy's float64
add, multiply and divide round like Python's, and the kernel repeats the
scalar operations in the same order (no reassociation, no closed form for
the crossing), so every value and every exact tie at the crossing come out
bit for bit as on the scalar path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import ChoiceModelError
from .structure import two_stage_choice


class InvalidParamsError(ChoiceModelError):
    code = "invalid-params"


#: Posterior-on-R cutoff above which action r is taken after a signal from
#: an extreme source under reactance (mistakes in the own-bias state are
#: costless, so the bar sits below one half).
EXTREME_ACTION_CUTOFF = 1.0 / 3.0

SOURCES = ("sigmaLL", "sigmaL", "sigmaR", "sigmaRR")
MODERATE = {"sigmaL", "sigmaR"}
#: Bias types as positions in ``SOURCES``, most informative source first.
TYPE_CHAINS = ((1, 0), (2, 3))
#: Menus as bitmasks over ``SOURCES``; N lacks the moderate R source.
MENUS = {"M": 0b1111, "N": 0b1011}


@dataclass(frozen=True)
class PayoffSpec:
    """Action payoffs by state; override only for sensitivity sweeps.

    ``on_target`` pays for the matching action (r in R, l in L);
    ``miss`` for the mismatch; ``miss_reactance`` replaces ``miss`` for
    extreme sources when reactance is active.
    """

    on_target: float = 1.0
    miss: float = -1.0
    miss_reactance: float = 0.0


@dataclass(frozen=True)
class MediaParams:
    p: float
    lam: float
    delta: float = 0.5
    payoffs: PayoffSpec = field(default_factory=PayoffSpec)

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise InvalidParamsError(f"prior p must lie in (0, 1/2), got {self.p}")
        if not 0.5 < self.lam < 0.75:
            raise InvalidParamsError(
                f"moderate precision lambda must lie in (1/2, 3/4), got {self.lam}"
            )
        if self.delta != 0.5:
            raise InvalidParamsError("extreme precision delta is fixed at 1/2")


@dataclass(frozen=True)
class SignalSource:
    """Statistical experiment: rows are states (L, R), columns signals (sL, sR)."""

    id: str
    likelihoods: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        for row in self.likelihoods:
            if abs(sum(row) - 1.0) > 1e-12:
                raise InvalidParamsError(f"likelihood rows of {self.id} must sum to 1")


def _likelihoods(lam, delta):
    """Likelihood rows per source; ``lam`` may be a float or a numpy array."""
    return {
        "sigmaL": ((1.0, 0.0), (1.0 - lam, lam)),
        "sigmaR": ((lam, 1.0 - lam), (0.0, 1.0)),
        "sigmaLL": ((1.0, 0.0), (1.0 - delta, delta)),
        "sigmaRR": ((delta, 1.0 - delta), (0.0, 1.0)),
    }


def signal_sources(params: MediaParams) -> dict[str, SignalSource]:
    return {
        s: SignalSource(s, rows) for s, rows in _likelihoods(params.lam, params.delta).items()
    }


@dataclass(frozen=True)
class MediaOutcome:
    chosen_source: str
    posterior_by_signal: dict[str, float]
    action_by_signal: dict[str, str]
    expected_payoffs: dict[str, tuple[float, float]]
    consideration: tuple[str, ...]
    menu: str

    def to_json(self) -> str:
        doc = {
            "menu": self.menu,
            "consideration": list(self.consideration),
            "chosen_source": self.chosen_source,
            "posterior_by_signal": self.posterior_by_signal,
            "action_by_signal": self.action_by_signal,
            "expected_payoffs": {
                k: {"u": u, "v": v} for k, (u, v) in sorted(self.expected_payoffs.items())
            },
        }
        return json.dumps(doc, indent=2) + "\n"


def _signal_probability(source: SignalSource, p: float, signal: int) -> float:
    return (1.0 - p) * source.likelihoods[0][signal] + p * source.likelihoods[1][signal]

def _posterior(source: SignalSource, p: float, signal: int) -> float:
    total = _signal_probability(source, p, signal)
    if total == 0.0:
        return p
    return p * source.likelihoods[1][signal] / total


def _signal_values(
    q: float, pay: PayoffSpec, reactance: bool
) -> tuple[float, float, str]:
    """(value of l, value of r, optimal action) at posterior q on R.

    Moderate evaluation compares the symmetric payoffs directly.  Under
    reactance the miss payoffs of the extreme source are zeroed and the
    action switches to r at the cutoff posterior, where the welfare loss
    of acting r in state L first equals the gain.
    """
    if not reactance:
        value_l = (1.0 - q) * pay.on_target + q * pay.miss
        value_r = q * pay.on_target + (1.0 - q) * pay.miss
        action = "r" if value_r > value_l else "l"
        return value_l, value_r, action
    value_l = (1.0 - q) * pay.on_target + q * pay.miss_reactance
    value_r = q * pay.on_target + (1.0 - q) * pay.miss_reactance
    action = "r" if q >= EXTREME_ACTION_CUTOFF else "l"
    return value_l, value_r, action


def expected_value(source: SignalSource, p: float, pay: PayoffSpec, reactance: bool) -> float:
    """Ex-ante value of attending to the source.

    Sum over signals of the probability of the signal times the value of
    the action then taken.
    """
    total = 0.0
    for signal in (0, 1):
        prob = _signal_probability(source, p, signal)
        if prob == 0.0:
            continue
        q = _posterior(source, p, signal)
        value_l, value_r, action = _signal_values(q, pay, reactance)
        total += prob * (value_r if action == "r" else value_l)
    return total


def media_pstar(lam: float) -> float:
    """Prior at which the extreme opposite source overtakes the moderate
    own-biased one in the reduced menu: (1/2) / (5/2 - 2*lambda)."""
    if not 0.5 < lam < 0.75:
        raise InvalidParamsError(f"lambda must lie in (1/2, 3/4), got {lam}")
    return 0.5 / (2.5 - 2.0 * lam)


def media_menu_choice(
    params: MediaParams, menu: str, no_reactance: bool = False
) -> MediaOutcome:
    """Two-stage source choice from menu ``M`` (all four) or ``N`` (no
    moderate R source).

    Both stages run in ``structure.two_stage_choice``.  Stage one keeps the
    most informative available source of each bias type.  Stage two
    compares expected values: moderate sources always by the welfare
    payoffs, extreme sources by the reactance payoffs unless
    ``no_reactance``.  Ties go to the later source in reading order
    (sigmaLL, sigmaL, sigmaR, sigmaRR), so at the exact crossing prior the
    extreme R source is reported chosen.
    """
    if menu not in MENUS:
        raise InvalidParamsError(f"menu must be 'M' or 'N', got {menu!r}")
    sources = signal_sources(params)
    pay = params.payoffs

    values_u = {s: expected_value(sources[s], params.p, pay, reactance=False) for s in SOURCES}
    values_v = {
        s: values_u[s]
        if s in MODERATE
        else expected_value(sources[s], params.p, pay, reactance=True)
        for s in SOURCES
    }
    stage2 = values_u if no_reactance else values_v

    keys = [(stage2[s], i) for i, s in enumerate(SOURCES)]
    best, considered = two_stage_choice(TYPE_CHAINS, keys, MENUS[menu])
    chosen = SOURCES[best]
    consideration = tuple(s for i, s in enumerate(SOURCES) if (considered >> i) & 1)

    src = sources[chosen]
    reactance_applies = (chosen not in MODERATE) and not no_reactance
    posterior_by_signal: dict[str, float] = {}
    action_by_signal: dict[str, str] = {}
    for signal, name in ((0, "sL"), (1, "sR")):
        q = _posterior(src, params.p, signal)
        posterior_by_signal[name] = q
        _, _, action = _signal_values(q, pay, reactance_applies)
        action_by_signal[name] = action
    return MediaOutcome(
        chosen_source=chosen,
        posterior_by_signal=posterior_by_signal,
        action_by_signal=action_by_signal,
        expected_payoffs={s: (values_u[s], values_v[s]) for s in SOURCES},
        consideration=consideration,
        menu=menu,
    )


def _expected_values(rows, p: np.ndarray, pay: PayoffSpec, reactance: bool) -> np.ndarray:
    """``expected_value`` at every prior in ``p``, operation for operation.

    ``rows`` are a source's likelihood rows, whose entries may be arrays
    aligned with ``p``.  Each line repeats the float64 operations of
    ``_signal_probability``, ``_posterior`` and ``_signal_values`` in the
    same order, so every element equals the scalar result bit for bit.
    """
    total = 0.0
    for signal in (0, 1):
        l0, l1 = rows[0][signal], rows[1][signal]
        prob = (1.0 - p) * l0 + p * l1
        q = np.divide(p * l1, prob, out=p.copy(), where=prob != 0.0)
        miss = pay.miss_reactance if reactance else pay.miss
        value_l = (1.0 - q) * pay.on_target + q * miss
        value_r = q * pay.on_target + (1.0 - q) * miss
        take_r = q >= EXTREME_ACTION_CUTOFF if reactance else value_r > value_l
        total = np.where(prob == 0.0, total, total + prob * np.where(take_r, value_r, value_l))
    return total


def media_sweep(ps, lams, menu: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``media_menu_choice`` at every point ``(ps[i], lams[i])`` in one pass.

    Returns the chosen source's index into ``SOURCES``, u(sigmaL) and
    v(sigmaRR) as arrays; each element equals the scalar path bit for bit.
    Stage one depends only on the menu, so its consideration mask comes
    from one ``structure.two_stage_choice`` call.  Stage two takes the
    considered sources in reading order and lets a later one win when its
    value is at least the best so far: the scalar key ``(value, position)``.
    An invalid point raises the scalar path's error for the first such
    point in the given order.
    """
    ps = np.asarray(ps, dtype=np.float64)
    lams = np.asarray(lams, dtype=np.float64)
    bad = ~((0.0 < ps) & (ps < 0.5) & (0.5 < lams) & (lams < 0.75))
    if bad.any():
        first = int(np.argmax(bad))
        MediaParams(p=float(ps[first]), lam=float(lams[first]))  # raises its error
    if menu not in MENUS:
        raise InvalidParamsError(f"menu must be 'M' or 'N', got {menu!r}")
    _, considered = two_stage_choice(TYPE_CHAINS, [0] * len(SOURCES), MENUS[menu])
    members = [i for i in range(len(SOURCES)) if (considered >> i) & 1]
    rows = _likelihoods(lams, 0.5)  # MediaParams fixes delta at 1/2
    pay = PayoffSpec()
    values = {
        s: _expected_values(rows[s], ps, pay, reactance=s not in MODERATE)
        for s in dict.fromkeys([SOURCES[i] for i in members] + ["sigmaL", "sigmaRR"])
    }
    chosen = np.full(ps.shape, members[0])
    best = values[SOURCES[members[0]]]
    for i in members[1:]:
        take = values[SOURCES[i]] >= best
        chosen = np.where(take, i, chosen)
        best = np.where(take, values[SOURCES[i]], best)
    return chosen, values["sigmaL"], values["sigmaRR"]
