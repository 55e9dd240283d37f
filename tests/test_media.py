from __future__ import annotations

import math
import random

import pytest

from rschoice.media import (
    EXTREME_ACTION_CUTOFF,
    MENUS,
    SOURCES,
    InvalidParamsError,
    MediaParams,
    media_menu_choice,
    media_pstar,
    media_sweep,
    _likelihoods,
    _posterior,
    _signal_probability,
)


def test_pstar_formula():
    assert media_pstar(0.7) == pytest.approx(0.5 / 1.1)
    assert media_pstar(0.5 + 1e-9) == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert media_pstar(0.75 - 1e-9) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(InvalidParamsError):
        media_pstar(0.8)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        MediaParams(p=0.6, lam=0.7)
    with pytest.raises(InvalidParamsError):
        MediaParams(p=0.3, lam=0.8)


def test_full_menu_chooses_own_biased_source():
    for p in (0.05, 0.2, 0.35, 0.49):
        for lam in (0.55, 0.65, 0.74):
            out = media_menu_choice(MediaParams(p=p, lam=lam), "M")
            assert out.chosen_source == "sigmaL"
            assert out.consideration == ("sigmaL", "sigmaR")


def test_reduced_menu_flip_at_pstar():
    lam = 0.7
    pstar = media_pstar(lam)
    below = media_menu_choice(MediaParams(p=pstar - 1e-9, lam=lam), "N")
    at = media_menu_choice(MediaParams(p=pstar, lam=lam), "N")
    above = media_menu_choice(MediaParams(p=pstar + 1e-9, lam=lam), "N")
    assert below.chosen_source == "sigmaL"
    assert at.chosen_source == "sigmaRR"  # weakly preferred at the crossing
    assert above.chosen_source == "sigmaRR"
    assert at.consideration == ("sigmaL", "sigmaRR")


def test_expected_values_match_closed_forms():
    p, lam = 0.41, 0.7
    out = media_menu_choice(MediaParams(p=p, lam=lam), "N")
    u_own = out.expected_payoffs["sigmaL"][0]
    v_extreme = out.expected_payoffs["sigmaRR"][1]
    assert u_own == pytest.approx((1 - p) + p * lam - p * (1 - lam), abs=1e-12)
    assert v_extreme == pytest.approx(p + (1 - p) * 0.5, abs=1e-12)


def test_action_after_breakthrough_signal():
    lam = 0.66
    p = media_pstar(lam) + 0.01
    out = media_menu_choice(MediaParams(p=p, lam=lam), "N")
    assert out.chosen_source == "sigmaRR"
    assert out.action_by_signal["sR"] == "r"
    assert out.posterior_by_signal["sR"] >= EXTREME_ACTION_CUTOFF - 1e-12
    assert out.action_by_signal["sL"] == "l"
    assert out.posterior_by_signal["sL"] == 0.0


def test_no_reactance_never_picks_extreme_source():
    for i in range(1, 50):
        p = i / 100
        for j in range(1, 25):
            lam = 0.5 + 0.25 * j / 25
            out = media_menu_choice(MediaParams(p=p, lam=lam), "N", no_reactance=True)
            assert out.chosen_source == "sigmaL"


def test_posteriors_are_martingale():
    p, lam = 0.37, 0.66
    for rows in _likelihoods(lam).values():
        total = sum(_signal_probability(rows, p, sig) * _posterior(rows, p, sig) for sig in (0, 1))
        assert total == pytest.approx(p, abs=1e-12)


def test_likelihood_rows_are_stochastic():
    for rows in _likelihoods(0.6).values():
        for row in rows:
            assert math.isclose(sum(row), 1.0)


def test_menu_must_be_m_or_n():
    with pytest.raises(InvalidParamsError):
        media_menu_choice(MediaParams(p=0.3, lam=0.6), "Q")


# --- media_sweep against the scalar path -------------------------------------


def _scalar_sweep(ps, lams, menu):
    outs = [media_menu_choice(MediaParams(p=p, lam=lam), menu) for p, lam in zip(ps, lams)]
    return (
        [SOURCES.index(o.chosen_source) for o in outs],
        [o.expected_payoffs["sigmaL"][0] for o in outs],
        [o.expected_payoffs["sigmaRR"][1] for o in outs],
    )


def _assert_sweep_matches_scalar(ps, lams):
    """Same chosen source and bit-identical floats (``==``) on both menus."""
    for menu in MENUS:
        chosen, u_own, v_extreme = media_sweep(ps, lams, menu)
        assert (chosen.tolist(), u_own.tolist(), v_extreme.tolist()) == _scalar_sweep(ps, lams, menu)


def test_media_sweep_matches_scalar_path_on_random_points():
    rng = random.Random(2024)
    ps = [rng.uniform(0.0, 0.5) for _ in range(2000)]
    lams = [rng.uniform(0.5, 0.75) for _ in range(2000)]
    _assert_sweep_matches_scalar(ps, lams)


def test_media_sweep_matches_scalar_path_at_and_around_pstar():
    rng = random.Random(17)
    lam_values = [0.5 + 0.25 * j / 200 for j in range(1, 200)]
    lam_values += [rng.uniform(0.5, 0.75) for _ in range(200)]
    ps, lams = [], []
    for lam in lam_values:
        pstar = media_pstar(lam)
        for p in (math.nextafter(pstar, 0.0), pstar, math.nextafter(pstar, 1.0)):
            ps.append(p)
            lams.append(lam)
    _assert_sweep_matches_scalar(ps, lams)
    # The crossing often ties exactly in floats, so the tie rule is exercised.
    _, u_own, v_extreme = media_sweep(ps[1::3], lams[1::3], "N")
    assert (u_own == v_extreme).sum() > 10


def test_media_sweep_matches_scalar_path_near_domain_edges():
    rng = random.Random(5)
    p_edges = [math.nextafter(0.0, 1.0), math.nextafter(0.5, 0.0), 1e-9, 0.5 - 1e-9]
    p_edges += [rng.uniform(0.0, 1e-9) or 1e-9 for _ in range(8)]
    p_edges += [0.5 - rng.uniform(0.0, 1e-9) for _ in range(8)]
    lam_edges = [math.nextafter(0.5, 1.0), math.nextafter(0.75, 0.0), 0.5 + 1e-9, 0.75 - 1e-9]
    lam_edges += [0.5 + rng.uniform(0.0, 1e-9) for _ in range(8)]
    lam_edges += [0.75 - rng.uniform(0.0, 1e-9) for _ in range(8)]
    lam_edges += [rng.uniform(0.5, 0.75) for _ in range(8)]
    p_edges += [rng.uniform(0.0, 0.5) for _ in range(8)]
    ps = [p for _ in lam_edges for p in p_edges]
    lams = [lam for lam in lam_edges for _ in p_edges]
    _assert_sweep_matches_scalar(ps, lams)


@pytest.mark.parametrize(
    "ps, lams",
    [
        ([0.1, 0.2, 0.6, 0.7], [0.6, 0.6, 0.6, 0.8]),
        ([0.1, 0.2, 0.3, 0.6], [0.6, 0.6, 0.8, 0.8]),
        ([0.1, float("nan"), 0.0], [0.6, 0.6, 0.6]),
        ([0.1, 0.2], [0.6, 0.5]),
        ([-0.0, 0.2], [0.6, 0.75]),
    ],
)
def test_media_sweep_raises_the_scalar_error_of_the_first_invalid_point(ps, lams):
    expected = None
    for p, lam in zip(ps, lams):
        try:
            MediaParams(p=p, lam=lam)
        except InvalidParamsError as exc:
            expected = str(exc)
            break
    with pytest.raises(InvalidParamsError) as info:
        media_sweep(ps, lams, "N")
    assert str(info.value) == expected


def test_media_sweep_menu_must_be_m_or_n():
    with pytest.raises(InvalidParamsError):
        media_sweep([0.3], [0.6], "Q")
