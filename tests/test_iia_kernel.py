"""The IIA kernel: witness lists against the walk over every menu, and
verdicts against the pairwise criterion.

``check_iia`` walks only the menus its subset-OR gate flags as open, and
tables of at most 2 * ``EXP_SMALL_FAMILY`` entries skip the gate.  The
tests run with the shipped constants and with the gate on every table,
transforming prefixes of 2, 16, 128, ... menus and listing open menus in
blocks of three, so that inputs on 4 to 8 options cross several prefixes
and many blocks.
"""

from __future__ import annotations

import random
import sys

import pytest

from rschoice import axioms
from rschoice.axioms import check_iia
from rschoice.core import ChoiceFunction, GroundSet, choice_from_order, enumerate_choice_functions
from rschoice.generators import ground_of_size, random_order

from conftest import mixed_choice_function

#: Constant overrides: shipped values; every table gated, from a prefix of
#: two menus, three menus a block.
SETTINGS = {
    "shipped": {},
    "gated": {"EXP_SMALL_FAMILY": 0, "IIA_FIRST_MENUS": 2, "IIA_SCAN_BLOCK": 3},
}


def iia_reference(cf: ChoiceFunction) -> list[tuple]:
    """Every IIA witness (A, B): for every menu A, ascending, each proper
    submenu B holding x = c(A), in descending order, with c(B) != x.
    3^n / 2 steps."""
    ground, choices = cf.ground, cf.table.tolist()
    out = []
    for mask in range(1, ground.full_mask + 1):
        chosen = choices[mask]
        bit = 1 << chosen
        rest = sub = mask ^ bit
        while sub:
            sub = (sub - 1) & rest
            if choices[sub | bit] != chosen:
                out.append((ground.menu_key(mask), ground.menu_key(sub | bit)))
    return out


def iia_pairwise(cf: ChoiceFunction) -> bool:
    """Arrow (1959): a single-valued choice function satisfies IIA iff each
    menu's choice beats every other member of the menu in their pair."""
    beats, choices = cf.beats, cf.table.tolist()
    return all(not mask & ~(beats[c] | 1 << c) for mask, c in enumerate(choices) if mask)


def _assert_reference(cf: ChoiceFunction, caps=(0, 1, 16)) -> bool:
    reference = iia_reference(cf)
    assert check_iia(cf, sys.maxsize).violations == tuple(reference), cf.table.tolist()
    for cap in caps:
        verdict = check_iia(cf, cap)
        assert verdict.violations == tuple(reference[:cap]), (cap, cf.table.tolist())
        assert verdict.holds == (not reference)
        assert verdict.truncated == (len(reference) > cap)
    return not reference


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_iia_lists_the_reference_witnesses_on_every_function_on_four_options(monkeypatch, setting):
    for name, value in SETTINGS[setting].items():
        monkeypatch.setattr(axioms, name, value)
    ground = GroundSet(("a", "b", "c", "d"))
    held = sum(_assert_reference(cf) for cf in enumerate_choice_functions(ground))
    assert held == 24  # the choices of the 24 orders


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_iia_lists_the_reference_witnesses_on_random_functions(rng, monkeypatch, setting):
    for name, value in SETTINGS[setting].items():
        monkeypatch.setattr(axioms, name, value)
    held = sum(_assert_reference(mixed_choice_function(rng, ground_of_size(5 + k % 4), k % 3))
               for k in range(300))
    assert 0 < held < 300


def test_iia_verdict_is_the_pairwise_criterion(rng):
    seen = set()
    for k in range(240):
        size = 2 + k % 9
        cf = mixed_choice_function(rng, ground_of_size(size), k % 3)
        if k % 4 == 3:
            cf = choice_from_order(random_order(rng, cf.ground))
        holds = check_iia(cf, cap=0).holds
        assert holds == iia_pairwise(cf), cf.table.tolist()
        seen.add((size, holds))
    assert {(10, True), (10, False)} <= seen


def test_iia_verdict_on_16_options_is_the_pairwise_criterion():
    """A walk over every menu takes seconds here.  The gate walks no menu
    of the order's choice, and only the full menu once one pick changes."""
    cf = choice_from_order(random_order(random.Random(16), ground_of_size(16)))
    assert check_iia(cf).holds and iia_pairwise(cf)
    table = cf.table.tolist()
    mask = (1 << 16) - 1
    table[mask] = (table[mask] + 1) % 16  # the full menu now picks another option
    broken = ChoiceFunction(cf.ground, table)
    verdict = check_iia(broken)
    assert not verdict.holds and not iia_pairwise(broken)
    full = broken.ground.menu_key(mask)
    assert verdict.truncated and all(a == full for a, _ in verdict.violations)
