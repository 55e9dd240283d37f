from __future__ import annotations

import dataclasses
import functools
import itertools
import sys

import pytest

from rschoice.axioms import (
    InvalidRationaleError,
    NotSingleValuedError,
    TSMSpec,
    check_all,
    check_exp,
    check_iia,
    check_ir,
    check_nrs,
    check_spr,
    tsm_choice,
    tsm_fixture_nrs_violation,
    tsm_fixture_spr_violation,
)
from rschoice.core import GroundSet, LinearOrder, TypePartition, choice_from_order
from rschoice.fixtures import detergent_choice
from rschoice.generators import (
    ground_of_size,
    random_choice_function,
    random_single_peaked_structure,
)
from rschoice.normative import MenuPreference, check_menu_axioms, freedom_model
from rschoice.revealed import reveal

from conftest import cf_from


def order_cf(*names):
    ground = GroundSet(tuple(sorted(names)))
    return choice_from_order(LinearOrder(ground, tuple(names)))


def test_expansion_holds_on_orders():
    assert check_exp(order_cf("x", "y", "z")).holds


def test_expansion_violation_witness():
    cf = cf_from(("x", "y", "z"), {"x,y": "x", "x,z": "x", "y,z": "y", "x,y,z": "y"})
    verdict = check_exp(cf)
    assert not verdict.holds
    assert ("x,y", "x,z", "x", "y") in verdict.violations


def test_nrs_violation_on_shortlist_example():
    cf = tsm_choice(tsm_fixture_nrs_violation())
    rep = reveal(cf)
    verdict = check_nrs(cf, rep.similarity_classes)
    assert not verdict.holds
    assert ("x", "y", "z") in verdict.violations


def test_nrs_vacuous_on_orders():
    cf = order_cf("x", "y", "z")
    rep = reveal(cf)
    assert rep.similarity_classes.blocks == (("x",), ("y",), ("z",))
    assert check_nrs(cf, rep.similarity_classes).holds


def test_ir_vacuous_on_three_options():
    cf = detergent_choice()
    rep = reveal(cf)
    assert check_ir(cf, rep.similarity_classes).holds


def test_ir_violation_hand_fixture():
    # x ~ y one class via a reaction; z, t outside; the four binary choices
    # instantiate the premises and break the conclusion
    cf = cf_from(
        ("x", "y", "z", "t"),
        {
            "x,y": "y",
            "x,z": "x",
            "y,z": "z",
            "y,t": "y",
            "x,t": "t",
            "z,t": "z",
            "x,y,z": "z",   # witnesses x reacts to absence of y
            "x,y,t": "y",
            "x,z,t": "x",   # keeps t outside x's class (links t with z instead)
            "y,z,t": "z",
            "x,y,z,t": "z",
        },
    )
    rep = reveal(cf)
    assert rep.reaction.holds("x", "y")
    blocks = rep.similarity_classes.blocks
    assert any(set(b) == {"x", "y"} for b in blocks)
    assert any(set(b) == {"z", "t"} for b in blocks)
    verdict = check_ir(cf, rep.similarity_classes)
    assert not verdict.holds
    assert ("x", "y", "z", "t") in verdict.violations


def test_spr_violation_on_shortlist_example():
    cf = tsm_choice(tsm_fixture_spr_violation())
    rep = reveal(cf)
    assert cf.choose(["y", "z"]) == "z"
    assert cf.choose(["x", "y"]) == "y"
    verdict = check_spr(cf, rep)
    assert not verdict.holds
    assert ("z", "y", "x", "a") in verdict.violations


def test_spr_vacuous_without_reactions():
    cf = order_cf("x", "y", "z", "t")
    assert check_spr(cf, reveal(cf)).holds


def test_iia_on_order_and_detergent():
    assert check_iia(order_cf("x", "y", "z")).holds
    verdict = check_iia(detergent_choice())
    assert not verdict.holds
    assert ("x,y,z", "x,z") in verdict.violations


def test_nonempty_reaction_implies_iia_violation(rng):
    found = 0
    for _ in range(60):
        cf = random_choice_function(rng, ground_of_size(4))
        rep = reveal(cf)
        if not rep.reaction.is_empty():
            assert not check_iia(cf, cap=1).holds
            found += 1
    assert found > 0


def test_iia_implies_all_axioms():
    ground = GroundSet(("a", "b", "c", "d"))
    for perm in itertools.permutations(ground.options):
        cf = choice_from_order(LinearOrder(ground, perm))
        assert check_iia(cf, cap=1).holds
        for verdict in check_all(cf, cap=1):
            assert verdict.holds, verdict.axiom


def _replay(cf, axiom, witness):
    c = cf.choose
    if axiom == "Exp":
        menu_a, menu_b, chosen, got = witness
        a, b = menu_a.split(","), menu_b.split(",")
        assert c(a) == chosen and c(b) == chosen
        assert c(sorted(set(a) | set(b), key=cf.ground.options.index)) == got != chosen
    elif axiom == "NRS":
        x, y, z = witness
        assert c([x, y]) == x and c([y, z]) == y and c([x, z]) != x
    elif axiom == "IR":
        x, y, z, t = witness
        assert c([x, z]) == x and c([y, z]) == z and c([y, t]) == y and c([x, t]) != x
    elif axiom == "SPR":
        x, y, z, u = witness
        assert c([x, y]) == x and c([y, z]) == y
        assert c([x, u]) == x and c([y, u]) != y
    elif axiom == "IIA":
        menu_a, menu_b = witness
        a, b = menu_a.split(","), menu_b.split(",")
        assert c(a) in b and c(b) != c(a)


def test_witnesses_replay_against_the_function(rng):
    replayed = 0
    for _ in range(40):
        cf = random_choice_function(rng, ground_of_size(4))
        for verdict in check_all(cf, cap=8):
            for witness in verdict.violations:
                _replay(cf, verdict.axiom, witness)
                replayed += 1
    assert replayed > 100


AXIOM_CHECKS = {
    "Exp": lambda cf, report, cap: check_exp(cf, cap),
    "NRS": lambda cf, report, cap: check_nrs(cf, report.similarity_classes, cap),
    "IR": lambda cf, report, cap: check_ir(cf, report.similarity_classes, cap),
    "SPR": lambda cf, report, cap: check_spr(cf, report, cap),
    "IIA": lambda cf, report, cap: check_iia(cf, cap),
}


def _capped_checks(rng):
    """(axiom, check(cap)) for all seven checkers on inputs with violations.

    A random function reveals a single class, under which NRS, IR and SPR
    have few or no witnesses; its report gets a 4 + 2 partition instead.
    """
    fixtures = (tsm_choice(tsm_fixture_nrs_violation()), tsm_choice(tsm_fixture_spr_violation()))
    inputs = [(cf, reveal(cf)) for cf in fixtures]
    for _ in range(6):
        cf = random_choice_function(rng, ground_of_size(6))
        opts = cf.ground.options
        partition = TypePartition(cf.ground, (opts[:4], opts[4:]))
        inputs.append((cf, dataclasses.replace(reveal(cf), similarity_classes=partition)))
    for cf, report in inputs:
        for axiom, check in AXIOM_CHECKS.items():
            yield axiom, functools.partial(check, cf, report)
    for _ in range(3):
        model = freedom_model(random_single_peaked_structure(rng, ground_of_size(4)))
        size = 1 << model.ground.size
        for scores in ([0] * size, [rng.randrange(4) for _ in range(size)]):
            pref = MenuPreference(model.ground, tuple(scores))
            for k, axiom in enumerate(("R-Dominance", "R-Composition")):
                yield axiom, lambda cap, pref=pref, model=model, k=k: (
                    check_menu_axioms(model, pref, cap)[k]
                )


def test_violation_cap_and_determinism(rng):
    most: dict[str, int] = {}
    for axiom, check in _capped_checks(rng):
        full = check(10**9)
        assert full.axiom == axiom and not full.truncated
        assert full.holds == (not full.violations)
        assert check(10**9) == full
        # caps past the islice index range read the whole (finite) stream
        for cap in (sys.maxsize, sys.maxsize + 1, 10**30):
            assert check(cap) == full
        for cap in (0, 1, 3):
            capped = check(cap)
            assert capped.violations == full.violations[:cap]
            assert capped.truncated == (len(full.violations) > cap)
            assert capped.holds == full.holds
        with pytest.raises(ValueError):
            check(-1)
        most[axiom] = max(most.get(axiom, 0), len(full.violations))
    # every checker was cut short at cap 3 on some input
    assert len(most) == 7 and min(most.values()) > 3, most


def test_shortlist_choices_match_stated_values():
    cf1 = tsm_choice(tsm_fixture_nrs_violation())
    assert cf1.choose(["u", "t"]) == "t"
    assert cf1.choose(["x", "u", "t"]) == "u"
    assert cf1.choose(["y", "u", "t"]) == "u"
    assert cf1.choose(["z", "u", "t"]) == "u"
    cf2 = tsm_choice(tsm_fixture_spr_violation())
    assert cf2.choose(["y", "z"]) == "z"
    assert cf2.choose(["x", "y"]) == "y"
    assert cf2.choose(["a", "z"]) == "z"
    assert cf2.choose(["a", "y"]) == "a"


def test_shortlist_with_empty_first_rationale_is_order_choice():
    ground = GroundSet(("a", "b", "c"))
    spec = TSMSpec(ground, p1=(), p2=(("a", "b"), ("b", "c")))
    cf = tsm_choice(spec)
    expected = choice_from_order(LinearOrder(ground, ("a", "b", "c")))
    assert cf.choices == expected.choices


def test_shortlist_not_single_valued():
    ground = GroundSet(("a", "b"))
    spec = TSMSpec(ground, p1=(), p2=())
    with pytest.raises(NotSingleValuedError):
        tsm_choice(spec)


def test_shortlist_rejects_cyclic_rationale():
    ground = GroundSet(("a", "b", "c"))
    spec = TSMSpec(ground, p1=(("a", "b"), ("b", "c"), ("c", "a")), p2=())
    with pytest.raises(InvalidRationaleError):
        tsm_choice(spec)
