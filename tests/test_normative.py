from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rschoice.core import GroundSet, LinearOrder, TypePartition, choice_from_order
from rschoice.fixtures import (
    scenario_attention_vs_improving,
    scenario_conservative_not_improving,
    scenario_improving_not_conservative,
    worked_structure,
)
from rschoice.generators import ground_of_size, random_single_peaked_structure
import rschoice.normative as normative
from rschoice.normative import (
    CompositionBudgetError,
    MenuPreference,
    NotSinglePeakedRSCError,
    bernheim_rangel_pstar,
    check_menu_axioms,
    freedom_count,
    freedom_model,
    freedom_model_from_choice,
    freedom_ranking,
    freedom_table_csv,
    improving_from_structure,
    is_richer,
    masatlioglu_pr,
    welfare_improving,
    welfare_report,
)
from rschoice.structure import RSStructure, certify_single_peaked, evaluate, minimal_structure
from rschoice.axioms import tsm_choice, tsm_fixture_spr_violation

from conftest import reextended


def test_improving_without_conservative():
    sc = scenario_improving_not_conservative()
    improving = welfare_improving(sc.cf)
    pstar = bernheim_rangel_pstar(sc.cf)
    a, b = sc.pair
    assert improving.holds(a, b)
    assert not pstar.holds(a, b)


def test_conservative_without_improving():
    sc = scenario_conservative_not_improving()
    improving = welfare_improving(sc.cf)
    pstar = bernheim_rangel_pstar(sc.cf)
    a, b = sc.pair
    assert pstar.holds(a, b)
    assert not improving.holds(a, b)


def test_attention_against_improving():
    sc = scenario_attention_vs_improving()
    cf = sc.cf
    # the stated removal patterns hold before anything else is concluded
    assert cf.choose(["x", "z", "t"]) == "x" and cf.choose(["x", "t"]) == "t"
    assert cf.choose(["x", "y", "z"]) == "z" and cf.choose(["x", "z"]) == "x"
    pr = masatlioglu_pr(cf)
    improving = welfare_improving(cf)
    a, b = sc.pair
    assert pr.holds(a, b)
    assert improving.holds(b, a)
    assert not pr.holds(b, a)
    assert not improving.holds(a, b)


def test_same_type_welfare_is_direct():
    cf = evaluate(worked_structure())
    improving = welfare_improving(cf)
    assert improving.holds("a1", "a2")
    assert not improving.holds("a2", "a1")


def test_pstar_on_order_is_the_order():
    ground = GroundSet(("x", "y", "z"))
    cf = choice_from_order(LinearOrder(ground, ("y", "x", "z")))
    pstar = bernheim_rangel_pstar(cf)
    assert pstar.holds("y", "x") and pstar.holds("y", "z") and pstar.holds("x", "z")
    assert not pstar.holds("x", "y")


def test_pstar_asymmetric_everywhere(rng):
    for _ in range(40):
        s = random_single_peaked_structure(rng, ground_of_size(5))
        pstar = bernheim_rangel_pstar(evaluate(s))
        for a, b in pstar.pairs():
            assert not pstar.holds(b, a)


def test_pr_empty_without_choice_reversals():
    # removing an unchosen option never changes a maximizer's choice, so
    # the attention-revealed relation has nothing to work with
    ground = GroundSet(("x", "y", "z"))
    cf = choice_from_order(LinearOrder(ground, ("y", "x", "z")))
    assert masatlioglu_pr(cf).pairs() == []


def test_pr_transitively_closed(rng):
    for _ in range(40):
        s = random_single_peaked_structure(rng, ground_of_size(5))
        pr = masatlioglu_pr(evaluate(s))
        assert pr.transitive_closure().rows == pr.rows


def test_improving_irreflexive_and_closure_flag():
    sc = scenario_improving_not_conservative()
    direct = welfare_improving(sc.cf)
    closed = welfare_improving(sc.cf, transitive_closure=True)
    for a, b in direct.pairs():
        assert a != b
    assert set(direct.pairs()) <= set(closed.pairs())


def test_improving_invariant_to_welfare_extension_tie_break(rng):
    moved = 0
    for _ in range(30):
        s = random_single_peaked_structure(rng, ground_of_size(5))
        cf = evaluate(s)
        base = welfare_improving(cf)
        structure, certificate = minimal_structure(cf)
        assert improving_from_structure(structure, certificate).rows == base.rows
        for _ in range(3):
            other = reextended(structure, rng)
            moved += other.welfare.ranking != structure.welfare.ranking
            assert evaluate(other).choices == cf.choices
            other_certificate = certify_single_peaked(other)
            assert other_certificate == certificate
            assert improving_from_structure(other, other_certificate).rows == base.rows
    assert moved


def test_welfare_requires_single_peaked_input():
    cf = tsm_choice(tsm_fixture_spr_violation())
    with pytest.raises(NotSinglePeakedRSCError):
        welfare_improving(cf)


def test_welfare_report_containments():
    rep = welfare_report(scenario_improving_not_conservative().cf)
    cmp = rep.comparisons["improving_vs_pstar"]
    assert not cmp["improving_subset_pstar"]


def test_freedom_counts_and_richness():
    sc = scenario_improving_not_conservative()
    model = freedom_model_from_choice(sc.cf)
    # satisfied sets: strictly above thresholds w and v
    assert model.satisfied_sets[("x", "w", "y")] == ("y",)
    assert model.satisfied_sets[("z", "v", "u")] == ("z",)
    assert freedom_count(model, ["x", "w"]) == 0
    assert freedom_count(model, ["y"]) == 1
    assert freedom_count(model, ["y", "z", "u"]) == 2
    assert is_richer(model, ["y", "z"], ["y"]) == "strictly_richer"
    assert is_richer(model, ["y"], ["y", "u"]) == "richer"
    assert is_richer(model, ["y"], ["z"]) == "not_richer"
    # supersets are always richer
    assert is_richer(model, ["x", "y", "z"], ["y", "z"]) in ("richer", "strictly_richer")


def test_freedom_all_thresholds_at_top_gives_indifference():
    cf = evaluate(worked_structure())
    model = freedom_model_from_choice(cf)
    assert all(not f for f in model.satisfied_sets.values())
    ranking = freedom_ranking(model)
    scores = set(ranking.scores[1:])
    assert scores == {0}


def test_two_types_give_three_indifference_classes():
    sc = scenario_attention_vs_improving()
    model = freedom_model_from_choice(sc.cf)
    # for this fixture both thresholds sit at the type tops: rebuild with
    # deeper thresholds by hand to exercise counting
    ground = sc.cf.ground
    s = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("x", "y"), ("z", "t"))),
        welfare=LinearOrder(ground, ("z", "y", "t", "x")),
        reaction_pref=LinearOrder(ground, ("z", "y", "t", "x")),
    )
    model = freedom_model(s)
    assert model.satisfied_sets[("x", "y")] == ("y",)
    assert model.satisfied_sets[("z", "t")] == ("z",)
    ranking = freedom_ranking(model)
    assert set(ranking.scores[1:]) == {0, 1, 2}


def test_freedom_ranking_satisfies_both_axioms(rng):
    for _ in range(25):
        s = random_single_peaked_structure(rng, ground_of_size(5))
        model = freedom_model(s)
        dominance, composition = check_menu_axioms(model, freedom_ranking(model))
        assert dominance.holds and composition.holds


def _one_type_model(size: int, reaction_head: tuple[str, ...] = ()):
    """One type on o0..o{size-1} with welfare in that order; the reaction
    order lists ``reaction_head`` first, then the rest in welfare order."""
    ground = ground_of_size(size)
    rest = tuple(o for o in ground.options if o not in reaction_head)
    return freedom_model(RSStructure(
        ground=ground,
        types=TypePartition(ground, (ground.options,)),
        welfare=LinearOrder(ground, ground.options),
        reaction_pref=LinearOrder(ground, reaction_head + rest),
    ))


def test_composition_is_decided_on_every_within_type_pair():
    """A 9-option type has 511^2 = 261 121 (C, D) pairs.  The doubled
    cardinality ranking satisfies composition; lifting {o5, o8} above the
    other pairs breaks it on exactly two of them, ({o0}, {o5}) and
    ({o0}, {o8}), which a check over a sample of the pairs can miss."""
    model = _one_type_model(9, ("o0", "o2", "o1"))
    ground = model.ground
    assert model.satisfied_sets == {ground.options: ("o0",)}
    lifted = ground.mask_of(("o5", "o8"))
    scores = [2 * bin(m).count("1") + (m == lifted) for m in range(1 << ground.size)]
    _, composition = check_menu_axioms(model, MenuPreference(ground, tuple(scores)), cap=10**9)
    assert composition.violations == tuple(
        [(f"o{a}", "o8", "o0", "o5") for a in range(1, 9)]
        + [(f"o{a}", "o5", "o0", "o8") for a in range(1, 9)]
    )
    assert not composition.holds
    scores[lifted] -= 1
    _, composition = check_menu_axioms(model, MenuPreference(ground, tuple(scores)))
    assert composition.holds


def test_composition_budget_rejects_before_any_menu_work(monkeypatch):
    """W * (2^n + W * V) over the budget raises the coded error before the
    signature, either gate or either scan runs, and W * 2^n over it before
    the scores are ranked."""
    small = _one_type_model(5)
    small_ranking = freedom_ranking(small)
    small_work = 31 * ((1 << 5) + 31 * 2)  # W = 31 menus, V = 2 scores
    large = _one_type_model(14)
    large_ranking = freedom_ranking(large)
    assert 16383 * ((1 << 14) + 16383 * 2) > normative.MAX_COMPOSITION_WORK

    monkeypatch.setattr(normative, "MAX_COMPOSITION_WORK", small_work)
    assert all(v.holds for v in check_menu_axioms(small, small_ranking))
    monkeypatch.undo()

    def expensive(*args, **kwargs):
        raise AssertionError("menu work started before the budget check")

    for name in ("_satisfaction_signature", "_dominance_witnesses",
                 "_composition_witnesses", "_composition_open_pairs", "_composition_tables"):
        monkeypatch.setattr(normative, name, expensive)
    with pytest.raises(CompositionBudgetError) as exc:
        check_menu_axioms(large, large_ranking)
    assert exc.value.code == "composition-too-large"
    monkeypatch.setattr(normative, "MAX_COMPOSITION_WORK", small_work - 1)
    with pytest.raises(CompositionBudgetError):
        check_menu_axioms(small, small_ranking)
    # W * 2^n alone is over the budget at one type of 15 options: the
    # request is refused before the 2^15 scores are ranked.
    monkeypatch.undo()
    larger = _one_type_model(15)
    larger_ranking = freedom_ranking(larger)
    assert 32767 << 15 > normative.MAX_COMPOSITION_WORK
    monkeypatch.setattr(normative.np, "unique", expensive)
    with pytest.raises(CompositionBudgetError):
        check_menu_axioms(larger, larger_ranking)


def test_a_twelve_option_type_is_within_the_composition_budget():
    """W = 4 095 within-type menus: every one of the 16.8 M (C, D) pairs is
    decided by the gate."""
    model = _one_type_model(12)
    dominance, composition = check_menu_axioms(model, freedom_ranking(model))
    assert dominance.holds and composition.holds


def test_cardinality_ranking_breaks_dominance():
    # two options of one type, nothing above the threshold for the other:
    # |A| ranking strictly ranks singletons that are equally rich
    ground = GroundSet(("a", "b", "c"))
    s = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("a", "b"), ("c",))),
        welfare=LinearOrder(ground, ("a", "b", "c")),
        reaction_pref=LinearOrder(ground, ("a", "b", "c")),
    )
    model = freedom_model(s)
    size = 1 << ground.size
    scores = [0] + [bin(m).count("1") for m in range(1, size)]
    dominance, _ = check_menu_axioms(model, MenuPreference(ground, tuple(scores)))
    assert not dominance.holds


def test_constant_preference_breaks_strict_dominance():
    sc = scenario_improving_not_conservative()
    model = freedom_model_from_choice(sc.cf)
    size = 1 << model.ground.size
    constant = MenuPreference(model.ground, tuple([0] * size))
    dominance, _ = check_menu_axioms(model, constant)
    assert not dominance.holds
    assert any(kind == "strictly_richer" for *_, kind in dominance.violations)


def test_monotonicity_corollary(rng):
    for _ in range(10):
        s = random_single_peaked_structure(rng, ground_of_size(5))
        model = freedom_model(s)
        ranking = freedom_ranking(model)
        full = model.ground.full_mask
        for menu in range(1, full + 1):
            assert ranking.scores[menu] == freedom_count(model, menu)
            sub = (menu - 1) & menu
            while sub:
                assert ranking.prefers(menu, sub)
                sub = (sub - 1) & menu


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(st.text(st.sampled_from('ab"\\\u00e9\u2603'), min_size=1, max_size=3),
                       min_size=2, max_size=7, unique=True),
       seed=st.integers(0, 2**32))
def test_freedom_table_csv_lists_each_menu_and_its_count(labels, seed):
    """``freedom_table_csv`` against its definition, menu by menu, on labels
    with quotes, backslashes and non-ASCII characters.  Keys are written
    as they are, unquoted."""
    ground = GroundSet(tuple(labels))
    model = freedom_model(random_single_peaked_structure(random.Random(seed), ground))
    rows = [f"{model.ground.menu_key(m)},{freedom_count(model, m)}\n"
            for m in range(1, model.ground.full_mask + 1)]
    assert freedom_table_csv(model) == "menu,n\n" + "".join(rows)


def test_menu_preference_keeps_a_read_only_signed_copy():
    ground = GroundSet(("a", "b"))
    source = np.array([0, 1, 2, 3], dtype=np.uint8)
    pref = MenuPreference(ground, source)
    source[1] = 9
    assert pref.scores.tolist() == [0, 1, 2, 3]
    assert pref.scores.dtype.kind == "i"  # a step below 0 does not wrap
    assert pref.scores[0] - 1 == -1
    with pytest.raises(ValueError):
        pref.scores[1] = 5
    with pytest.raises(ValueError):
        MenuPreference(ground, (0, 1, 2))
    assert freedom_ranking(freedom_model_from_choice(evaluate(worked_structure()))).scores.dtype == np.int8


def test_menu_preference_equality_and_hash_follow_the_score_values():
    ground = GroundSet(("a", "b"))
    ints = MenuPreference(ground, (0, 1, 1, 2))
    narrow = MenuPreference(ground, np.array([0, 1, 1, 2], dtype=np.int8))
    floats = MenuPreference(ground, (0.0, 1.0, 1.0, 2.0))
    assert ints == narrow == floats
    assert hash(ints) == hash(narrow) == hash(floats)
    assert len({ints, narrow, floats}) == 1
    assert ints != MenuPreference(ground, (0, 1, 2, 2))
    assert ints != MenuPreference(GroundSet(("a", "c")), (0, 1, 1, 2))
    assert ints != (0, 1, 1, 2)


def test_prefers_returns_a_plain_bool():
    sc = scenario_improving_not_conservative()
    ranking = freedom_ranking(freedom_model_from_choice(sc.cf))
    answers = {ranking.prefers(["y", "z"], ["y"]), ranking.prefers(["y"], ["y", "z"])}
    assert answers == {True, False}
    assert all(type(answer) is bool for answer in answers)
    floats = MenuPreference(ranking.ground, ranking.scores / 3)
    assert type(floats.prefers(["y"], ["x"])) is bool


def test_float_scores_are_ranked_by_value():
    """Float scores keep their dtype, and scores that differ only in a
    fraction rank apart: splitting one indifference class of the freedom
    ranking by a small fraction changes the verdict as the integer split
    does."""
    model = _one_type_model(4, ("o0", "o2", "o1"))
    ground = model.ground
    ranking = freedom_ranking(model)
    floats = MenuPreference(ground, ranking.scores + 0.25)
    assert floats.scores.dtype == np.float64
    assert check_menu_axioms(model, floats) == check_menu_axioms(model, ranking)
    lifted = ground.mask_of(("o1", "o2"))
    nudged = floats.scores.copy()
    nudged[lifted] += 1e-9
    doubled = ranking.scores.astype(np.int64) * 2
    doubled[lifted] += 1
    nudged_verdicts = check_menu_axioms(model, MenuPreference(ground, nudged))
    assert nudged_verdicts == check_menu_axioms(model, MenuPreference(ground, doubled))
    assert not all(v.holds for v in nudged_verdicts)
