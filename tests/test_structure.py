from __future__ import annotations

import itertools

import pytest

from rschoice.axioms import AxiomViolationError, check_all, tsm_choice, tsm_fixture_spr_violation
from rschoice.core import (
    GroundSet,
    GroundSetTooLargeError,
    LinearOrder,
    TypePartition,
    choice_from_order,
    enumerate_choice_functions,
    parse_structure_json,
    serialize_structure_json,
)
from rschoice.fixtures import detergent_choice, worked_structure
from rschoice.generators import ground_of_size, random_single_peaked_structure, random_structure
from rschoice.revealed import reveal
from rschoice.structure import (
    RSStructure,
    certify_single_peaked,
    consideration_set,
    enumerate_structures,
    evaluate,
    minimal_structure,
    reaction_characterization,
    synthesize_rs,
)

from conftest import cf_from


def test_consideration_set_worked_example():
    s = worked_structure()
    ground = s.ground
    menu = ground.mask_of(["a1", "a2", "b1"])
    assert ground.members(consideration_set(s, menu)) == ("a1", "b1")
    assert ground.members(consideration_set(s, ground.mask_of(["a1", "a2"]))) == ("a1",)


def test_consideration_set_one_per_intersected_type(rng):
    for _ in range(30):
        s = random_structure(rng, ground_of_size(6))
        block_masks = s.types.block_masks()
        for menu in (0b101011, 0b000111, 0b110000):
            picked = consideration_set(s, menu)
            expected = sum(1 for t in block_masks if t & menu)
            assert bin(picked).count("1") == expected


def test_evaluate_and_consideration_set_match_the_definition(rng):
    multi_type = 0
    for _ in range(60):
        s = random_structure(rng, ground_of_size(rng.randint(2, 7)))
        ground = s.ground
        welfare_rank = {name: k for k, name in enumerate(s.welfare.ranking)}
        reaction_rank = {name: k for k, name in enumerate(s.reaction_pref.ranking)}
        multi_type += len(s.types.blocks) > 1
        choices = evaluate(s).choices
        for menu in range(1, ground.full_mask + 1):
            offered = set(ground.members(menu))
            kept = [
                min(offered & set(block), key=welfare_rank.__getitem__)
                for block in s.types.blocks
                if offered & set(block)
            ]
            assert consideration_set(s, menu) == ground.mask_of(kept)
            assert ground.options[choices[menu]] == min(kept, key=reaction_rank.__getitem__)
    assert multi_type > 30


def test_evaluate_worked_example():
    s = worked_structure()
    cf = evaluate(s)
    assert cf.choose(["a1", "a2", "b1"]) == "b1"
    assert cf.choose(["a2", "b1"]) == "a2"
    rep = reveal(cf)
    assert rep.reaction.holds("a2", "a1")


def test_evaluate_single_order_degenerates_to_maximization():
    ground = GroundSet(("x", "y", "z"))
    order = LinearOrder(ground, ("y", "z", "x"))
    s = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("x",), ("y",), ("z",))),
        welfare=order,
        reaction_pref=order,
    )
    assert evaluate(s).choices == choice_from_order(order).choices


def test_detergent_synthesis_is_the_expected_structure():
    cf = detergent_choice()
    s, trace = synthesize_rs(cf)
    assert s.types.blocks == (("x", "y"), ("z",))
    assert s.welfare.prefers("y", "x")
    r2 = s.reaction_pref.ranking
    assert r2.index("x") < r2.index("z") < r2.index("y")
    assert evaluate(s).choices == cf.choices
    assert trace.thresholds[("x", "y")] == "y"
    assert trace.peak_candidates[("x", "y")] == "x"


def test_synthesis_on_order_gives_singleton_types():
    ground = GroundSet(("x", "y", "z"))
    cf = choice_from_order(LinearOrder(ground, ("z", "x", "y")))
    s, _ = synthesize_rs(cf)
    assert s.types.blocks == (("x",), ("y",), ("z",))
    assert s.reaction_pref.ranking == ("z", "x", "y")
    assert evaluate(s).choices == cf.choices


def test_exhaustive_three_options_axioms_iff_synthesizable():
    ground = GroundSet(("x", "y", "z"))
    passing = synthesized = 0
    for cf in enumerate_choice_functions(ground):
        rep = reveal(cf)
        ok = all(v.holds for v in check_all(cf, rep, cap=1)[:3])
        try:
            s, _ = synthesize_rs(cf, validate=False, report=rep)
            built = evaluate(s).choices == cf.choices
        except AxiomViolationError:
            built = False
        assert ok == built
        passing += ok
        synthesized += built
    assert passing == synthesized == 12


def test_synthesize_validates_and_embeds_verdicts():
    cf = cf_from(("x", "y", "z"), {"x,y": "x", "x,z": "x", "y,z": "y", "x,y,z": "y"})
    with pytest.raises(AxiomViolationError) as err:
        synthesize_rs(cf)
    assert any(not v.holds and v.axiom == "Exp" for v in err.value.verdicts)


def test_round_trip_on_random_structures(rng):
    for size in (5, 6):
        for _ in range(150):
            s = random_structure(rng, ground_of_size(size))
            cf = evaluate(s)
            rebuilt, _ = synthesize_rs(cf, validate=False)
            assert evaluate(rebuilt).choices == cf.choices


def test_reaction_characterization_matches_revealed(rng):
    for _ in range(150):
        s = random_structure(rng, ground_of_size(6))
        cf = evaluate(s)
        rep = reveal(cf)
        assert rep.reaction.rows == reaction_characterization(s).rows


def test_types_contain_similarity_classes_in_any_rationalization():
    # exhaustive over all structures on three options: every similarity
    # class of the generated choices is inside one structural type
    ground = GroundSet(("x", "y", "z"))
    for s in enumerate_structures(ground):
        rep = reveal(evaluate(s))
        block_of = s.types.block_of()
        for cls in rep.similarity_classes.blocks:
            owners = {block_of[ground.index[name]] for name in cls}
            assert len(owners) == 1


def test_synthesized_welfare_matches_revealed_within_types(rng):
    for _ in range(100):
        s = random_structure(rng, ground_of_size(6))
        cf = evaluate(s)
        rep = reveal(cf)
        built, _ = synthesize_rs(cf, validate=False, report=rep)
        for block in built.types.blocks:
            for a, b in itertools.combinations(block, 2):
                assert built.welfare.prefers(a, b) == rep.strict_pref.holds(a, b)


def test_certify_trivial_cases():
    s = worked_structure()
    cert = certify_single_peaked(s)
    assert cert.verified
    assert cert.thresholds[("b1",)] == "b1"
    ground = GroundSet(("x", "y", "z"))
    order = LinearOrder(ground, ("x", "y", "z"))
    same = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("x", "y", "z"),)),
        welfare=order,
        reaction_pref=order,
    )
    cert = certify_single_peaked(same)
    assert cert.verified
    # with both orders equal the deepest threshold is the welfare minimum
    assert cert.thresholds[("x", "y", "z")] == "z"


def test_certify_rejects_double_dip():
    cf = tsm_choice(tsm_fixture_spr_violation())
    s, _ = synthesize_rs(cf)
    cert = certify_single_peaked(s)
    assert not cert.verified
    assert cert.violations
    block, (hi, mid, lo) = cert.violations[0]
    r1 = s.welfare.ranks()
    r2 = s.reaction_pref.ranks()
    i = s.ground.index
    assert r1[i[hi]] < r1[i[mid]] < r1[i[lo]]
    assert r2[i[mid]] > r2[i[hi]] and r2[i[mid]] > r2[i[lo]]


def test_minimal_structure_worked_example():
    cf = evaluate(worked_structure())
    s, cert = minimal_structure(cf)
    assert cert.verified
    assert cert.thresholds[("a1", "a2")] == "a1"
    assert cert.peaks[("a1", "a2")] == "a2"


def test_minimal_structure_identities_from_reaction(rng):
    for _ in range(200):
        s = random_single_peaked_structure(rng, ground_of_size(6))
        cf = evaluate(s)
        rep = reveal(cf)
        built, cert = minimal_structure(cf, validate=False)
        r1 = built.welfare.ranks()
        reacted_to = set()
        for x, y in rep.reaction.pairs():
            reacted_to.add(y)
        for block in built.types.blocks:
            members = list(block)
            no_out = [m for m in members if not any(a == m for a, _ in rep.reaction.pairs())]
            threshold = max(no_out, key=lambda m: r1[built.ground.index[m]])
            assert cert.thresholds[block] == threshold
            lower = [
                m for m in members
                if r1[built.ground.index[m]] >= r1[built.ground.index[threshold]]
            ]
            no_in = [m for m in lower if m not in reacted_to]
            peak = min(no_in, key=lambda m: r1[built.ground.index[m]])
            assert cert.peaks[block] == peak


def test_minimal_structure_requires_spr():
    cf = tsm_choice(tsm_fixture_spr_violation())
    with pytest.raises(AxiomViolationError):
        minimal_structure(cf)


def test_welfare_extension_tie_break_changes_order_not_behavior():
    cf = evaluate(worked_structure())
    default, _ = synthesize_rs(cf)
    flipped, _ = synthesize_rs(cf, welfare_tie_break=("b1", "a2", "a1"))
    assert evaluate(default).choices == cf.choices
    assert evaluate(flipped).choices == cf.choices
    assert default.welfare.ranking != flipped.welfare.ranking


def test_trace_replays_to_the_structure(rng):
    for _ in range(50):
        s = random_structure(rng, ground_of_size(5))
        cf = evaluate(s)
        built, trace = synthesize_rs(cf, validate=False)
        # the extension log is exactly the welfare ranking
        assert tuple(chosen for chosen, _ in trace.extension_log) == built.welfare.ranking
        # per-type dominance pairs recompute from the revealed relation
        rep = reveal(cf)
        strict = rep.strict_pref
        for block, pairs in trace.tie_relation.items():
            outside = [o for o in built.ground.options if o not in block]
            for x, y in itertools.permutations(block, 2):
                dominated = all(
                    (not strict.holds(y, z)) or strict.holds(x, z) for z in outside
                )
                assert ((x, y) in pairs) == dominated


def test_structure_json_round_trip():
    s = worked_structure()
    text = serialize_structure_json(s)
    again = parse_structure_json(text)
    assert again.types.blocks == s.types.blocks
    assert again.welfare.ranking == s.welfare.ranking
    assert again.reaction_pref.ranking == s.reaction_pref.ranking
    assert serialize_structure_json(again) == text


def test_enumerate_structures_guard():
    with pytest.raises(GroundSetTooLargeError):
        next(enumerate_structures(ground_of_size(5)))
