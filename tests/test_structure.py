from __future__ import annotations

import itertools
import random

import pytest

from rschoice import normative, structure
from rschoice.axioms import (
    AxiomViolationError,
    check_all,
    check_exp,
    check_ir,
    check_nrs,
    check_spr,
    tsm_choice,
    tsm_fixture_spr_violation,
)
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
    _ConstructionFailure,
    _construct,
    certify_single_peaked,
    consideration_set,
    enumerate_structures,
    evaluate,
    minimal_structure,
    reaction_characterization,
    synthesize_rs,
)

from conftest import cf_from, mixed_choice_function, reextended


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


def _searched_certificate(s: RSStructure) -> structure.SinglePeakedCertificate:
    """The certificate by trying every split of each type, deepest first:
    the orders must agree above it and no welfare-ordered triple below it
    may have a reaction-worst middle."""
    r2 = s.reaction_pref.ranks()
    options = s.ground.options
    thresholds, peaks, violations = {}, {}, []
    for block, chain in zip(s.types.blocks, structure._kernel_inputs(s)[0]):
        for split in range(len(chain) - 1, -1, -1):
            agrees = all(r2[chain[k]] < r2[chain[k + 1]] for k in range(split))
            if agrees and structure._lower_violation(chain, r2, split) is None:
                thresholds[block] = options[chain[split]]
                peaks[block] = options[min(chain[split:], key=r2.__getitem__)]
                break
        else:
            triple = structure._lower_violation(chain, r2, 0)
            violations.append((block, tuple(options[i] for i in triple)))
    return structure.SinglePeakedCertificate(thresholds, peaks, not violations,
                                             tuple(violations))


def test_certify_takes_the_deepest_threshold_the_split_search_finds():
    rng = random.Random(11)
    structures = [s for size in (3, 4) for s in enumerate_structures(ground_of_size(size))]
    for k in range(3000):
        make = random_structure if k % 2 else random_single_peaked_structure
        structures.append(make(rng, ground_of_size(2 + k % 11)))
    verified = 0
    for s in structures:
        certificate = certify_single_peaked(s)
        assert certificate == _searched_certificate(s)
        verified += certificate.verified
    # 11 518 verify; the other 302 compare their violation triples.
    assert len(structures) == 11_820 and len(structures) - verified > 300


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


def test_welfare_extension_tie_break_changes_order_not_behavior(rng):
    cf = evaluate(worked_structure())
    default, _ = synthesize_rs(cf)
    assert evaluate(default).choices == cf.choices
    rankings = set()
    for _ in range(20):
        other = reextended(default, rng)
        assert evaluate(other).choices == cf.choices
        rankings.add(other.welfare.ranking)
    assert rankings - {default.welfare.ranking}


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


# ---------------------------------------------------------------------------
# Validation by regeneration against the validate-first reference
# ---------------------------------------------------------------------------


def reference_synthesize_rs(cf, validate=True, report=None):
    """``synthesize_rs`` as it ran before regeneration became its only
    validation: with ``validate`` the Exp/NRS/IR checks run first."""
    if report is None:
        report = reveal(cf)
    classes = report.similarity_classes
    if validate:
        verdicts = [check_exp(cf), check_nrs(cf, classes), check_ir(cf, classes)]
        failing = [v for v in verdicts if not v.holds]
        if failing:
            raise AxiomViolationError(
                "choice function fails " + ", ".join(v.axiom for v in failing),
                verdicts=verdicts,
            )
    try:
        built, trace = _construct(cf, report)
    except _ConstructionFailure as exc:
        if validate:
            raise AssertionError(f"construction failed after clean validation: {exc}") from exc
        raise AxiomViolationError(f"construction failed: {exc}") from exc
    if evaluate(built) != cf:
        if validate:
            raise AssertionError("synthesized structure does not regenerate its choices")
        raise AxiomViolationError("synthesized structure does not regenerate its choices")
    return built, trace


def reference_minimal_structure(cf, validate=True):
    """``minimal_structure`` as it ran before: with ``validate`` SPR is
    checked first, then the validate-first synthesis."""
    report = reveal(cf)
    if validate:
        verdict = check_spr(cf, report)
        if not verdict.holds:
            raise AxiomViolationError("choice function fails SPR", verdicts=[verdict])
    built, trace = reference_synthesize_rs(cf, validate=validate, report=report)
    certificate = certify_single_peaked(built)
    if not certificate.verified:
        if validate:
            raise AssertionError("certification failed on an SPR-clean function")
        raise AxiomViolationError("structure is not single-peaked")
    assert certificate.thresholds == trace.thresholds
    assert certificate.peaks == trace.peak_candidates
    return built, certificate


def _outcome(call, *args, **kwargs):
    """The result's JSON-ready form, or the error's class, message and the
    verdicts it carries (directly or through its cause)."""
    try:
        result = call(*args, **kwargs)
    except Exception as exc:
        carrier = exc if isinstance(exc, AxiomViolationError) else exc.__cause__
        verdicts = [v.to_dict() for v in getattr(carrier, "verdicts", [])]
        return type(exc), str(exc), verdicts
    if isinstance(result, tuple):
        return [r.to_dict() if hasattr(r, "to_dict") else serialize_structure_json(r)
                for r in result]
    if isinstance(result, normative.FreedomModel):
        return serialize_structure_json(result.structure), result.satisfied_sets
    return result.to_json()


def _regeneration_inputs(per_kind):
    """The SPR fixture, then at n = 2-7: structure-generated functions (any
    structure, single-peaked) and ``mixed_choice_function`` of every kind
    (order or single-peaked with up to three picks redrawn, uniform)."""
    yield tsm_choice(tsm_fixture_spr_violation())  # synthesizes, fails certification
    rng = random.Random(14)
    for n in range(2, 8):
        ground = ground_of_size(n)
        for _ in range(per_kind):
            yield evaluate(random_structure(rng, ground))
            yield evaluate(random_single_peaked_structure(rng, ground))
            for kind in range(3):
                yield mixed_choice_function(rng, ground, kind)


def test_validation_by_regeneration_matches_the_validate_first_reference(monkeypatch):
    seen = set()
    for cf in _regeneration_inputs(per_kind=10):
        for validate in (True, False):
            new = _outcome(synthesize_rs, cf, validate=validate)
            assert new == _outcome(reference_synthesize_rs, cf, validate=validate)
            new_min = _outcome(minimal_structure, cf, validate=validate)
            assert new_min == _outcome(reference_minimal_structure, cf, validate=validate)
            seen.add((validate, new[0] if isinstance(new[0], type) else "ok"))
            seen.add((validate, new_min[1] if isinstance(new_min[0], type) else "ok"))
        wrappers = (normative.welfare_report, normative.freedom_model_from_choice)
        new = [_outcome(call, cf) for call in wrappers]
        with monkeypatch.context() as patch:
            patch.setattr(normative, "minimal_structure", reference_minimal_structure)
            assert new == [_outcome(call, cf) for call in wrappers]
    # Success and failure both occurred, including the SPR-first message, a
    # construction that does not regenerate its input and a failed certificate.
    assert {(True, "ok"), (False, "ok"), (True, AxiomViolationError),
            (False, AxiomViolationError), (True, "choice function fails SPR"),
            (False, "synthesized structure does not regenerate its choices"),
            (False, "structure is not single-peaked")} <= seen


def test_synthesis_on_clean_input_runs_no_axiom_checker(monkeypatch, rng):
    def refuse(*args, **kwargs):
        raise AssertionError("an axiom checker ran on clean input")

    for name in ("check_exp", "check_nrs", "check_ir", "check_spr"):
        monkeypatch.setattr(structure, name, refuse)
    for n in range(2, 9):
        cf = evaluate(random_single_peaked_structure(rng, ground_of_size(n)))
        for validate in (True, False):
            built, _ = synthesize_rs(cf, validate=validate)
            assert evaluate(built) == cf
            built, certificate = minimal_structure(cf, validate=validate)
            assert certificate.verified and evaluate(built) == cf
