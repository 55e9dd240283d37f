"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here.  The randomized parts use fixed seeds, so reruns
are bit-identical.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from rschoice.axioms import (
    check_exp,
    check_ir,
    check_nrs,
    check_spr,
    tsm_choice,
    tsm_fixture_nrs_violation,
    tsm_fixture_spr_violation,
    AxiomViolationError,
)
from rschoice.cli import main as cli_main
from rschoice.core import (
    GroundSet,
    enumerate_choice_functions,
    parse_choice_function,
    serialize_choice_function,
)
from rschoice.culture import (
    CultureParams,
    culture_dynamics,
    culture_gbar,
    culture_rsc_consistency,
    steady_state,
)
from rschoice.fixtures import (
    detergent_choice,
    scenario_attention_vs_improving,
    scenario_conservative_not_improving,
    scenario_improving_not_conservative,
)
from rschoice.generators import (
    ground_of_size,
    random_single_peaked_structure,
    random_structure,
)
from rschoice.media import MediaParams, media_menu_choice, media_pstar
from rschoice.normative import (
    MenuPreference,
    bernheim_rangel_pstar,
    check_menu_axioms,
    freedom_model,
    freedom_ranking,
    masatlioglu_pr,
    welfare_improving,
)
from rschoice.revealed import reveal
from rschoice.structure import (
    certify_single_peaked,
    evaluate,
    minimal_structure,
    reaction_characterization,
    synthesize_rs,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_axioms_iff_synthesis_exhaustive():
    started = time.time()
    ground = GroundSet(("a", "b", "c", "d"))
    total = passing = built = mismatches = 0
    for cf in enumerate_choice_functions(ground):
        total += 1
        rep = reveal(cf)
        classes = rep.similarity_classes
        axioms_ok = (
            check_exp(cf, cap=1).holds
            and check_nrs(cf, classes, cap=1).holds
            and check_ir(cf, classes, cap=1).holds
        )
        try:
            structure, _ = synthesize_rs(cf, validate=False, report=rep)
            synth_ok = evaluate(structure).choices == cf.choices
        except AxiomViolationError:
            synth_ok = False
        passing += axioms_ok
        built += synth_ok
        mismatches += axioms_ok != synth_ok
    elapsed = time.time() - started
    report(
        1,
        total == 20736 and mismatches == 0 and elapsed < 60.0,
        f"{total} functions, {passing} axiom-passing, {built} synthesized+regenerated, "
        f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_spr_iff_certificate_exhaustive():
    ground = GroundSet(("a", "b", "c", "d"))
    checked = mismatches = spr_holds = 0
    for cf in enumerate_choice_functions(ground):
        rep = reveal(cf)
        classes = rep.similarity_classes
        if not (
            check_exp(cf, cap=1).holds
            and check_nrs(cf, classes, cap=1).holds
            and check_ir(cf, classes, cap=1).holds
        ):
            continue
        checked += 1
        structure, _ = synthesize_rs(cf, validate=False, report=rep)
        spr = check_spr(cf, rep, cap=1).holds
        cert = certify_single_peaked(structure).verified
        spr_holds += spr
        mismatches += spr != cert
    report(
        2,
        checked == 168 and mismatches == 0,
        f"{checked} axiom-passing functions, SPR holds on {spr_holds}, "
        f"{mismatches} SPR/certificate mismatches",
    )


def test_criterion_03_necessity_sampled():
    rng = random.Random(301)
    ground = ground_of_size(6)
    core_failures = 0
    for _ in range(10_000):
        cf = evaluate(random_structure(rng, ground))
        rep = reveal(cf)
        classes = rep.similarity_classes
        if not (
            check_exp(cf, cap=1).holds
            and check_nrs(cf, classes, cap=1).holds
            and check_ir(cf, classes, cap=1).holds
        ):
            core_failures += 1
    spr_failures = 0
    for _ in range(10_000):
        cf = evaluate(random_single_peaked_structure(rng, ground))
        if not check_spr(cf, reveal(cf), cap=1).holds:
            spr_failures += 1
    report(
        3,
        core_failures == 0 and spr_failures == 0,
        f"10000 structures: {core_failures} core-axiom failures; "
        f"10000 single-peaked: {spr_failures} SPR failures",
    )


def test_criterion_04_reaction_characterization():
    rng = random.Random(401)
    mismatches = 0
    for k in range(10_000):
        ground = ground_of_size(3 + k % 4)  # sizes 3..6
        s = random_structure(rng, ground)
        cf = evaluate(s)
        revealed_rows = reveal(cf).reaction.rows
        if revealed_rows != reaction_characterization(s).rows:
            mismatches += 1
    report(4, mismatches == 0, f"10000 structures, {mismatches} characterization mismatches")


def test_criterion_05_minimal_structure_identities():
    rng = random.Random(501)
    formula_mismatches = chain_gaps = 0
    for k in range(10_000):
        ground = ground_of_size(3 + k % 4)
        s = random_single_peaked_structure(rng, ground)
        cf = evaluate(s)
        rep = reveal(cf)
        structure, certificate = minimal_structure(cf, validate=False)
        r1 = structure.welfare.ranks()
        reaction_rows = rep.reaction.rows
        reacted_to = 0
        for row in reaction_rows:
            reacted_to |= row
        for block in structure.types.blocks:
            members = [ground.index[name] for name in block]
            no_out = [m for m in members if reaction_rows[m] == 0]
            threshold = max(no_out, key=r1.__getitem__)
            lower = [m for m in members if r1[m] >= r1[threshold]]
            no_in = [m for m in lower if not (reacted_to >> m) & 1]
            peak = min(no_in, key=r1.__getitem__)
            if certificate.thresholds[block] != ground.options[threshold]:
                formula_mismatches += 1
            if certificate.peaks[block] != ground.options[peak]:
                formula_mismatches += 1
            # every option strictly below the threshold reacts to it
            for m in members:
                if r1[m] > r1[threshold] and not (reaction_rows[m] >> threshold) & 1:
                    chain_gaps += 1
    report(
        5,
        formula_mismatches == 0 and chain_gaps == 0,
        f"10000 single-peaked structures, {formula_mismatches} formula mismatches, "
        f"{chain_gaps} below-threshold options not reacting to the threshold",
    )


def test_criterion_06_shortlist_fixtures():
    ok = True
    notes = []
    cf1 = tsm_choice(tsm_fixture_nrs_violation())
    expected_choices_1 = {
        ("u", "t"): "t",
        ("x", "u", "t"): "u",
        ("y", "u", "t"): "u",
        ("z", "u", "t"): "u",
        ("x", "y"): "x",
        ("y", "z"): "y",
        ("x", "z"): "z",
    }
    for menu, want in expected_choices_1.items():
        if cf1.choose(menu) != want:
            ok = False
            notes.append(f"fixture1 c{menu} != {want}")
    rep1 = reveal(cf1)
    for target in ("x", "y", "z"):
        if not rep1.reaction.holds("t", target):
            ok = False
            notes.append(f"missing t reacts to {target}")
    if ("u",) not in rep1.similarity_classes.blocks:
        ok = False
        notes.append("u not isolated")
    nrs = check_nrs(cf1, rep1.similarity_classes)
    if nrs.holds or ("x", "y", "z") not in nrs.violations:
        ok = False
        notes.append("expected NRS violation on (x, y, z)")

    cf2 = tsm_choice(tsm_fixture_spr_violation())
    rep2 = reveal(cf2)
    expected_choices_2 = {("y", "z"): "z", ("x", "y"): "y", ("a", "z"): "z", ("a", "y"): "a"}
    for menu, want in expected_choices_2.items():
        if cf2.choose(menu) != want:
            ok = False
            notes.append(f"fixture2 c{menu} != {want}")
    for pair in (("x", "t"), ("z", "t"), ("x", "y")):
        if not rep2.reaction.holds(*pair):
            ok = False
            notes.append(f"missing reaction {pair}")
    spr = check_spr(cf2, rep2)
    if spr.holds or ("z", "y", "x", "a") not in spr.violations:
        ok = False
        notes.append("expected SPR violation (z, y, x, a)")
    report(6, ok, "; ".join(notes) if notes else "both shortlist fixtures bit-exact")


def test_criterion_07_welfare_examples():
    s1 = scenario_improving_not_conservative()
    imp1 = welfare_improving(s1.cf)
    ps1 = bernheim_rangel_pstar(s1.cf)
    first = imp1.holds(*s1.pair) and not ps1.holds(*s1.pair)

    s2 = scenario_conservative_not_improving()
    imp2 = welfare_improving(s2.cf)
    ps2 = bernheim_rangel_pstar(s2.cf)
    second = ps2.holds(*s2.pair) and not imp2.holds(*s2.pair)

    s3 = scenario_attention_vs_improving()
    imp3 = welfare_improving(s3.cf)
    pr3 = masatlioglu_pr(s3.cf)
    x, y = s3.pair
    third = pr3.holds(x, y) and imp3.holds(y, x) and not pr3.holds(y, x) and not imp3.holds(x, y)

    report(
        7,
        first and second and third,
        f"improving-not-conservative={first}, conservative-not-improving={second}, "
        f"attention-vs-improving={third}",
    )


def test_criterion_08_freedom_ranking_characterization():
    rng = random.Random(801)
    models = perturbations = uncaught = forward_failures = 0
    while models < 100:
        ground = ground_of_size(2 + rng.randrange(4))  # sizes 2..5
        model = freedom_model(random_single_peaked_structure(rng, ground))
        ranking = freedom_ranking(model)
        dominance, composition = check_menu_axioms(model, ranking)
        if not (dominance.holds and composition.holds):
            forward_failures += 1
        models += 1
        scores = list(ranking.scores)
        top = max(scores[1:])
        if top == 0:
            continue  # single indifference class, no boundary to cross
        for mask in range(1, len(scores)):
            for delta in (-1, 1):
                moved = scores[mask] + delta
                if moved < 0 or moved > top:
                    continue
                perturbed = list(scores)
                perturbed[mask] = moved
                d2, c2 = check_menu_axioms(
                    model, MenuPreference(model.ground, tuple(perturbed)), cap=1
                )
                perturbations += 1
                if d2.holds and c2.holds:
                    uncaught += 1
    report(
        8,
        forward_failures == 0 and uncaught == 0 and perturbations > 0,
        f"100 models ({forward_failures} forward failures), "
        f"{perturbations} boundary perturbations, {uncaught} uncaught",
    )


def test_criterion_09_media_grid():
    grid = 50
    lam_values = [0.5 + 0.25 * (k + 0.5) / grid for k in range(grid)]
    p_values = [0.5 * (k + 0.5) / grid for k in range(grid)]
    p_step = 0.5 / grid
    flip_errors = action_errors = reactance_errors = 0
    for lam in lam_values:
        pstar = media_pstar(lam)
        prev_extreme = False
        for p in p_values:
            out = media_menu_choice(MediaParams(p=p, lam=lam), "N")
            extreme = out.chosen_source == "sigmaRR"
            if extreme != (p >= pstar) and abs(p - pstar) > p_step:
                flip_errors += 1
            if prev_extreme and not extreme:
                flip_errors += 1  # the flip must be monotone in p
            prev_extreme = extreme
            if p >= pstar:
                if out.chosen_source != "sigmaRR" and abs(p - pstar) > p_step:
                    flip_errors += 1
                rr = media_menu_choice(MediaParams(p=p, lam=lam), "N")
                if rr.chosen_source == "sigmaRR":
                    if rr.action_by_signal["sR"] != "r":
                        action_errors += 1
                    if rr.posterior_by_signal["sR"] < 1.0 / 3.0 - 1e-12:
                        action_errors += 1
            if media_menu_choice(MediaParams(p=p, lam=lam), "N", no_reactance=True).chosen_source == "sigmaRR":
                reactance_errors += 1
    report(
        9,
        flip_errors == 0 and action_errors == 0 and reactance_errors == 0,
        f"{grid}x{grid} grid: {flip_errors} flip errors, {action_errors} action errors, "
        f"{reactance_errors} no-reactance errors",
    )


def test_criterion_10_steady_states():
    started = time.time()
    rng = random.Random(1001)
    bad_convergence = 0
    tested = 0
    while tested < 20:
        params = CultureParams(
            beta=1.5 + rng.random() * 1.5,
            g_hat=1.5 + rng.random(),
            v_hat=1.5 + rng.random() * 1.5,
            lambda_r=1.2 + rng.random() * 1.3,
            g=1.0 + rng.random() * 3.0,
            q0=0.1 + rng.random() * 0.5,
            horizon=300.0,
        )
        q_star = steady_state(params)
        # keep only parameter sets where both sides are interior at the rest
        # point, which is what the closed form presumes
        from rschoice.culture import transmission_value

        v = transmission_value(params.g, params.g_hat, params.v_hat, params.lambda_r)
        interior_min = ((1 - q_star) / params.beta * v / params.g) ** (1 / (params.beta - 1))
        interior_maj = (q_star / params.beta * params.v_hat) ** (1 / (params.beta - 1))
        if interior_min >= (1 / params.g) ** (1 / params.beta) or interior_maj >= 1.0:
            continue
        tested += 1
        out = culture_dynamics(params, record_every=10_000)
        if abs(out.q_end - q_star) > 1e-6:
            bad_convergence += 1
    ordering_errors = 0
    for lam_low, lam_high in ((1.2, 1.6), (1.5, 2.5), (2.0, 3.0)):
        for g in (2.5, 3.0, 4.0):
            low = CultureParams(beta=2.0, g_hat=2.0, v_hat=2.0, lambda_r=lam_low, g=g, q0=0.3)
            high = CultureParams(beta=2.0, g_hat=2.0, v_hat=2.0, lambda_r=lam_high, g=g, q0=0.3)
            if not steady_state(high) > steady_state(low):
                ordering_errors += 1
    baseline = steady_state(CultureParams(beta=2.0, g_hat=2.0, v_hat=2.0, lambda_r=2.0, g=1.0, q0=0.3))
    exact_half = baseline == 0.5
    elapsed = time.time() - started
    report(
        10,
        bad_convergence == 0 and ordering_errors == 0 and exact_half and elapsed < 10.0,
        f"20 parameter sets, {bad_convergence} beyond 1e-6; {ordering_errors} reactance-"
        f"ordering errors; q*(1)==0.5 exactly: {exact_half}; {elapsed:.1f}s (< 10s)",
    )


def test_criterion_11_discretized_consistency():
    params = CultureParams(beta=2.0, g_hat=2.0, v_hat=2.0, lambda_r=1.5, g=3.0, q0=0.3)
    g_bar = culture_gbar(params, params.q0)
    g_values = tuple(float(g) for g in np.linspace(1.0, 2.0 * g_bar, 20))
    coarse = culture_rsc_consistency(params, 200, g_values)
    fine = culture_rsc_consistency(params, 400, g_values)
    within_cell = coarse.max_deviation_direct <= coarse.cell
    ratio = fine.max_deviation_analytic / coarse.max_deviation_analytic
    halves = 0.375 <= ratio <= 0.625
    report(
        11,
        within_cell and halves,
        f"grid 200: two-stage vs direct {coarse.max_deviation_direct / coarse.cell:.2f} cells "
        f"(<= 1); refinement ratio {ratio:.3f} in [0.375, 0.625]",
    )


def test_criterion_12_determinism(tmp_path, capsys, forget_memos):
    stable = True
    notes = []
    samples = [
        detergent_choice(),
        tsm_choice(tsm_fixture_nrs_violation()),
        evaluate(random_single_peaked_structure(random.Random(12), ground_of_size(5))),
    ]
    for cf in samples:
        for fmt in ("json", "csv"):
            text = serialize_choice_function(cf, format=fmt)
            again = parse_choice_function(text, fmt)
            if serialize_choice_function(again, format=fmt) != text:
                stable = False
                notes.append(f"round-trip drift ({fmt})")
            if again.choices != cf.choices:
                stable = False
                notes.append(f"value drift ({fmt})")

    cf_path = tmp_path / "cf.json"
    cf_path.write_text(serialize_choice_function(samples[2]))
    outputs = []
    for run in range(2):
        forget_memos()  # each run parses and reveals the file itself
        out_path = tmp_path / f"synth{run}.json"
        code = cli_main(["synthesize", str(cf_path), "--out", str(out_path)])
        assert code == 0
        outputs.append(out_path.read_bytes())
    if outputs[0] != outputs[1]:
        stable = False
        notes.append("synthesize reruns differ")

    sweeps = []
    for run in range(2):
        out_path = tmp_path / f"sweep{run}.csv"
        code = cli_main(
            ["--seed", "7", "sweep", "media", "--samples", "50", "--out", str(out_path)]
        )
        assert code == 0
        sweeps.append(out_path.read_bytes())
    if sweeps[0] != sweeps[1]:
        stable = False
        notes.append("seeded sweep reruns differ")
    capsys.readouterr()
    report(12, stable, "; ".join(notes) if notes else "round-trips and seeded reruns byte-stable")
