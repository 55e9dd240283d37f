"""The exact gates in front of the Expansion, dominance and composition
scans, unit by unit, against ungated reference loops kept here.

Each gate must flag exactly the units (chosen-option families, menus,
(C, D) pairs) that have a witness, so the gated checkers list the same
witnesses as the references.  The freedom layer's doubling passes (the
satisfaction signature and the freedom scores) and the blocked
composition tables are also held to the plain loops they replaced.
"""

from __future__ import annotations

import numpy as np

from rschoice.axioms import _union_closed_families, check_exp
from rschoice.core import (
    ChoiceFunction,
    GroundSet,
    choice_from_order,
    enumerate_choice_functions,
)
from rschoice.generators import ground_of_size, random_order, random_single_peaked_structure
import rschoice.normative as normative
from rschoice.normative import (
    MenuPreference,
    _composition_open_pairs,
    _composition_tables,
    _dominance_open_menus,
    _satisfaction_signature,
    _submasks,
    check_menu_axioms,
    freedom_count,
    freedom_model,
    freedom_ranking,
)


def exp_reference(cf: ChoiceFunction) -> list[tuple]:
    """Ungated Expansion scan: every menu pair of every chosen-option family."""
    ground, choices = cf.ground, cf.choices
    out = []
    for x in range(ground.size):
        menus = [m for m in range(1, ground.full_mask + 1) if choices[m] == x]
        for ai, a in enumerate(menus):
            for b in menus[ai + 1:]:
                got = choices[a | b]
                if got != x:
                    out.append((ground.menu_key(a), ground.menu_key(b),
                                ground.options[x], ground.options[got]))
    return out


def dominance_reference(ground: GroundSet, sig: np.ndarray, scores: np.ndarray) -> list[tuple]:
    """Ungated dominance scan: every menu A against every menu B, then singletons."""
    out = []
    for a in range(1, 1 << ground.size):
        for b in range(1, 1 << ground.size):
            if sig[b] & ~sig[a]:
                continue
            strict = sig[b] != sig[a]
            if scores[a] < scores[b] or (strict and scores[a] <= scores[b]):
                kind = "strictly_richer" if strict and scores[a] <= scores[b] else "richer"
                out.append((ground.menu_key(a), ground.menu_key(b), kind))
    for x in range(ground.size):
        for y in range(ground.size):
            a, b = 1 << x, 1 << y
            if x != y and scores[a] > scores[b] and not (sig[b] & ~sig[a] == 0 and sig[a] != sig[b]):
                out.append((ground.options[x], ground.options[y], "singleton"))
    return out


def composition_reference(model, sig: np.ndarray, scores: np.ndarray) -> list[tuple]:
    """Ungated composition scan: every within-type pair (C, D), all menu
    pairs (A, B) at once; no sampling (n <= 6 here)."""
    ground = model.ground
    masks = np.arange(1 << ground.size, dtype=np.int64)
    within = sorted(s for t in model.structure.types.block_masks() for s in _submasks(t))
    out = []
    for c in within:
        for d in within:
            if scores[c] < scores[d]:
                continue
            a_idx = np.flatnonzero(((masks & c) == 0) & ((sig[c] & ~sig) != 0) & (masks != 0))
            b_idx = np.flatnonzero(((masks & d) == 0) & (masks != 0))
            viol = (scores[a_idx][:, None] >= scores[b_idx][None, :]) & (
                scores[a_idx | c][:, None] < scores[b_idx | d][None, :]
            )
            for ai, bi in np.argwhere(viol):
                out.append((ground.menu_key(int(a_idx[ai])), ground.menu_key(int(b_idx[bi])),
                            ground.menu_key(c), ground.menu_key(d)))
    return out


def signature_reference(model) -> np.ndarray:
    """One shift-and-or pass over all 2^n menus per type, in int64."""
    size = 1 << model.ground.size
    sig = np.zeros(size, dtype=np.int64)
    masks = np.arange(size, dtype=np.int64)
    for t, f in enumerate(model.satisfied_masks()):
        sig |= ((masks & f) != 0).astype(np.int64) << t
    return sig


def ranking_reference(model) -> np.ndarray:
    """Freedom scores as the set bits of the signature: one shift-and-add
    pass per type."""
    sig = signature_reference(model)
    scores = np.zeros_like(sig)
    for t in range(len(model.structure.types.blocks)):
        scores += (sig >> t) & 1
    return scores


def composition_tables_reference(within: list[int], sig: np.ndarray,
                                 rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lo and best tables of ``_composition_tables``, one row at a time
    with unbuffered ``ufunc.at`` over the menus disjoint from the row's M."""
    masks = np.arange(len(rank), dtype=np.int64)
    n_ranks = int(rank.max()) + 1
    lo = np.full((len(within), n_ranks), n_ranks, dtype=np.int64)
    best = np.full((len(within), n_ranks), -1, dtype=np.int64)
    for i, m in enumerate(within):
        disjoint = (masks & m) == 0
        disjoint[0] = False
        a_idx = np.flatnonzero(disjoint & ((sig[m] & ~sig) != 0))
        np.minimum.at(lo[i], rank[a_idx], rank[a_idx | m])
        b_idx = np.flatnonzero(disjoint)
        np.maximum.at(best[i], rank[b_idx], rank[b_idx | m])
    np.maximum.accumulate(best, axis=1, out=best)
    return lo, best


def composition_open_pairs_reference(within: list[int], sig: np.ndarray,
                                     rank: np.ndarray) -> list[tuple[int, int]]:
    """Open (C, D) pairs from the reference tables, one row of C at a time."""
    lo, best = composition_tables_reference(within, sig, rank)
    within_rank = rank[within]
    out = []
    for i, c in enumerate(within):
        row = (within_rank <= within_rank[i]) & (best > lo[i]).any(axis=1)
        out += [(c, within[j]) for j in np.flatnonzero(row)]
    return out


def test_exp_gate_flags_exactly_the_families_with_witnesses_on_census_4():
    ground = GroundSet(("a", "b", "c", "d"))
    flagged_total = count = 0
    for cf in enumerate_choice_functions(ground):
        table = np.array(cf.choices, dtype=np.int8)
        xs = list(range(ground.size))
        families = [np.flatnonzero(table == x).astype(np.int32) for x in xs]
        flagged = {x for x, closed in zip(xs, _union_closed_families(table, xs, families))
                   if not closed}
        witnessed = {ground.index[w[2]] for w in exp_reference(cf)}
        assert flagged == witnessed, cf.choices
        flagged_total += len(flagged)
        count += 1
    assert count == 20_736
    assert 0 < flagged_total < 4 * count


def test_gated_exp_lists_the_reference_witnesses(rng):
    """At n = 8 families of more than 64 menus go through the gate; a few
    flipped choices open some of them and leave others closed."""
    gated = 0
    for _ in range(12):
        ground = ground_of_size(8)
        table = list(choice_from_order(random_order(rng, ground)).choices)
        for _ in range(rng.randrange(4)):
            mask = rng.randrange(3, 1 << ground.size)
            table[mask] = rng.choice([i for i in range(ground.size) if mask >> i & 1])
        cf = ChoiceFunction(ground, tuple(table))
        reference = exp_reference(cf)
        verdict = check_exp(cf, cap=10**9)
        assert verdict.violations == tuple(reference)
        assert verdict.holds == (not reference)
        gated += sum(1 for x in range(ground.size)
                     if table.count(x) * (table.count(x) - 1) // 2 > 8 << 8)
    assert gated > 0


def test_exp_holds_on_a_clean_order_at_14_options(rng):
    ground = ground_of_size(14)
    verdict = check_exp(choice_from_order(random_order(rng, ground)))
    assert verdict.holds and verdict.violations == () and not verdict.truncated


def _menu_models(rng, count: int, largest: int = 6):
    """Random single-peaked freedom models on 2 to ``largest`` options; even
    draws are scored by the freedom ranking, odd ones by random menu scores."""
    for k in range(count):
        size = 2 + k % (largest - 1)
        model = freedom_model(random_single_peaked_structure(rng, ground_of_size(size)))
        size = 1 << model.ground.size
        if k % 2 == 0:
            yield model, freedom_ranking(model)
        else:
            top = rng.choice((2, 3, size))
            yield model, MenuPreference(model.ground, tuple(rng.randrange(top) for _ in range(size)))


def test_menu_axiom_gates_flag_exactly_the_units_with_witnesses(rng):
    violated = {"R-Dominance": 0, "R-Composition": 0}
    for model, pref in _menu_models(rng, 300):
        ground = model.ground
        sig = _satisfaction_signature(model)
        scores = np.asarray(pref.scores, dtype=np.int64)
        rank = np.unique(scores, return_inverse=True)[1]
        dominance, composition = check_menu_axioms(model, pref, cap=10**9)

        dom_ref = dominance_reference(ground, sig, scores)
        assert dominance.violations == tuple(dom_ref)
        flagged = {int(a) for a in _dominance_open_menus(sig, rank)}
        assert flagged == {ground.parse_menu_key(w[0]) for w in dom_ref if w[2] != "singleton"}

        comp_ref = composition_reference(model, sig, scores)
        assert composition.violations == tuple(comp_ref)
        flagged = set(_composition_open_pairs(model.structure.types.block_masks(), sig, rank))
        assert flagged == {(ground.parse_menu_key(w[2]), ground.parse_menu_key(w[3]))
                           for w in comp_ref}

        violated["R-Dominance"] += not dominance.holds
        violated["R-Composition"] += not composition.holds
    assert min(violated.values()) > 20, violated


def test_menu_axioms_read_scores_as_given(rng):
    """Verdicts depend on the order of the scores only: an increasing map
    to non-integer scores changes nothing."""
    for model, pref in _menu_models(rng, 200):
        scaled = MenuPreference(model.ground, tuple(s * 0.1 + 0.5 for s in pref.scores))
        assert check_menu_axioms(model, scaled) == check_menu_axioms(model, pref)


def test_freedom_passes_match_the_reference_loops(rng):
    """Signature, freedom scores, the composition tables and the open-pair
    stream, in order, against the loops they replaced, on 2 to 7 options."""
    compared = 0
    for model, pref in _menu_models(rng, 120, largest=7):
        sig = _satisfaction_signature(model)
        assert sig.dtype == np.int32
        assert np.array_equal(sig, signature_reference(model))
        ranking = freedom_ranking(model)
        assert np.array_equal(ranking.scores, ranking_reference(model))
        rank = np.unique(pref.scores, return_inverse=True)[1]
        types = model.structure.types.block_masks()
        within, lo, best = _composition_tables(types, sig, rank)
        assert within == sorted(s for t in types for s in _submasks(t))
        ref_lo, ref_best = composition_tables_reference(within, sig, rank)
        assert np.array_equal(lo, ref_lo) and np.array_equal(best, ref_best)
        assert list(_composition_open_pairs(types, sig, rank)) == (
            composition_open_pairs_reference(within, sig, rank))
        compared += model.ground.size == 7
    assert compared > 10


def test_composition_blocks_of_few_rows_match_the_reference(rng, monkeypatch):
    """Blocks of one cell, or of a few hundred, give the same tables and
    pairs as the references: blocks split pair rows into column slices,
    fold a row's runs over several sorts and pick open pairs a few rows
    at a time."""
    models = list(_menu_models(rng, 40, largest=7))
    for cells in (1, 200, 1000):
        monkeypatch.setattr(normative, "_BLOCK_CELLS", cells)
        for model, pref in models:
            sig = _satisfaction_signature(model)
            rank = np.unique(pref.scores, return_inverse=True)[1]
            types = model.structure.types.block_masks()
            within, lo, best = _composition_tables(types, sig, rank)
            ref_lo, ref_best = composition_tables_reference(within, sig, rank)
            assert np.array_equal(lo, ref_lo) and np.array_equal(best, ref_best)
            assert list(_composition_open_pairs(types, sig, rank)) == (
                composition_open_pairs_reference(within, sig, rank))


def test_freedom_scores_count_the_satisfied_types_at_16_options(rng):
    model = freedom_model(random_single_peaked_structure(rng, ground_of_size(16)))
    scores = freedom_ranking(model).scores
    assert scores.dtype == np.int8 and len(scores) == 1 << 16
    for mask in [1, (1 << 16) - 1] + [rng.randrange(1, 1 << 16) for _ in range(2000)]:
        assert scores[mask] == freedom_count(model, mask)
