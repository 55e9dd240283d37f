"""The pair and triple readers (``ChoiceFunction.beats``, the reaction scan,
NRS, IR and SPR) against reference scans kept here, which index every pair
and triple menu in a tuple of the whole table.

The library readers test bits of the ``beats`` rows instead, and the
reaction scan visits each triple menu once, so they must list the same
witnesses in the same order, for every cap, under the revealed classes and
under arbitrary partitions.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from rschoice.axioms import check_exp, check_ir, check_nrs, check_spr
from rschoice.core import GroundSet, TypePartition, enumerate_choice_functions
from rschoice.generators import ground_of_size, random_partition, random_single_peaked_structure
from rschoice.revealed import reveal, reveal_reaction
from rschoice.structure import evaluate, minimal_structure, synthesize_rs

from conftest import mixed_choice_function, noisy_choice_function


def beats_reference(cf) -> list[int]:
    table, n = cf.table.tolist(), cf.ground.size
    return [sum(1 << y for y in range(n) if y != x and table[(1 << x) | (1 << y)] == x)
            for x in range(n)]


def reaction_reference(cf) -> tuple[list[int], dict]:
    ground, choices, n = cf.ground, tuple(cf.table.tolist()), cf.ground.size
    rows, witness = [0] * n, {}
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            pair_xy = (1 << x) | (1 << y)
            for z in range(n):
                if pair_xy >> z & 1:
                    continue
                if choices[pair_xy | 1 << z] == z and choices[(1 << x) | (1 << z)] == x:
                    rows[x] |= 1 << y
                    witness[(ground.options[x], ground.options[y])] = ground.options[z]
                    break
    return rows, witness


def nrs_reference(cf, classes: TypePartition) -> list[tuple]:
    ground, choices, out = cf.ground, tuple(cf.table.tolist()), []
    for block in classes.blocks:
        members = [ground.index[name] for name in block]
        for x in members:
            for y in members:
                if y == x or choices[(1 << x) | (1 << y)] != x:
                    continue
                for z in members:
                    if (z not in (x, y) and choices[(1 << y) | (1 << z)] == y
                            and choices[(1 << x) | (1 << z)] != x):
                        out.append((ground.options[x], ground.options[y], ground.options[z]))
    return out


def ir_reference(cf, classes: TypePartition) -> list[tuple]:
    ground, choices, n, out = cf.ground, tuple(cf.table.tolist()), cf.ground.size, []
    block_of = classes.block_of()
    for x in range(n):
        for y in range(n):
            if y == x or block_of[y] != block_of[x]:
                continue
            for z in range(n):
                if (block_of[z] == block_of[x] or choices[(1 << x) | (1 << z)] != x
                        or choices[(1 << y) | (1 << z)] != z):
                    continue
                for t in range(n):
                    if (block_of[t] != block_of[x] and choices[(1 << y) | (1 << t)] == y
                            and choices[(1 << x) | (1 << t)] != x):
                        out.append(tuple(ground.options[i] for i in (x, y, z, t)))
    return out


def spr_reference(cf, report) -> list[tuple]:
    ground, choices, n, out = cf.ground, tuple(cf.table.tolist()), cf.ground.size, []
    classes, rows = report.similarity_classes, report.reaction.rows
    block_of = classes.block_of()
    for block in classes.blocks:
        members = [ground.index[name] for name in block]
        if len(members) < 3:
            continue
        outside = [u for u in range(n) if block_of[u] != block_of[members[0]]]
        for x in members:
            if not rows[x]:
                continue
            for y in members:
                if y == x or choices[(1 << x) | (1 << y)] != x:
                    continue
                for z in members:
                    if (z in (x, y) or choices[(1 << y) | (1 << z)] != y
                            or not (rows[z] >> y) & 1):
                        continue
                    for u in outside:
                        if choices[(1 << x) | (1 << u)] == x and choices[(1 << y) | (1 << u)] != y:
                            out.append(tuple(ground.options[i] for i in (x, y, z, u)))
    return out


def _assert_lists(verdict_of, reference: list[tuple], caps) -> None:
    """The full list (cap ``sys.maxsize``) and each capped prefix."""
    assert verdict_of(sys.maxsize).violations == tuple(reference)
    for cap in caps:
        verdict = verdict_of(cap)
        assert verdict.violations == tuple(reference[:cap])
        assert verdict.holds == (not reference)
        assert verdict.truncated == (len(reference) > cap)


def _assert_readers_match(cf, partition: TypePartition, caps) -> int:
    """Every reader on ``cf`` under its revealed classes and under
    ``partition``, in full and capped at each of ``caps``; returns the
    number of reference witnesses."""
    beats = beats_reference(cf)
    rows, witness = reaction_reference(cf)
    report = reveal(cf)
    assert list(cf.beats) == list(report.strict_pref.rows) == beats
    assert list(report.reaction.rows) == rows and report.witness == witness
    count = 0
    for classes in (report.similarity_classes, partition):
        with_classes = dataclasses.replace(report, similarity_classes=classes)
        references = [
            (lambda cap: check_nrs(cf, classes, cap), nrs_reference(cf, classes)),
            (lambda cap: check_ir(cf, classes, cap), ir_reference(cf, classes)),
            (lambda cap: check_spr(cf, with_classes, cap), spr_reference(cf, with_classes)),
        ]
        for verdict_of, reference in references:
            _assert_lists(verdict_of, reference, caps)
            count += len(reference)
    return count


def test_pair_readers_match_the_references_on_census_4(rng):
    ground = GroundSet(("a", "b", "c", "d"))
    total = witnesses = 0
    for cf in enumerate_choice_functions(ground):
        witnesses += _assert_readers_match(cf, random_partition(rng, ground), (1,))
        total += 1
    assert total == 20_736 and witnesses > 0


@pytest.mark.parametrize("size", range(5, 10))
def test_pair_readers_match_the_references_on_mixed_input(rng, size):
    ground, witnesses = ground_of_size(size), 0
    for k in range(90):
        cf = mixed_choice_function(rng, ground, k % 3)
        caps = (0, 1, 2, 5, rng.randrange(40))
        witnesses += _assert_readers_match(cf, random_partition(rng, ground), caps)
    assert witnesses > 0


def _assert_reaction_matches(cf) -> int:
    """Rows and witnesses, in insertion order, of the reaction scan against
    ``reaction_reference``; returns the number of witnesses."""
    rows, witness = reaction_reference(cf)
    reaction, found = reveal_reaction(cf)
    assert list(reaction.rows) == rows
    assert list(found.items()) == list(witness.items())
    return len(witness)


@pytest.mark.parametrize("size", (2, 3))
def test_reaction_scan_matches_the_reference_with_at_most_one_triple(size):
    witnesses = sum(map(_assert_reaction_matches, enumerate_choice_functions(ground_of_size(size))))
    assert (witnesses > 0) == (size == 3)


@pytest.mark.parametrize("size", range(10, 14))
def test_reaction_scan_matches_the_reference_on_noisy_input(rng, size):
    ground = ground_of_size(size)
    witnesses = sum(_assert_reaction_matches(noisy_choice_function(rng, ground)) for _ in range(6))
    assert witnesses > 0


def test_no_reader_builds_the_whole_table_tuple(rng):
    """Reveal, the axioms but IIA, synthesis and certification read pairs,
    triples and ``table`` only: the 2^n ``choices`` tuple is never built."""
    cf = evaluate(random_single_peaked_structure(rng, ground_of_size(10)))
    report = reveal(cf)
    assert check_exp(cf).holds
    assert check_nrs(cf, report.similarity_classes).holds
    assert check_ir(cf, report.similarity_classes).holds
    assert check_spr(cf, report).holds
    synthesize_rs(cf)
    minimal_structure(cf)
    assert "choices" not in cf.__dict__
    assert list(cf.beats) == beats_reference(cf)
