"""The whole-table numpy kernels against the per-menu loops they replaced,
kept here as references.

``single_deletion_switches``, ``evaluate``, ``bernheim_rangel_pstar`` and
``choice_from_order`` each run whole-table passes over an int8 choice table.
On order-, structure-, noise-generated and uniformly random functions at
n = 2-8, and on one 12-option case, each must return exactly what its
reference loop returns.  ``evaluate`` is also held to its reference on every
structure with 2, 3 and 4 options, and at the cap of 24 options, where its
table is viewed with 24 axes, to the order that decides it when every type
is a singleton or one type holds every option.  ``ChoiceFunction`` checks its picks in one numpy
pass; with bad entries planted in random tables it must raise what the
per-menu check raised, with the same message.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from rschoice import normative
from rschoice.core import (
    ChoiceFunction,
    ChoiceModelError,
    ChoiceOutsideMenuError,
    GroundSet,
    LinearOrder,
    MAX_GROUND_SIZE,
    MissingMenuError,
    TypePartition,
    choice_from_order,
    iter_bits,
)
from rschoice.generators import (
    ground_of_size,
    random_choice_function,
    random_order,
    random_single_peaked_structure,
    random_structure,
)
from rschoice.normative import bernheim_rangel_pstar
from rschoice.revealed import single_deletion_switches
from rschoice.structure import (
    RSStructure,
    _kernel_inputs,
    enumerate_structures,
    evaluate,
    two_stage_choice,
)


def switches_reference(cf: ChoiceFunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every menu, every unchosen member deleted in turn."""
    choices = cf.choices
    before = [0] * cf.ground.size
    after = [0] * cf.ground.size
    for mask in range(1, cf.ground.full_mask + 1):
        chosen = choices[mask]
        for y in iter_bits(mask ^ (1 << chosen)):
            x = choices[mask ^ (1 << y)]
            if x != chosen:
                before[chosen] |= 1 << y
                after[x] |= 1 << y
    return tuple(before), tuple(after)


def evaluate_reference(s: RSStructure) -> tuple[int, ...]:
    """``two_stage_choice`` once per menu."""
    chains, keys = _kernel_inputs(s)
    return (-1, *(two_stage_choice(chains, keys, mask)[0]
                  for mask in range(1, s.ground.full_mask + 1)))


def pstar_rows_reference(cf: ChoiceFunction) -> tuple[int, ...]:
    n = cf.ground.size
    chosen_against = [0] * n
    for mask in range(1, cf.ground.full_mask + 1):
        x = cf.choices[mask]
        chosen_against[x] |= mask & ~(1 << x)
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if x != y and (chosen_against[x] >> y) & 1 and not (chosen_against[y] >> x) & 1:
                rows[x] |= 1 << y
    return tuple(rows)


def order_reference(order: LinearOrder) -> tuple[int, ...]:
    """The best-ranked member of every menu."""
    r = order.ranks()
    return (-1, *(min(iter_bits(mask), key=r.__getitem__)
                  for mask in range(1, order.ground.full_mask + 1)))


def _noisy(rng: random.Random, choices: tuple[int, ...], share: float) -> tuple[int, ...]:
    """Each menu's pick redrawn uniformly from its members with probability ``share``."""
    table = list(choices)
    for mask in range(1, len(table)):
        if rng.random() < share:
            table[mask] = rng.choice(list(iter_bits(mask)))
    return tuple(table)


def _functions(rng: random.Random, ground: GroundSet):
    """One function of each kind on ``ground``."""
    yield "order", order_reference(random_order(rng, ground))
    yield "structure", evaluate_reference(random_structure(rng, ground))
    peaked = evaluate_reference(random_single_peaked_structure(rng, ground))
    yield "single-peaked", peaked
    yield "noisy", _noisy(rng, peaked, 0.05)
    yield "uniform", random_choice_function(rng, ground).choices


def _cases(size: int):
    """(kind, function) pairs on ``size`` options: six draws of each kind
    up to n = 8, one at n = 12."""
    rng = random.Random(size)
    ground = ground_of_size(size)
    for _ in range(6 if size <= 8 else 1):
        for kind, choices in _functions(rng, ground):
            yield kind, ChoiceFunction(ground, choices)


def _assert_trusted_table(cf: ChoiceFunction) -> None:
    """A kernel's function equals the one built from its picks as a tuple,
    and its stored table is the read-only int8 form of those picks."""
    assert all(type(c) is int for c in cf.choices)
    assert cf == ChoiceFunction(cf.ground, cf.choices)
    assert cf.table.dtype == "int8" and not cf.table.flags.writeable
    assert cf.table.tolist() == list(cf.choices)


@pytest.mark.parametrize("size", [*range(2, 9), 12])
def test_table_kernels_match_their_references(size):
    switching = 0
    for kind, cf in _cases(size):
        assert cf.table.tolist() == list(cf.choices)
        switches = single_deletion_switches(cf)
        assert switches == switches_reference(cf), (kind, cf.choices)
        assert bernheim_rangel_pstar(cf).rows == pstar_rows_reference(cf), (kind, cf.choices)
        switching += any(switches[0])
    assert switching > 0 or size == 2  # two options leave nothing to switch to


@pytest.mark.parametrize("size", [5, 8])
def test_pstar_in_blocks_of_eight_menus_matches_the_reference(monkeypatch, size):
    """``bernheim_rangel_pstar`` sorts one block of menus at a time, a
    single block below 17 options; with 8-menu blocks small inputs cross
    many, and each block's menus are its start plus an offset."""
    monkeypatch.setattr(normative, "PSTAR_BLOCK", 8)
    for kind, cf in _cases(size):
        assert bernheim_rangel_pstar(cf).rows == pstar_rows_reference(cf), (kind, cf.choices)


@pytest.mark.parametrize("size", [*range(2, 9), 12])
def test_evaluate_matches_two_stage_choice_on_every_menu(size):
    rng = random.Random(size)
    ground = ground_of_size(size)
    for make in (random_structure, random_single_peaked_structure) * 4:
        s = make(rng, ground)
        cf = evaluate(s)
        assert cf.choices == evaluate_reference(s)
        _assert_trusted_table(cf)


def test_evaluate_matches_two_stage_choice_on_every_structure_up_to_four_options():
    count = 0
    for size in (2, 3, 4):
        for s in enumerate_structures(ground_of_size(size)):
            assert evaluate(s).table.tolist() == list(evaluate_reference(s)), s
            count += 1
    assert count == 8_828


@pytest.mark.parametrize("single_type", [False, True])
def test_evaluate_at_the_cap_is_choice_by_the_deciding_order(single_type):
    """Singleton types keep every member, so the reaction order decides; one
    type keeps only its welfare-best member, so the welfare order does."""
    rng = random.Random(MAX_GROUND_SIZE)
    ground = ground_of_size(MAX_GROUND_SIZE)
    welfare, reaction = random_order(rng, ground), random_order(rng, ground)
    blocks = (ground.options,) if single_type else tuple((x,) for x in ground.options)
    s = RSStructure(ground, TypePartition(ground, blocks), welfare, reaction)
    assert evaluate(s) == choice_from_order(welfare if single_type else reaction)


@pytest.mark.parametrize("size", [*range(2, 9), 12])
def test_choice_from_order_matches_the_best_ranked_member(size):
    rng = random.Random(size)
    ground = ground_of_size(size)
    for _ in range(8):
        order = random_order(rng, ground)
        cf = choice_from_order(order)
        assert cf.choices == order_reference(order)
        _assert_trusted_table(cf)


def validate_reference(ground: GroundSet, choices) -> None:
    """The per-menu check ``ChoiceFunction`` ran before its numpy pass."""
    choices = tuple(choices)
    n_entries = 1 << ground.size
    if len(choices) != n_entries:
        raise MissingMenuError(f"choice table has {len(choices)} entries, expected {n_entries}")
    if choices[0] != -1:
        raise ChoiceOutsideMenuError(f"entry 0 (the empty menu) must be -1, got {choices[0]!r}")
    for mask in range(1, n_entries):
        try:
            if (mask >> choices[mask]) & 1:
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        pick, key, opts = choices[mask], ground.menu_key(mask), ground.options
        if isinstance(pick, int) and 0 <= pick < len(opts):
            raise ChoiceOutsideMenuError(f"chosen option {opts[pick]!r} is outside menu {key!r}")
        raise ChoiceOutsideMenuError(
            f"choice {pick!r} from menu {key!r} is not an option position 0..{len(opts) - 1}"
        )


def _bad_picks(rng: random.Random, n: int, mask: int) -> list:
    """One pick of each bad kind for menu ``mask``."""
    outside = [y for y in range(n) if not (mask >> y) & 1]
    return [
        *([rng.choice(outside)] if outside else []),
        -1, -2, -129, -(2**63), n, n + rng.randrange(100), 127, 128, 2**63 - 1, 2**63, 10**100,
        float(rng.choice(list(iter_bits(mask)))), 0.5, "x", str(n - 1), None, [0], (0, 1),
    ]


def _error(build):
    try:
        build()
    except ChoiceModelError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("size", range(2, 9))
def test_choice_function_raises_what_the_per_menu_check_raised(size):
    rng = random.Random(size)
    ground = ground_of_size(size)
    for _ in range(4):
        table = list(random_choice_function(rng, ground).choices)
        for bad in [0, 1, -2, None, "x", 0.5, 10**100]:  # entry 0
            planted = [bad, *table[1:]]
            expected = _error(lambda: validate_reference(ground, planted))
            assert expected is not None
            assert _error(lambda: ChoiceFunction(ground, planted)) == expected
        for _ in range(3):
            # One bad entry, then a second of another kind at another menu:
            # the error names whichever menu comes first.
            masks = rng.sample(range(1, 1 << size), 2)
            firsts, seconds = (_bad_picks(rng, size, mask) for mask in masks)
            rng.shuffle(seconds)
            for bad, other in zip(firsts, seconds):
                planted = list(table)
                planted[masks[0]] = bad
                for choices in (planted, tuple(planted)):
                    expected = _error(lambda: validate_reference(ground, choices))
                    assert expected is not None and expected[0] is ChoiceOutsideMenuError
                    assert _error(lambda: ChoiceFunction(ground, choices)) == expected
                planted[masks[1]] = other
                expected = _error(lambda: validate_reference(ground, planted))
                assert _error(lambda: ChoiceFunction(ground, planted)) == expected
    assert _error(lambda: ChoiceFunction(ground, table[1:])) == (
        _error(lambda: validate_reference(ground, table[1:])))


@pytest.mark.parametrize("size", range(2, 9))
def test_choice_function_inputs_give_one_function(size):
    rng = random.Random(size)
    ground = ground_of_size(size)
    other = GroundSet(tuple(f"p{i}" for i in range(size)))
    for _ in range(4):
        picks = list(random_choice_function(rng, ground).choices)
        array = np.array(picks, dtype=np.int8)
        cf = ChoiceFunction(ground, array)
        for same in (picks, tuple(picks), np.array(picks), np.array(picks, dtype=np.int16)):
            copy = ChoiceFunction(ground, same)
            assert copy == cf and hash(copy) == hash(cf)
            assert copy.choices == tuple(picks)
        assert ChoiceFunction(other, picks) != cf
        assert cf != picks
        array[1:] = 0  # the caller's array stays its own
        assert cf.table.tolist() == picks and cf.choices == tuple(picks)
        assert array.flags.writeable and not cf.table.flags.writeable
