"""The Expansion kernel piece by piece: grouping by chosen option, the
batched union-closure gate, and the Python and numpy pair scans, against
the ungated reference scan of ``test_gates``.

Module constants set the family size that leaves Python, the scan block
sizes and the gate batch budget; the tests run with the shipped values and
with tiny ones, so that inputs on at most 9 options cross several scan
blocks and several gate batches.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from rschoice import axioms
from rschoice.axioms import (
    _exp_families,
    _exp_scan_numpy,
    _exp_scan_python,
    _subset_zeta,
    _union_closed_families,
    check_exp,
)
from rschoice.core import (
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    choice_from_order,
    enumerate_choice_functions,
)
from rschoice.generators import (
    ground_of_size,
    random_choice_function,
    random_single_peaked_structure,
)
from rschoice.structure import evaluate

from conftest import mixed_choice_function
from test_gates import exp_reference

#: Constant overrides: shipped values (on at most 9 options, one gate
#: batch); every family through numpy with one-row scan blocks and
#: one-family gate batches.
SETTINGS = {
    "shipped": {},
    "tiny": {"EXP_SMALL_FAMILY": 2, "EXP_SCAN_FIRST": 1, "EXP_SCAN_BLOCK": 64,
             "EXP_GATE_BYTES": 0},
}


def _inputs(rng, count: int):
    """Order-, structure- and noise-generated functions on 2-9 options."""
    for k in range(count):
        yield mixed_choice_function(rng, ground_of_size(2 + k % 8), k % 3)


def _assert_capped(cf: ChoiceFunction, reference: list, caps) -> None:
    for cap in caps:
        verdict = check_exp(cf, cap)
        assert verdict.violations == tuple(reference[:cap]), (cap, cf.table.tolist())
        assert verdict.holds == (not reference)
        assert verdict.truncated == (len(reference) > cap)


@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_exp_lists_the_reference_witnesses_and_capped_prefixes(rng, monkeypatch, setting):
    for name, value in SETTINGS[setting].items():
        monkeypatch.setattr(axioms, name, value)
    blocks = batches = 0
    for cf in _inputs(rng, 120):
        reference = exp_reference(cf)
        _assert_capped(cf, reference, (0, 1, 3, 16, 10**9))
        large = [m for m in _exp_families(cf.table, cf.ground.size) if not isinstance(m, list)]
        batches = max(batches, len(large))
        open_labels = {w[2] for w in reference}
        blocks += any(len(m) * (len(m) - 1) // 2 > 4 * axioms.EXP_SCAN_FIRST
                      and cf.ground.options[cf.table[m[0]]] in open_labels for m in large)
    # Some input had 4+ large families, and some open family spanned 3+
    # scan blocks.
    assert batches >= 4 and blocks > 0


def test_python_and_numpy_scans_list_the_same_witnesses_per_family(rng):
    for cf in _inputs(rng, 90):
        ground, table = cf.ground, cf.table
        reference = exp_reference(cf)
        for x in range(ground.size):
            menus = [m for m in range(1, table.size) if table[m] == x]
            python = list(_exp_scan_python(ground, table.item, x, menus))
            assert python == list(_exp_scan_numpy(ground, table, x, np.array(menus, np.int32)))
            assert python == [w for w in reference if w[2] == ground.options[x]]


def test_exp_families_group_menus_by_choice_in_ascending_order(rng):
    for cf in _inputs(rng, 60):
        families = _exp_families(cf.table, cf.ground.size)
        for x, menus in enumerate(families):
            assert list(menus) == [m for m in range(1, cf.table.size) if cf.table[m] == x]
            assert isinstance(menus, list) == (len(menus) <= axioms.EXP_SMALL_FAMILY)


def test_one_gate_batch_flags_exactly_the_families_with_witnesses(rng):
    for cf in _inputs(rng, 90):
        ground, table = cf.ground, cf.table
        xs = list(range(ground.size))
        families = [np.flatnonzero(table == x).astype(np.int32) for x in xs]
        closed = _union_closed_families(table, xs, families)
        open_labels = {w[2] for w in exp_reference(cf)}
        assert closed == [ground.options[x] not in open_labels for x in xs]


def test_subset_zeta_transforms_each_column_along_axis_0():
    rng = np.random.default_rng(7)
    for bits in range(5):
        values = rng.integers(0, 1 << 12, size=(1 << bits, 3)).astype(np.int64)
        for op in (np.bitwise_or, np.maximum):
            columns = values.copy()
            _subset_zeta(columns, op)
            for j in range(3):
                single = values[:, j].copy()
                _subset_zeta(single, op)
                assert (columns[:, j] == single).all()
                expect = [op.reduce([values[t, j] for t in range(1 << bits) if t & s == t])
                          for s in range(1 << bits)]
                assert single.tolist() == expect


def _recorded_gate_batches(monkeypatch) -> list:
    """The options of each gate batch ``check_exp`` runs from now on."""
    batches = []

    def gate(table, xs, families):
        batches.append(list(xs))
        return _union_closed_families(table, xs, families)

    monkeypatch.setattr(axioms, "_union_closed_families", gate)
    return batches


def test_the_gate_never_sees_a_family_whose_union_is_chosen_otherwise(monkeypatch):
    """On a uniform 14-option input every family's union is the whole
    ground set, chosen for one option only: only that family is gated, and
    the gate finds it open too.  The numpy scan is stubbed out, so the
    check runs through every family."""
    batches = _recorded_gate_batches(monkeypatch)
    scanned = []

    def scan(ground, table, x, menus):
        scanned.append(x)
        return iter(())

    monkeypatch.setattr(axioms, "_exp_scan_numpy", scan)
    cf = random_choice_function(random.Random(3), ground_of_size(14))
    unions = [cf.table.item(np.bitwise_or.reduce(m)) for m in _exp_families(cf.table, 14)]
    top = cf.table.item(-1)  # the choice from the whole ground set
    check_exp(cf)
    assert unions == [top] * 14 and batches == [[top]]
    assert scanned == list(range(14))


def test_an_open_family_holding_its_union_is_decided_in_one_gate_batch(monkeypatch):
    """{o0, o1} and {o0, o2} choose o0 and their union o1, yet the union of
    the o0 family, the whole ground set, is chosen for o0: the gate decides
    it, in one batch with every family whose union is chosen for it."""
    batches = _recorded_gate_batches(monkeypatch)
    ground = ground_of_size(14)
    table = choice_from_order(LinearOrder(ground, ground.options)).table.tolist()
    table[0b111] = 1
    cf = ChoiceFunction(ground, table)
    verdict = check_exp(cf, cap=0)
    assert (verdict.holds, verdict.violations, verdict.truncated) == (False, (), True)
    assert batches == [[0, 2, 3, 4, 5, 6, 7, 8]]  # o1's family holds o0,o1,o2: open by its union
    assert check_exp(cf, cap=1).violations == (("o0,o1", "o0,o2", "o0", "o1"),)


def _assert_clean_inputs_gate_in_one_batch(batches, size: int) -> None:
    for seed in range(4):
        cf = evaluate(random_single_peaked_structure(random.Random(seed), ground_of_size(size)))
        large = [x for x, m in enumerate(_exp_families(cf.table, size)) if not isinstance(m, list)]
        batches.clear()
        assert check_exp(cf).holds
        assert batches == [large] and len(large) > 1


@pytest.mark.parametrize("size", [10, 11])
def test_a_clean_input_up_to_11_options_gates_every_large_family_in_one_batch(monkeypatch, size):
    _assert_clean_inputs_gate_in_one_batch(_recorded_gate_batches(monkeypatch), size)


@pytest.mark.parametrize("size", range(12, 18))
def test_a_clean_input_on_12_to_17_options_also_gates_in_one_batch(monkeypatch, size):
    _assert_clean_inputs_gate_in_one_batch(_recorded_gate_batches(monkeypatch), size)


@pytest.mark.parametrize("cap", [0, 1, 16])
def test_exp_verdicts_on_every_function_on_four_options(cap):
    ground = GroundSet(("a", "b", "c", "d"))
    held = 0
    for cf in enumerate_choice_functions(ground):
        reference = exp_reference(cf)
        _assert_capped(cf, reference, (cap,))
        held += not reference
    assert held == 24 + 144 + 48 + 24 + 96  # the Exp rows of the census
