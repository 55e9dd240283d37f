from __future__ import annotations

import random
from pathlib import Path

import pytest

from rschoice.core import (
    GroundSet,
    LinearOrder,
    TypePartition,
    choice_from_order,
    iter_bits,
    parse_choice_function,
)
from rschoice.axioms import check_exp, tsm_choice, tsm_fixture_nrs_violation
from rschoice.fixtures import detergent_choice
from rschoice.generators import ground_of_size, random_structure
from rschoice.revealed import (
    BinaryRelation,
    reaction_crosscheck,
    reveal,
    reveal_binary,
    reveal_reaction,
    similarity_classes,
)
from rschoice.structure import evaluate

from conftest import cf_from


def test_binary_relation_from_order():
    ground = GroundSet(("x", "y", "z"))
    cf = choice_from_order(LinearOrder(ground, ("x", "y", "z")))
    rel = reveal_binary(cf)
    assert rel.holds("x", "y") and rel.holds("x", "z") and rel.holds("y", "z")
    assert not rel.holds("y", "x")


def test_binary_choice_cycle_fixture():
    # three-cycle in pairwise choice: x beats y, y beats z, z beats x
    cf = cf_from(("x", "y", "z"), {"x,y": "x", "y,z": "y", "x,z": "z", "x,y,z": "x"})
    rel = reveal_binary(cf)
    assert rel.holds("x", "y") and rel.holds("y", "z") and rel.holds("z", "x")


def test_detergent_reaction_and_witness():
    rep = reveal(detergent_choice())
    assert rep.reaction.pairs() == [("x", "y")]
    assert rep.witness == {("x", "y"): "z"}
    assert rep.similarity_classes.blocks == (("x", "y"), ("z",))


def test_reaction_is_irreflexive_and_witnessed(rng):
    for _ in range(50):
        s = random_structure(rng, ground_of_size(5))
        cf = evaluate(s)
        reaction, witness = reveal_reaction(cf)
        for x, row in enumerate(reaction.rows):
            assert not (row >> x) & 1
        for (x, y), z in witness.items():
            assert cf.choose([x, y, z]) == z
            assert cf.choose([x, z]) == x


def test_reaction_implies_binary_cycle_under_expansion(rng):
    # on Expansion-clean functions a reaction pins a three-cycle in pairs
    checked = 0
    for _ in range(60):
        s = random_structure(rng, ground_of_size(5))
        cf = evaluate(s)
        assert check_exp(cf, cap=1).holds
        rep = reveal(cf)
        strict = rep.strict_pref
        for (x, y), z in rep.witness.items():
            assert strict.holds(y, x)
            assert strict.holds(x, z) and strict.holds(z, y)
            checked += 1
    assert checked > 0


def test_shortlist_example_reactions():
    cf = tsm_choice(tsm_fixture_nrs_violation())
    rep = reveal(cf)
    for target in ("x", "y", "z"):
        assert rep.reaction.holds("t", target)
    blocks = rep.similarity_classes.blocks
    assert ("u",) in blocks
    assert any(set(b) == {"x", "y", "z", "t"} for b in blocks)


def test_similarity_components():
    ground = GroundSet(("a", "b", "c"))
    rel = BinaryRelation(ground, (0b010, 0, 0b010))  # a->b, c->b
    part = similarity_classes(rel)
    assert part.blocks == (("a", "b", "c"),)


def test_similarity_empty_reaction_gives_singletons():
    ground = GroundSet(("a", "b", "c"))
    rel = BinaryRelation(ground, (0, 0, 0))
    assert similarity_classes(rel).blocks == (("a",), ("b",), ("c",))


def test_similarity_idempotent_under_symmetric_duplicates(rng):
    ground = ground_of_size(6)
    for _ in range(30):
        rows = [0] * 6
        for _ in range(5):
            i, j = rng.randrange(6), rng.randrange(6)
            if i != j:
                rows[i] |= 1 << j
        rel = BinaryRelation(ground, tuple(rows))
        sym_rows = list(rows)
        for i, row in enumerate(rows):
            for j in iter_bits(row):
                sym_rows[j] |= 1 << i
        sym = BinaryRelation(ground, tuple(sym_rows))
        assert similarity_classes(rel).blocks == similarity_classes(sym).blocks


def test_triple_and_menu_definitions_agree_on_structures(rng):
    # the arbitrary-menu variant is claimed equivalent; report, don't assume
    for _ in range(40):
        s = random_structure(rng, ground_of_size(5))
        gaps = reaction_crosscheck(evaluate(s))
        assert gaps["only_in_triple_scan"] == []
        assert gaps["only_in_menu_scan"] == []


GOLDEN_INPUTS = [
    "fixtures/detergent.json", "fixtures/detergent.csv", "fixtures/tsm1.json",
    "fixtures/tsm2.json", "tests/golden/random7.json", "tests/golden/noisy10.json",
]


@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_crosscheck_with_a_report_equals_crosscheck_without(name):
    path = Path(__file__).resolve().parent.parent / name
    cf = parse_choice_function(path.read_bytes(), path.suffix[1:])
    assert reaction_crosscheck(cf, reveal(cf)) == reaction_crosscheck(cf)


def test_report_serializes():
    doc = reveal(detergent_choice()).to_json()
    assert '"x reacts to y": "z"' in doc


def similarity_reference(reaction):
    """Components by depth-first search over labels, as blocks of labels."""
    ground = reaction.ground
    n = ground.size
    undirected = [0] * n
    for i, row in enumerate(reaction.rows):
        undirected[i] |= row
        for j in iter_bits(row):
            undirected[j] |= 1 << i
    block_of = [-1] * n
    label = 0
    for start in range(n):
        if block_of[start] != -1:
            continue
        stack = [start]
        block_of[start] = label
        while stack:
            u = stack.pop()
            for v in iter_bits(undirected[u]):
                if block_of[v] == -1:
                    block_of[v] = label
                    stack.append(v)
        label += 1
    groups = {}
    for pos, b in enumerate(block_of):
        groups.setdefault(b, []).append(ground.options[pos])
    return TypePartition(ground, tuple(tuple(g) for g in groups.values()))


def test_similarity_classes_equal_the_search_over_labels():
    # Sparse to dense random reaction graphs on 2-12 options; blocks and
    # their masks in the same order as the label search gives them.
    rng = random.Random(23)
    for n in range(2, 13):
        ground = ground_of_size(n)
        for density in (0.0, 0.05, 0.15, 0.4):
            for _ in range(20):
                rows = [sum(1 << j for j in range(n) if j != i and rng.random() < density)
                        for i in range(n)]
                reaction = BinaryRelation(ground, rows, strict=True)
                got, expected = similarity_classes(reaction), similarity_reference(reaction)
                assert got.blocks == expected.blocks
                assert got.block_masks() == expected.block_masks()
