from __future__ import annotations

import random

import pytest

from rschoice.core import ChoiceFunction, GroundSet, LinearOrder
from rschoice.structure import RSStructure


def cf_from(options: tuple[str, ...], choices: dict[str, str]) -> ChoiceFunction:
    """Build a choice function from canonical menu keys; singletons implied."""
    ground = GroundSet(options)
    table = [-1] * (1 << ground.size)
    for pos, name in enumerate(ground.options):
        table[1 << pos] = pos
    for key, chosen in choices.items():
        table[ground.parse_menu_key(key)] = ground.index[chosen]
    return ChoiceFunction(ground, tuple(table))


def reextended(structure: RSStructure, rng: random.Random) -> RSStructure:
    """``structure`` with the same types and reaction order and a welfare
    order that is a random linear extension of its within-type welfare
    chains (the chains merged by drawing the next chain at random)."""
    r1, index = structure.welfare.ranks(), structure.ground.index
    chains = [sorted(b, key=lambda x: r1[index[x]]) for b in structure.types.blocks]
    ranking = []
    while chains:
        chain = rng.choice(chains)
        ranking.append(chain.pop(0))
        chains = [c for c in chains if c]
    welfare = LinearOrder(structure.ground, tuple(ranking))
    return RSStructure(structure.ground, structure.types, welfare, structure.reaction_pref)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
