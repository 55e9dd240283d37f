from __future__ import annotations

import random

import pytest

from rschoice import cli
from rschoice.core import ChoiceFunction, GroundSet, LinearOrder, choice_from_order
from rschoice.generators import random_choice_function, random_order, random_single_peaked_structure
from rschoice.structure import RSStructure, evaluate


def cf_from(options: tuple[str, ...], choices: dict[str, str]) -> ChoiceFunction:
    """Build a choice function from canonical menu keys; singletons implied."""
    ground = GroundSet(options)
    table = [-1] * (1 << ground.size)
    for pos, name in enumerate(ground.options):
        table[1 << pos] = pos
    for key, chosen in choices.items():
        table[ground.parse_menu_key(key)] = ground.index[chosen]
    return ChoiceFunction(ground, tuple(table))


def choice_function_doc(ground: GroundSet, table) -> dict:
    """JSON document of the choice table ``table`` on ``ground``: its options,
    then its menus in ascending bit pattern.  Through ``json.dumps`` and
    ``csv.writer`` it is the reference for the library's choice writer."""
    chosen = map(ground.options.__getitem__, table.tolist()[1:])
    return {"options": list(ground.options), "choices": dict(zip(ground.menu_keys[1:], chosen))}


def mixed_choice_function(rng: random.Random, ground: GroundSet, kind: int) -> ChoiceFunction:
    """Kind 0: the choice of a random order; 1: of a random single-peaked
    structure, both with up to three picks redrawn; 2: a uniformly random
    function."""
    if kind == 2:
        return random_choice_function(rng, ground)
    base = choice_from_order(random_order(rng, ground)) if kind == 0 else evaluate(
        random_single_peaked_structure(rng, ground))
    table = base.table.tolist()
    for _ in range(rng.randrange(4)):
        mask = rng.randrange(1, 1 << ground.size)
        table[mask] = rng.choice([i for i in range(ground.size) if mask >> i & 1])
    return ChoiceFunction(ground, table)


def noisy_choice_function(rng: random.Random, ground: GroundSet) -> ChoiceFunction:
    """The choice of a random single-peaked structure with 1 % of its menus
    of two or more options given another member as choice."""
    return reassigned(rng, evaluate(random_single_peaked_structure(rng, ground)))


def reassigned(rng: random.Random, cf: ChoiceFunction) -> ChoiceFunction:
    """``cf`` with 1 % of its menus of two or more options given another
    member as choice."""
    ground, table = cf.ground, cf.table.tolist()
    menus = [m for m in range(1, 1 << ground.size) if m & (m - 1)]
    for mask in rng.sample(menus, round(0.01 * len(menus))):
        others = [i for i in range(ground.size) if mask >> i & 1 and i != table[mask]]
        table[mask] = rng.choice(others)
    return ChoiceFunction(ground, table)


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


@pytest.fixture(autouse=True)
def forget_memos(monkeypatch):
    """Empty the CLI's memo of the last choice file it parsed before each
    test, so that no test is handed a function that another test left; a
    test calls the returned function to empty it again, so that its next
    ``cli.main`` run parses and reveals its input anew."""
    def forget():
        monkeypatch.setattr(cli, "_last_choice", ())
    forget()
    return forget
