"""Hand-built structures and choice functions used by tests, docs and demos.

Each fixture returns freshly constructed immutable values; the expected
derived facts (reactions, welfare pairs) are documented next to each
builder and asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ChoiceFunction, GroundSet, LinearOrder, TypePartition
from .structure import RSStructure, evaluate


def detergent_choice() -> ChoiceFunction:
    """The introductory ban pattern on three options, extended consistently.

    c{x,y} = y, c{y,z} = z, c{x,z} = x, c{x,y,z} = z: removing y flips the
    choice from z to x, so x reacts to the absence of y (witness z).
    Synthesis yields types {x,y} and {z} with y welfare-better than x and
    the reaction order x, z, y.
    """
    ground = GroundSet(("x", "y", "z"))
    table = [-1] * 8
    table[0b001] = 0
    table[0b010] = 1
    table[0b100] = 2
    table[0b011] = 1
    table[0b110] = 2
    table[0b101] = 0
    table[0b111] = 2
    return ChoiceFunction(ground, table)


def worked_structure() -> RSStructure:
    """Two-type structure used across the docs: {a1, a2} and {b1}.

    Welfare a1 over a2; reaction order a2, b1, a1.  Evaluating gives
    c{a1,a2,b1} = b1 and c{a2,b1} = a2, hence a2 reacts to the absence
    of a1.
    """
    ground = GroundSet(("a1", "a2", "b1"))
    return RSStructure(
        ground=ground,
        types=TypePartition(ground, (("a1", "a2"), ("b1",))),
        welfare=LinearOrder(ground, ("a1", "a2", "b1")),
        reaction_pref=LinearOrder(ground, ("a2", "b1", "a1")),
    )


@dataclass(frozen=True)
class WelfareScenario:
    """A choice function plus the ordered pair the scenario separates on."""

    cf: ChoiceFunction
    pair: tuple[str, str]


def scenario_improving_not_conservative() -> WelfareScenario:
    """Welfare improvement the conservative criterion misses.

    Six options, types {x, w, y} (welfare y > w > x, threshold w) and
    {z, v, u} (welfare z > v > u, threshold v).  The reaction order
    u, x, z, y, w, v makes x react to the absence of y through z, and z
    is reaction-better than y with both z and y strictly above their
    thresholds: z welfare-improves on x.  Yet x = c{x,z}, so the
    conservative criterion never ranks z over x.
    """
    ground = GroundSet(("x", "w", "y", "z", "v", "u"))
    structure = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("x", "w", "y"), ("z", "v", "u"))),
        welfare=LinearOrder(ground, ("z", "y", "v", "w", "u", "x")),
        reaction_pref=LinearOrder(ground, ("u", "x", "z", "y", "w", "v")),
    )
    return WelfareScenario(cf=evaluate(structure), pair=("z", "x"))


def scenario_conservative_not_improving() -> WelfareScenario:
    """Conservative comparison with no welfare-improvement counterpart.

    Four options; x sits below its type threshold b, and every member of
    x's type is reaction-better than the lone option z.  Then z is never
    chosen when x is feasible while x = c{x,z}, so x conservatively beats
    z; but x is below threshold, so x does not welfare-improve on z.
    """
    ground = GroundSet(("b", "x", "z", "w"))
    structure = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("b", "x"), ("z",), ("w",))),
        welfare=LinearOrder(ground, ("z", "b", "w", "x")),
        reaction_pref=LinearOrder(ground, ("x", "w", "b", "z")),
    )
    return WelfareScenario(cf=evaluate(structure), pair=("x", "z"))


def scenario_attention_vs_improving() -> WelfareScenario:
    """Limited-attention preference pointing against welfare improvement.

    Four options, types {x, y} and {t, z}; y and z sit at their type
    thresholds while x and t react; t is reaction-better than x and z
    welfare-better than y.  Removing z from {x,z,t} and y from {x,y,z}
    changes the choices, so attention-revealed preference chains x over z
    over y; welfare improvement concludes the opposite: y over x.
    """
    ground = GroundSet(("x", "y", "z", "t"))
    structure = RSStructure(
        ground=ground,
        types=TypePartition(ground, (("x", "y"), ("z", "t"))),
        welfare=LinearOrder(ground, ("z", "y", "t", "x")),
        reaction_pref=LinearOrder(ground, ("t", "x", "z", "y")),
    )
    return WelfareScenario(cf=evaluate(structure), pair=("x", "y"))
