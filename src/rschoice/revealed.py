"""Revealed relations of a choice function.

Three objects are extracted from choice data:

* the binary revealed preference: ``x`` beats ``y`` when ``x = c{x,y}``;
* the reaction relation: ``x`` reacts to the absence of ``y`` when some
  third option ``z`` satisfies ``z = c{x,y,z}`` and ``x = c{x,z}`` (the
  choice reverses toward ``x`` once ``y`` is gone);
* subjective similarity: the equivalence closure of reaction connectivity,
  whose classes are the revealed types.

``reveal_reaction`` reads the choices from the C(n, 3) triple menus of
``ChoiceFunction.table``, the stored int8 choice table, with one
``take`` over a mask array cached per n, and visits each triple once,
testing its two unchosen options against ``ChoiceFunction.beats``.
``single_deletion_switches`` reads every choice reversal caused by removing
one option off the table in one numpy pass per removed option, one side
of the reversals at a time: ``reaction_crosscheck`` builds the options
switched to, ``normative.masatlioglu_pr`` those switched from.  ``converse``
transposes adjacency rows, for ``similarity_classes`` among others.

``reveal`` keeps its report on the function, as ``ChoiceFunction.beats``
keeps the pair rows, so the steps of one analysis reveal once, and
``reaction_crosscheck`` reads the triple relation there.  The report is
shared and immutable: its relations are frozen and its ``witness`` map is
a read-only ``MappingProxyType``.  It is 7–11 KB at n = 12–13.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import (
    MAX_GROUND_SIZE,
    ChoiceFunction,
    GroundSet,
    TypePartition,
    indented_json,
    iter_bits,
)


@dataclass(frozen=True)
class BinaryRelation:
    """Relation over the ground set as adjacency bitmask rows.

    ``rows[i]`` has bit ``j`` set when the pair (option i, option j) is in
    the relation.  ``strict`` relations are validated irreflexive.
    """

    ground: GroundSet
    rows: tuple[int, ...]
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.ground.size:
            raise ValueError("adjacency rows do not match the ground set")
        if self.strict:
            for i, row in enumerate(self.rows):
                if (row >> i) & 1:
                    raise ValueError("strict relation cannot be reflexive")

    def holds(self, a: str, b: str) -> bool:
        i = self.ground.index[a]
        j = self.ground.index[b]
        return bool((self.rows[i] >> j) & 1)

    def pairs(self) -> list[tuple[str, str]]:
        opts = self.ground.options
        return [
            (opts[i], opts[j])
            for i, row in enumerate(self.rows)
            for j in iter_bits(row)
        ]

    def is_empty(self) -> bool:
        return all(row == 0 for row in self.rows)

    def transitive_closure(self) -> "BinaryRelation":
        rows = list(self.rows)
        n = len(rows)
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rows[k]
        if self.strict:
            for i in range(n):
                rows[i] &= ~(1 << i)
        return BinaryRelation(self.ground, tuple(rows), strict=self.strict)


@dataclass(frozen=True)
class RevealedReport:
    """Bundle of everything revealed from one choice function.

    ``reveal`` shares one report among its callers, so ``witness`` is a
    read-only ``MappingProxyType`` there.  Such a report cannot be pickled
    or deep-copied; ``dict(report.witness)`` copies its witnesses.
    """

    strict_pref: BinaryRelation
    reaction: BinaryRelation
    similarity_classes: TypePartition
    witness: Mapping[tuple[str, str], str]

    def to_dict(self) -> dict:
        return {
            "strict_preference": [[a, b] for a, b in self.strict_pref.pairs()],
            "reaction": [[a, b] for a, b in self.reaction.pairs()],
            "similarity_classes": [list(b) for b in self.similarity_classes.blocks],
            "witnesses": {f"{a} reacts to {b}": z for (a, b), z in sorted(self.witness.items())},
        }

    def to_json(self) -> str:
        return indented_json(self.to_dict())


def converse(rows: Sequence[int]) -> list[int]:
    """Adjacency rows of the converse relation: bit i of ``out[j]`` is bit
    j of ``rows[i]``."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            out[j] |= 1 << i
    return out


def reveal_binary(cf: ChoiceFunction) -> BinaryRelation:
    """Strict pairwise revealed preference: x beats y iff x = c{x,y}."""
    return BinaryRelation(cf.ground, cf.beats)


@lru_cache(maxsize=MAX_GROUND_SIZE + 1)
def _triples(n: int) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...]]:
    """The C(n, 3) triple menus on n options, as masks and as member
    positions, in ``itertools.combinations`` order.  In that order the
    triples that hold a given pair come in increasing order of their third
    member."""
    members = tuple(combinations(range(n), 3))
    masks = np.array([(1 << a) | (1 << b) | (1 << c) for a, b, c in members], dtype=np.int64)
    masks.flags.writeable = False
    return masks, members


def reveal_reaction(cf: ChoiceFunction) -> tuple[BinaryRelation, dict[tuple[str, str], str]]:
    """Reaction relation with one witness per pair.

    Reads the choices from all C(n, 3) triple menus with one ``table.take``
    and visits each triple once: with z chosen from {x, y, z}, x reacts to
    the absence of y when x = c{x,z} (bit z of ``beats[x]``), and y to the
    absence of x when bit z of ``beats[y]`` is set.  Triples come in
    ``_triples`` order, so the first witness found for a pair is the
    qualifying z with the smallest ground-set position, the one recorded.
    """
    ground = cf.ground
    n, beats = ground.size, cf.beats
    masks, members = _triples(n)
    found: dict[tuple[int, int], int] = {}
    for (a, b, c), z in zip(members, cf.table.take(masks).tolist()):
        x, y = (b, c) if z == a else (a, c) if z == b else (a, b)
        if beats[x] >> z & 1:
            found.setdefault((x, y), z)
        if beats[y] >> z & 1:
            found.setdefault((y, x), z)
    rows = [0] * n
    witness: dict[tuple[str, str], str] = {}
    for (x, y), z in sorted(found.items()):
        rows[x] |= 1 << y
        witness[(ground.options[x], ground.options[y])] = ground.options[z]
    return BinaryRelation(ground, tuple(rows), strict=True), witness


def single_deletion_switches(cf: ChoiceFunction) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Adjacency rows read off every switch under a single deletion.

    A switch is a menu A and an unchosen y in A with c(A \\ {y}) != c(A).
    Each switch sets bit y in ``before[c(A)]`` and in ``after[c(A \\ {y})]``;
    the choice from A minus y is never y, so both are irreflexive.
    """
    return _switch_rows(cf, after=False), _switch_rows(cf, after=True)


def _switch_rows(cf: ChoiceFunction, after: bool) -> tuple[int, ...]:
    """``single_deletion_switches``' after rows, or its before rows: one numpy
    pass per y compares ``table[A]`` with ``table[A ^ 1 << y]`` over the menus
    A holding y and flags the options switched to, or switched from."""
    table, n = cf.table, cf.ground.size
    rows = np.zeros(n, dtype=np.int64)
    for y in range(n):
        pairs = table.reshape(-1, 2, 1 << y)
        without, chosen = pairs[:, 0], pairs[:, 1]
        switch = (chosen != without) & (chosen != y)
        flags = np.zeros(n, dtype=bool)
        flags[(without if after else chosen)[switch]] = True
        rows[flags] |= 1 << y
    return tuple(rows.tolist())


def reaction_crosscheck(cf: ChoiceFunction) -> dict[str, list[tuple[str, str]]]:
    """Discrepancies between the triple-based and arbitrary-menu reaction.

    Under the arbitrary-menu definition x reacts to the absence of y iff
    some menu A satisfies ``x = c(A \\ {y}) != c(A) != y``: the ``after``
    rows of ``single_deletion_switches``, 2^n menus instead of the C(n, 3)
    triples.  The triple-based relation is ``reveal(cf).reaction``.
    Returns pairs present only under one definition; both lists empty
    means the two definitions coincide on this function.
    """
    menus = BinaryRelation(cf.ground, _switch_rows(cf, after=True), strict=True)
    triple_pairs, menu_pairs = set(reveal(cf).reaction.pairs()), set(menus.pairs())
    return {
        "only_in_triple_scan": sorted(triple_pairs - menu_pairs),
        "only_in_menu_scan": sorted(menu_pairs - triple_pairs),
    }


def similarity_classes(reaction: BinaryRelation) -> TypePartition:
    """Connected components of the undirected reaction graph.

    Options linked by a reaction in either direction share a class;
    isolated options form singleton blocks.
    """
    ground = reaction.ground
    undirected = [row | back for row, back in zip(reaction.rows, converse(reaction.rows))]
    # Each component is the OR-closure of the rows from its smallest
    # unplaced option, so the blocks come out ordered by smallest member.
    masks = []
    left = ground.full_mask
    while left:
        block = frontier = left & -left
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= undirected[v]
            frontier = reach & ~block
            block |= frontier
        masks.append(block)
        left &= ~block
    return TypePartition.from_masks(ground, masks)


def reveal(cf: ChoiceFunction) -> RevealedReport:
    """Full revealed-relations report for a choice function.

    The report is built once per function object and kept on it, so every
    later call with that object returns the same report.
    """
    cached = vars(cf)
    if "_revealed" not in cached:
        reaction, witness = reveal_reaction(cf)
        cached["_revealed"] = RevealedReport(
            strict_pref=reveal_binary(cf),
            reaction=reaction,
            similarity_classes=similarity_classes(reaction),
            witness=MappingProxyType(witness),
        )
    return cached["_revealed"]
