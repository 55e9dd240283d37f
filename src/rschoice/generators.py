"""Seeded random generators for property sweeps.

Structures are sampled as a random partition (shuffle the options, then cut
the sequence into segments) with independent uniform permutations for the
two orders.  Single-peaked instances sample a threshold per type and build
the within-type reaction order from the welfare order by folding the
lower interval from its ends, so the certificate is valid by construction;
everything else (cross-type interleaving) is a uniform topological shuffle.
"""

from __future__ import annotations

import random

from .core import ChoiceFunction, GroundSet, LinearOrder, TypePartition, iter_bits
from .structure import RSStructure


def random_partition(rng: random.Random, ground: GroundSet) -> TypePartition:
    names = list(ground.options)
    rng.shuffle(names)
    blocks: list[tuple[str, ...]] = []
    start = 0
    for k in range(1, len(names)):
        if rng.random() < 0.5:
            blocks.append(tuple(names[start:k]))
            start = k
    blocks.append(tuple(names[start:]))
    return TypePartition(ground, tuple(blocks))


def random_order(rng: random.Random, ground: GroundSet) -> LinearOrder:
    names = list(ground.options)
    rng.shuffle(names)
    return LinearOrder(ground, tuple(names))


def random_structure(rng: random.Random, ground: GroundSet) -> RSStructure:
    return RSStructure(
        ground=ground,
        types=random_partition(rng, ground),
        welfare=random_order(rng, ground),
        reaction_pref=random_order(rng, ground),
    )


def random_choice_function(rng: random.Random, ground: GroundSet) -> ChoiceFunction:
    """Uniform independent pick per menu; rarely satisfies any axiom."""
    table = [-1] * (1 << ground.size)
    for mask in range(1, ground.full_mask + 1):
        members = list(iter_bits(mask))
        table[mask] = rng.choice(members)
    return ChoiceFunction(ground, table)


def _fold_lower(rng: random.Random, line: list[int]) -> list[int]:
    """Reaction order (best-first) of a welfare-descending line segment.

    Pops a random end of the remaining segment to assign positions from
    worst upward; every suffix of the result is then a welfare interval,
    which is exactly single-peakedness on the segment.
    """
    remaining = list(line)
    worst_first: list[int] = []
    while remaining:
        if rng.random() < 0.5:
            worst_first.append(remaining.pop(0))
        else:
            worst_first.append(remaining.pop())
    worst_first.reverse()
    return worst_first


def _merge_chains(rng: random.Random, chains: list[list[int]]) -> list[int]:
    """Uniform-ish random interleaving preserving each chain's order.

    Chains may share elements; shared elements must appear in compatible
    positions (guaranteed by the caller).
    """
    successors: dict[int, set[int]] = {}
    indegree: dict[int, int] = {}
    nodes: set[int] = set()
    for chain in chains:
        for a in chain:
            nodes.add(a)
            successors.setdefault(a, set())
            indegree.setdefault(a, 0)
        for a, b in zip(chain, chain[1:]):
            if b not in successors[a]:
                successors[a].add(b)
                indegree[b] += 1
    ready = sorted(n for n in nodes if indegree[n] == 0)
    out: list[int] = []
    while ready:
        pick = ready.pop(rng.randrange(len(ready)))
        out.append(pick)
        for nxt in sorted(successors[pick]):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    assert len(out) == len(nodes), "chain merge left a cycle"
    return out


def random_single_peaked_structure(rng: random.Random, ground: GroundSet) -> RSStructure:
    """Structure with a valid threshold certificate by construction.

    Per type: sample a threshold along the welfare chain; above it the
    reaction order copies welfare, below it the order is a random fold of
    the welfare line; the two within-type chains (sharing the threshold)
    are randomly interleaved, and the per-type chains randomly interleaved
    globally.
    """
    types = random_partition(rng, ground)
    welfare = random_order(rng, ground)
    r1 = welfare.ranks()
    per_type_chains: list[list[int]] = []
    for block in types.blocks:
        members = sorted((ground.index[name] for name in block), key=r1.__getitem__)
        split = rng.randrange(len(members))
        upper_chain = members[: split + 1]  # welfare order, best first
        lower_chain = _fold_lower(rng, members[split:])  # contains the threshold
        within = _merge_chains(rng, [upper_chain, lower_chain])
        per_type_chains.append(within)
    global_order = _merge_chains(rng, per_type_chains)
    return RSStructure(
        ground=ground,
        types=types,
        welfare=welfare,
        reaction_pref=LinearOrder(ground, tuple(ground.options[i] for i in global_order)),
    )


def ground_of_size(size: int) -> GroundSet:
    """Ground sets o0..o{n-1}, the default for randomized sweeps."""
    return GroundSet(tuple(f"o{i}" for i in range(size)))
