"""Synthesis against the pairwise construction it replaced, kept here as
the reference.

``structure._construct`` orders each type by one sort: reaction dominance
first, ties broken by revealed choice, reversed inside the
threshold-to-peak band.  ``construct_reference`` fills the k x k dominance
table, adds the within-type reaction edges pair by pair and the cross-type
edges in a second loop, and extends the welfare chains with in-degree
counts.  Both must give the same structure, the same trace and the same
failure message on every four-option function and on random inputs of 5-13
options whose balanced types reveal many reactions.
"""

from __future__ import annotations

import random

from rschoice.core import GroundSet, LinearOrder, TypePartition, enumerate_choice_functions
from rschoice.generators import ground_of_size
from rschoice.revealed import reveal
from rschoice.structure import (
    RSStructure,
    SynthesisTrace,
    _ConstructionFailure,
    _construct,
    _within_type_ranking,
    evaluate,
)

from conftest import reassigned


def construct_reference(cf, report):
    """Pairwise construction: ``(structure, trace, in_band_ties)``, where the
    last counts the dominance ties that the band reversal decided."""
    ground = cf.ground
    n = ground.size
    strict_rows = report.strict_pref.rows
    reaction_rows = report.reaction.rows
    classes = report.similarity_classes
    tie_relation, peak_candidates, thresholds = {}, {}, {}
    order2_above = [0] * n
    type_chains = []
    in_band_ties = 0

    for block, tmask in zip(classes.blocks, classes.block_masks()):
        members = [ground.index[name] for name in block]
        chain = _within_type_ranking(strict_rows, tmask, members)
        type_chains.append(chain)
        rank_in = {m: k for k, m in enumerate(chain)}
        dominates = {}
        for x in members:
            for y in members:
                outs_x, outs_y = strict_rows[x] & ~tmask, strict_rows[y] & ~tmask
                dominates[(x, y)] = (outs_y & ~outs_x) == 0
        for x in members:
            for y in members:
                if x != y and not dominates[(x, y)] and not dominates[(y, x)]:
                    raise _ConstructionFailure(
                        "reaction dominance is incomplete on "
                        f"({ground.options[x]}, {ground.options[y]})"
                    )
        tie_relation[block] = tuple(
            (ground.options[x], ground.options[y])
            for x in members
            for y in members
            if x != y and dominates[(x, y)]
        )

        nonreactors = [m for m in members if reaction_rows[m] == 0]
        if not nonreactors:
            raise _ConstructionFailure(
                f"every option of type {','.join(block)} has an outgoing reaction"
            )
        threshold = max(nonreactors, key=lambda m: rank_in[m])
        reacted_to = 0
        for m in members:
            reacted_to |= reaction_rows[m] & tmask
        peak_pool = [
            m for m in members
            if rank_in[m] >= rank_in[threshold] and not (reacted_to >> m) & 1
        ]
        if not peak_pool:
            raise _ConstructionFailure(
                f"every option of the restricted interval of {','.join(block)} "
                "has an incoming reaction"
            )
        peak = min(peak_pool, key=lambda m: rank_in[m])
        peak_candidates[block] = ground.options[peak]
        thresholds[block] = ground.options[threshold]

        band_lo, band_hi = rank_in[threshold], rank_in[peak]
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                x, y = members[ai], members[bi]
                if dominates[(x, y)] and not dominates[(y, x)]:
                    order2_above[x] |= 1 << y
                elif dominates[(y, x)] and not dominates[(x, y)]:
                    order2_above[y] |= 1 << x
                else:
                    hi, lo = (x, y) if rank_in[x] < rank_in[y] else (y, x)
                    if band_lo <= rank_in[hi] and rank_in[lo] <= band_hi:
                        order2_above[lo] |= 1 << hi
                        in_band_ties += 1
                    else:
                        order2_above[hi] |= 1 << lo

    block_of = classes.block_of()
    for x in range(n):
        for y in range(n):
            if (strict_rows[x] >> y) & 1 and block_of[x] != block_of[y]:
                order2_above[x] |= 1 << y

    wins2 = [bin(row).count("1") for row in order2_above]
    if sorted(wins2) != list(range(n)):
        raise _ConstructionFailure("the assembled reaction order is intransitive")
    ranking2 = tuple(ground.options[i] for i in sorted(range(n), key=lambda i: -wins2[i]))

    successor, in_deg = [-1] * n, [0] * n
    for chain in type_chains:
        for a, b in zip(chain, chain[1:]):
            successor[a] = b
            in_deg[b] += 1
    ready = [i for i in range(n) if in_deg[i] == 0]
    ranking1, log = [], []
    while ready:
        chosen = ready.pop(0)
        log.append((ground.options[chosen], tuple(ground.options[i] for i in [chosen] + ready)))
        ranking1.append(ground.options[chosen])
        nxt = successor[chosen]
        if nxt != -1:
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                ready.append(nxt)
                ready.sort()
    if len(ranking1) != n:
        raise _ConstructionFailure("welfare extension left a cycle")

    structure = RSStructure(
        ground, classes, LinearOrder(ground, tuple(ranking1)), LinearOrder(ground, ranking2)
    )
    trace = SynthesisTrace(tie_relation, peak_candidates, thresholds, tuple(log))
    return structure, trace, in_band_ties


def _outcome(construct, cf, report):
    """Everything a construction decides: the structure and its trace, or
    the failure message."""
    try:
        s, trace = construct(cf, report)[:2]
    except _ConstructionFailure as exc:
        return str(exc)
    return s.types.blocks, s.welfare.ranking, s.reaction_pref.ranking, trace.to_dict()


def balanced_single_peaked(rng: random.Random, ground: GroundSet, k: int) -> RSStructure:
    """Structure of ``k`` types of balanced size with a single-peaked reaction
    order.

    Per type a threshold is drawn in the welfare-better half; above it the
    reaction order copies welfare, below it the lower interval is folded
    from its ends, taking the welfare-best end with probability 0.9, so it
    mostly reverses.  These reversals, with other types' options between
    them, reveal many reactions; the library's generator cuts types at
    random and reveals few.
    """
    n = ground.size
    names = list(ground.options)
    rng.shuffle(names)
    welfare = list(ground.options)
    rng.shuffle(welfare)
    rank = {x: r for r, x in enumerate(welfare)}
    blocks, chains, start = [], [], 0
    for size in (n // k + (i < n % k) for i in range(k)):
        line = sorted(names[start:start + size], key=rank.__getitem__)
        start += size
        blocks.append(tuple(line))
        split = rng.randrange((size + 1) // 2)
        lower, worst_first = line[split:], []
        while lower:
            worst_first.append(lower.pop(0) if rng.random() < 0.9 else lower.pop())
        fold = worst_first[::-1]
        cut = fold.index(line[split])
        chains.append(_interleave(rng, [line[:split], fold[:cut]]) + fold[cut:])
    return RSStructure(
        ground,
        TypePartition(ground, tuple(blocks)),
        LinearOrder(ground, tuple(welfare)),
        LinearOrder(ground, tuple(_interleave(rng, chains))),
    )


def _interleave(rng: random.Random, chains: list[list[str]]) -> list[str]:
    """Random interleaving of disjoint chains that keeps each chain's order."""
    chains = [list(c) for c in chains if c]
    out = []
    while chains:
        chain = rng.choice(chains)
        out.append(chain.pop(0))
        chains = [c for c in chains if c]
    return out


def test_construct_matches_reference_on_every_four_option_function():
    outcomes = set()
    for cf in enumerate_choice_functions(ground_of_size(4)):
        report = reveal(cf)
        got = _outcome(_construct, cf, report)
        assert got == _outcome(construct_reference, cf, report), cf.table.tolist()
        outcomes.add(got if isinstance(got, str) else "built")
    assert "built" in outcomes
    assert any(o.startswith("reaction dominance is incomplete") for o in outcomes)


def test_construct_matches_reference_on_balanced_single_peaked_inputs():
    rng = random.Random(24)
    in_band_ties = failures = 0
    for i in range(320):
        n = 5 + i % 9
        cf = evaluate(balanced_single_peaked(rng, ground_of_size(n), rng.randint(2, n // 2)))
        if i % 2:
            cf = reassigned(rng, cf)
        report = reveal(cf)
        got = _outcome(_construct, cf, report)
        assert got == _outcome(construct_reference, cf, report), i
        if isinstance(got, str):
            failures += 1
        else:
            in_band_ties += construct_reference(cf, report)[2]
    assert in_band_ties > 0
    assert failures > 0
