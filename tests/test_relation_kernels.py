"""The bitmask relation builders against the rank loops they replaced,
kept here as references.

``improving_from_structure`` (direct and closed), the satisfied sets of
``freedom_model`` and ``reaction_characterization`` build their rows from
``LinearOrder.below`` masks.  The welfare builders must return what their
loops returned on every certified structure with 2, 3 and 4 options and
on random single-peaked structures with 5 to 12 options.
``reaction_characterization`` is pinned to the revealed reaction relation
up to 6 options elsewhere; here it meets its loop at 7 to 12 options.
"""

from __future__ import annotations

import random

import pytest

from rschoice.generators import ground_of_size, random_single_peaked_structure, random_structure
from rschoice.normative import freedom_model, improving_from_structure
from rschoice.revealed import BinaryRelation
from rschoice.structure import (
    RSStructure,
    SinglePeakedCertificate,
    certify_single_peaked,
    enumerate_structures,
    reaction_characterization,
)


def improving_reference(s: RSStructure, certificate: SinglePeakedCertificate) -> tuple[int, ...]:
    """Every ordered pair, with a search for z over the members of y's type."""
    ground = s.ground
    n = ground.size
    r1 = s.welfare.ranks()
    r2 = s.reaction_pref.ranks()
    block_of = s.types.block_of()
    blocks = s.types.blocks
    threshold_rank = {b: r1[ground.index[certificate.thresholds[block]]]
                      for b, block in enumerate(blocks)}
    members_of = {b: [ground.index[name] for name in block] for b, block in enumerate(blocks)}
    rows = [0] * n
    for x in range(n):
        bx = block_of[x]
        for y in range(n):
            if x == y:
                continue
            by = block_of[y]
            if bx == by:
                if r1[x] < r1[y]:
                    rows[x] |= 1 << y
                continue
            if r1[x] >= threshold_rank[bx]:
                continue
            for z in members_of[by]:
                if r1[z] < threshold_rank[by] and r2[x] < r2[z] and r1[z] < r1[y]:
                    rows[x] |= 1 << y
                    break
    return tuple(rows)


def satisfied_sets_reference(s: RSStructure, certificate: SinglePeakedCertificate) -> dict:
    """Per type, the members ranked above the threshold's welfare rank."""
    ground = s.ground
    r1 = s.welfare.ranks()
    satisfied = {}
    for block in s.types.blocks:
        thr = r1[ground.index[certificate.thresholds[block]]]
        satisfied[block] = tuple(name for name in block if r1[ground.index[name]] < thr)
    return satisfied


def reaction_characterization_reference(s: RSStructure) -> tuple[int, ...]:
    """Every ordered pair, with a search over every z for one between them."""
    r1 = s.welfare.ranks()
    r2 = s.reaction_pref.ranks()
    block_of = s.types.block_of()
    n = s.ground.size
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if x == y or block_of[x] != block_of[y] or r1[y] >= r1[x]:
                continue
            if any(block_of[z] != block_of[x] and r2[x] < r2[z] < r2[y] for z in range(n)):
                rows[x] |= 1 << y
    return tuple(rows)


def _assert_welfare_builders_match(s: RSStructure, certificate: SinglePeakedCertificate) -> None:
    expected = improving_reference(s, certificate)
    assert improving_from_structure(s, certificate).rows == expected, s
    closed = BinaryRelation(s.ground, expected, strict=True).transitive_closure()
    assert improving_from_structure(s, certificate, transitive_closure=True).rows == closed.rows, s
    assert freedom_model(s, certificate).satisfied_sets == satisfied_sets_reference(s, certificate), s


def test_welfare_builders_match_their_loops_on_every_certified_small_structure():
    certified = 0
    for size in (2, 3, 4):
        for s in enumerate_structures(ground_of_size(size)):
            certificate = certify_single_peaked(s)
            if certificate.verified:
                _assert_welfare_builders_match(s, certificate)
                certified += 1
    assert certified == 8_708  # of the 8 828 structures


@pytest.mark.parametrize("size", range(5, 13))
def test_welfare_builders_match_their_loops_on_random_single_peaked_structures(size):
    rng = random.Random(size)
    ground = ground_of_size(size)
    for _ in range(40):
        s = random_single_peaked_structure(rng, ground)
        certificate = certify_single_peaked(s)
        assert certificate.verified
        _assert_welfare_builders_match(s, certificate)


@pytest.mark.parametrize("size", range(7, 13))
def test_reaction_characterization_matches_its_loop(size):
    rng = random.Random(size)
    ground = ground_of_size(size)
    nonempty = 0
    for make in (random_structure, random_single_peaked_structure) * 20:
        s = make(rng, ground)
        rows = reaction_characterization(s).rows
        assert rows == reaction_characterization_reference(s), s
        nonempty += any(rows)
    assert nonempty
