"""Seeded inputs for the benchmark workloads.

Every generator draws from a ``random.Random`` that the caller seeds, so
one seed always yields the same inputs.  Nothing here imports rschoice:
the answers the oracles compare against (the choice table a structure
generates, the culture rest point, the media crossing prior) are computed
here, independently of the library under test.

The library's own ``random_single_peaked_structure`` cuts a type at each
gap with probability 1/2, which leaves few reaction pairs and idles the
per-type code; ``single_peaked_structure`` instead takes the number of
types, splits the options into types of balanced size and draws orders
that reveal many reactions.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np


class Structure(NamedTuple):
    """Types plus welfare and reaction orders, as option positions.

    Both orders are listed best-first.
    """

    types: list[list[int]]
    welfare: list[int]
    reaction: list[int]


def balanced_sizes(n: int, k: int) -> list[int]:
    """Split ``n`` options into ``k`` type sizes that differ by at most one."""
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


def merge_chains(rng: random.Random, chains: list[list[int]]) -> list[int]:
    """Random interleaving that keeps the order of every chain.

    Chains may share elements; an element is placed once it heads every
    chain that contains it.
    """
    chains = [list(c) for c in chains if c]
    owners: dict[int, int] = {}
    for chain in chains:
        for x in chain:
            owners[x] = owners.get(x, 0) + 1
    out: list[int] = []
    while chains:
        heads: dict[int, int] = {}
        for chain in chains:
            heads[chain[0]] = heads.get(chain[0], 0) + 1
        ready = sorted(x for x, count in heads.items() if count == owners[x])
        pick = ready[rng.randrange(len(ready))]
        out.append(pick)
        chains = [c[1:] if c[0] == pick else c for c in chains]
        chains = [c for c in chains if c]
    return out


def single_peaked_structure(rng: random.Random, n: int, k: int) -> Structure:
    """Structure with ``k`` types whose reaction order is single-peaked.

    Per type a threshold is drawn in the welfare-better half of the type;
    above it the reaction order copies welfare, below it the order is a
    random fold of the welfare line, so every suffix is a welfare
    interval.  The fold takes the welfare-best end with probability 0.9,
    which mostly reverses the lower interval: the reversals, with options
    of other types between them, are what reveals reactions and makes the
    revealed classes follow the types.
    """
    options = list(range(n))
    rng.shuffle(options)
    welfare = list(range(n))
    rng.shuffle(welfare)
    rank = {o: r for r, o in enumerate(welfare)}
    types: list[list[int]] = []
    chains: list[list[int]] = []
    start = 0
    for size in balanced_sizes(n, k):
        block = sorted(options[start:start + size])
        start += size
        types.append(block)
        line = sorted(block, key=rank.__getitem__)
        split = rng.randrange((len(line) + 1) // 2)
        lower = line[split:]
        worst_first = []
        while lower:
            worst_first.append(lower.pop(0) if rng.random() < 0.9 else lower.pop())
        chains.append(merge_chains(rng, [line[:split + 1], worst_first[::-1]]))
    return Structure(types, welfare, merge_chains(rng, chains))


def relabel(s: Structure, perm: list[int]) -> Structure:
    """The same structure with option ``o`` renamed ``perm[o]``."""
    return Structure([sorted(perm[o] for o in block) for block in s.types],
                     [perm[o] for o in s.welfare], [perm[o] for o in s.reaction])


def two_stage_table(n: int, s: Structure) -> list[int]:
    """Choice table of a structure: per type the welfare-best available
    option, then the reaction-best of those.  Entry 0 is -1."""
    masks = np.arange(1 << n)
    welfare_rank = np.empty(n, dtype=np.int64)
    welfare_rank[s.welfare] = np.arange(n)
    reaction_rank = np.empty(n, dtype=np.int64)
    reaction_rank[s.reaction] = np.arange(n)
    best = np.full(1 << n, -1, dtype=np.int64)
    best_rank = np.full(1 << n, n, dtype=np.int64)
    for block in s.types:
        pick = np.full(1 << n, -1, dtype=np.int64)
        for option in sorted(block, key=lambda o: -welfare_rank[o]):
            pick = np.where((masks >> option) & 1 == 1, option, pick)
        pick_rank = np.where(pick >= 0, reaction_rank[np.maximum(pick, 0)], n)
        better = pick_rank < best_rank
        best = np.where(better, pick, best)
        best_rank = np.where(better, pick_rank, best_rank)
    return best.tolist()


def members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def reassign_menus(rng: random.Random, table: list[int], n: int, share: float) -> int:
    """Give about ``share`` of the menus a different member as choice."""
    candidates = [m for m in range(1, 1 << n) if m & (m - 1)]
    picked = rng.sample(candidates, round(share * ((1 << n) - 1)))
    for mask in picked:
        table[mask] = rng.choice([i for i in members(mask) if i != table[mask]])
    return len(picked)


def plant_exp_violation(rng: random.Random, table: list[int], n: int) -> tuple[int, int, int]:
    """Make x = c{x,a} = c{x,b} but c{x,a,b} = a, an Expansion violation.

    Returns the three menus (A, B, A | B).
    """
    beaten = {x: [y for y in range(n) if y != x and table[(1 << x) | (1 << y)] == x]
              for x in range(n)}
    x = rng.choice([x for x in range(n) if len(beaten[x]) >= 2])
    a, b = rng.sample(beaten[x], 2)
    union = (1 << x) | (1 << a) | (1 << b)
    table[union] = a
    return (1 << x) | (1 << a), (1 << x) | (1 << b), union


def exp_candidate_pairs(table: list[int], n: int) -> int:
    """Menu pairs the Expansion scan considers: sum over x of C(m_x, 2),
    where m_x counts the menus choosing x."""
    chosen = np.bincount(np.asarray(table[1:]), minlength=n)
    return int((chosen * (chosen - 1) // 2).sum())


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------


def transmission_value(g: float, g_hat: float, v_hat: float, lambda_r: float) -> float:
    return v_hat if g <= g_hat else v_hat * (g / g_hat) ** lambda_r


def culture_rest_point(p: dict) -> float:
    """Interior rest point q* = (V(g)/g) / (V(1) + V(g)/g)."""
    vg = transmission_value(p["g"], p["g_hat"], p["v_hat"], p["lambda_r"]) / p["g"]
    return vg / (p["v_hat"] + vg)


def culture_params(rng: random.Random) -> dict:
    """Culture parameters whose rest point is the interior q*.

    Rejection-samples until both sides' efforts are interior at q* (so
    the dynamics settle there) and the minority effort is interior at the
    reactance threshold for the initial share (so the consistency check
    can bracket its policy grid).
    """
    while True:
        p = {
            "beta": 1.5 + rng.random() * 1.5,
            "g_hat": 1.5 + rng.random(),
            "v_hat": 1.5 + rng.random() * 1.5,
            "lambda_r": 1.2 + rng.random() * 1.3,
            "g": 1.0 + rng.random() * 3.0,
            "q0": 0.1 + rng.random() * 0.5,
        }
        beta, g, g_hat, v_hat = p["beta"], p["g"], p["g_hat"], p["v_hat"]
        q = culture_rest_point(p)
        value = transmission_value(g, g_hat, v_hat, p["lambda_r"])
        minority = ((1 - q) / beta * value / g) ** (1 / (beta - 1))
        majority = (q / beta * v_hat) ** (1 / (beta - 1))
        at_threshold = ((1 - p["q0"]) / beta * v_hat / g_hat) ** (1 / (beta - 1))
        if (minority < (1 / g) ** (1 / beta) and majority < 1.0
                and at_threshold < (1 / g_hat) ** (1 / beta)):
            return p


def grid(lo: float, hi: float, count: int) -> list[float]:
    """Inclusive grid, spelled ``LO:HI:N`` on the command line."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def media_ranges(rng: random.Random) -> tuple[tuple[float, float], tuple[float, float]]:
    """(lambda range, prior range) inside the model's open domain."""
    lam_lo = 0.51 + 0.05 * rng.random()
    lam_hi = lam_lo + 0.10 + 0.08 * rng.random()
    p_lo = 0.02 + 0.05 * rng.random()
    p_hi = 0.45 + 0.04 * rng.random()
    return (lam_lo, lam_hi), (p_lo, p_hi)


def media_pstar(lam: float) -> float:
    """Prior at which the extreme opposite source overtakes the moderate
    own-biased one in the reduced menu."""
    return 0.5 / (2.5 - 2.0 * lam)
