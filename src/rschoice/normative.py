"""Welfare comparisons and the satisfied-freedom menu ranking.

The welfare-improving relation reads welfare off the canonical
(minimal) single-peaked structure: within a type the welfare order is
revealed directly; across types the comparison runs through options
strictly above their type thresholds, where the two orders agree.  Two
classic comparators are provided for contrast: the conservative criterion
(sometimes chosen over / never chosen against, Bernheim-Rangel style) and
the transitive closure of the limited-attention revealed preference
(Masatlioglu-Nakajima-Ozbay style).

Freedom is measured per type: a type's freedom is satisfied in a menu when
the menu contains an option strictly above the type threshold.  Menus are
ranked by the number of satisfied freedoms; the ranking is characterized
by a dominance and a composition axiom, both decided exactly with
witnesses, within the work budget ``MAX_COMPOSITION_WORK``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .axioms import (
    AxiomViolationError,
    AxiomVerdict,
    DEFAULT_VIOLATION_CAP,
    _subset_zeta,
    _verdict,
)
from .core import ChoiceFunction, ChoiceModelError, GroundSet
from .revealed import BinaryRelation, single_deletion_switches
from .structure import RSStructure, SinglePeakedCertificate, certify_single_peaked, minimal_structure


#: Largest composition gate ``check_menu_axioms`` runs, counted as
#: W * (2^n + W * V) for W within-type menus, n options and V distinct
#: scores.  One type scored by the freedom ranking (V = 2) costs 5.0 * 10^7
#: at 12 options (0.4 s, 30 MB peak), 2.0 * 10^8 at 13 (1.5 s, 31 MB) and
#: 8.1 * 10^8 at 14 (5.4 s, 32 MB); four types of 5 options cost 1.3 * 10^8
#: (0.9 s, 96 MB).  Python 3.11, numpy 2.4, one core of a shared machine.
MAX_COMPOSITION_WORK = 300_000_000


class NotSinglePeakedRSCError(ChoiceModelError):
    code = "not-single-peaked-rsc"


class CompositionBudgetError(ChoiceModelError):
    code = "composition-too-large"


@dataclass(frozen=True)
class WelfareReport:
    """The three welfare relations plus a pairwise containment summary."""

    improving: BinaryRelation
    pstar: BinaryRelation
    pr: BinaryRelation
    comparisons: dict[str, dict]

    def to_json(self) -> str:
        doc = {
            "welfare_improving": [[a, b] for a, b in self.improving.pairs()],
            "pstar": [[a, b] for a, b in self.pstar.pairs()],
            "pr": [[a, b] for a, b in self.pr.pairs()],
            "comparisons": self.comparisons,
        }
        return json.dumps(doc, indent=2) + "\n"


def welfare_improving(
    cf: ChoiceFunction,
    transitive_closure: bool = False,
) -> BinaryRelation:
    """Welfare-improving relation from the minimal single-peaked structure.

    x improves on y when either they share a type and x is welfare-better,
    or they differ in type, x sits strictly above its own threshold, and
    some option z of y's type sits strictly above that type's threshold
    with x reaction-better than z and z welfare-better than y.

    The direct two-clause relation is returned by default; pass
    ``transitive_closure=True`` to close it.  The relation only reads
    within-type welfare comparisons and the reaction order, so it does not
    depend on how the synthesis extends the within-type welfare chains.
    """
    try:
        structure, certificate = minimal_structure(cf)
    except AxiomViolationError as exc:
        raise NotSinglePeakedRSCError(
            f"not a single-peaked restriction-sensitive choice: {exc}"
        ) from exc
    return improving_from_structure(structure, certificate, transitive_closure)


def improving_from_structure(
    structure: RSStructure,
    certificate: SinglePeakedCertificate,
    transitive_closure: bool = False,
) -> BinaryRelation:
    ground = structure.ground
    n = ground.size
    r1 = structure.welfare.ranks()
    r2 = structure.reaction_pref.ranks()
    block_of = structure.types.block_of()
    blocks = structure.types.blocks
    threshold_rank = {}
    for b, block in enumerate(blocks):
        threshold_rank[b] = r1[ground.index[certificate.thresholds[block]]]
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
    rel = BinaryRelation(ground, tuple(rows), strict=True)
    return rel.transitive_closure() if transitive_closure else rel


def bernheim_rangel_pstar(cf: ChoiceFunction) -> BinaryRelation:
    """x over y iff x is sometimes chosen with y feasible and y is never
    chosen with x feasible.  Asymmetric by construction.  The options x is
    chosen against are one OR-reduce of the menus where ``cf.table == x``."""
    ground = cf.ground
    n = ground.size
    masks = np.arange(1 << n, dtype=np.int32)
    # bit y: x chosen from some menu containing y
    chosen_against = [
        int(np.bitwise_or.reduce(masks, where=cf.table == x)) & ~(1 << x) for x in range(n)
    ]
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            if (chosen_against[x] >> y) & 1 and not (chosen_against[y] >> x) & 1:
                rows[x] |= 1 << y
    return BinaryRelation(ground, tuple(rows), strict=True)


def masatlioglu_pr(cf: ChoiceFunction) -> BinaryRelation:
    """Transitive closure of: x over y iff removing y from some menu where
    x is chosen changes the choice."""
    base = single_deletion_switches(cf)[0]
    return BinaryRelation(cf.ground, base, strict=True).transitive_closure()


def _containment(name_a: str, rel_a: BinaryRelation, name_b: str, rel_b: BinaryRelation,
                 cap: int = DEFAULT_VIOLATION_CAP) -> dict:
    pa, pb = set(rel_a.pairs()), set(rel_b.pairs())
    return {
        f"{name_a}_minus_{name_b}": sorted(pa - pb)[:cap],
        f"{name_b}_minus_{name_a}": sorted(pb - pa)[:cap],
        f"{name_a}_subset_{name_b}": pa <= pb,
        f"{name_b}_subset_{name_a}": pb <= pa,
    }


def welfare_report(cf: ChoiceFunction, transitive_closure: bool = False) -> WelfareReport:
    improving = welfare_improving(cf, transitive_closure)
    pstar = bernheim_rangel_pstar(cf)
    pr = masatlioglu_pr(cf)
    return WelfareReport(
        improving=improving,
        pstar=pstar,
        pr=pr,
        comparisons={
            "improving_vs_pstar": _containment("improving", improving, "pstar", pstar),
            "improving_vs_pr": _containment("improving", improving, "pr", pr),
        },
    )


# ---------------------------------------------------------------------------
# Freedom: satisfied types and the counting ranking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreedomModel:
    """Structure, its certificate, and the per-type satisfied sets.

    ``satisfied_sets[T]`` lists the options of T strictly welfare-above the
    type threshold; a menu satisfies the freedom embodied by T when it
    meets that set.
    """

    structure: RSStructure
    certificate: SinglePeakedCertificate
    satisfied_sets: dict[tuple[str, ...], tuple[str, ...]]

    @property
    def ground(self) -> GroundSet:
        return self.structure.ground

    def satisfied_masks(self) -> tuple[int, ...]:
        ground = self.ground
        return tuple(
            ground.mask_of(self.satisfied_sets[block])
            for block in self.structure.types.blocks
        )


def freedom_model(structure: RSStructure,
                  certificate: SinglePeakedCertificate | None = None) -> FreedomModel:
    """Build the freedom model; the certificate must verify."""
    if certificate is None:
        certificate = certify_single_peaked(structure)
    if not certificate.verified:
        raise NotSinglePeakedRSCError("structure has no single-peaked certificate")
    ground = structure.ground
    r1 = structure.welfare.ranks()
    satisfied: dict[tuple[str, ...], tuple[str, ...]] = {}
    for block in structure.types.blocks:
        thr = r1[ground.index[certificate.thresholds[block]]]
        satisfied[block] = tuple(name for name in block if r1[ground.index[name]] < thr)
    return FreedomModel(structure, certificate, satisfied)


def freedom_model_from_choice(cf: ChoiceFunction) -> FreedomModel:
    try:
        structure, certificate = minimal_structure(cf)
    except AxiomViolationError as exc:
        raise NotSinglePeakedRSCError(
            f"not a single-peaked restriction-sensitive choice: {exc}"
        ) from exc
    return freedom_model(structure, certificate)


def _as_mask(ground: GroundSet, menu) -> int:
    return menu if isinstance(menu, int) else ground.mask_of(menu)


def freedom_count(model: FreedomModel, menu) -> int:
    """Number of types whose satisfied set meets the menu."""
    mask = _as_mask(model.ground, menu)
    return sum(1 for f in model.satisfied_masks() if f & mask)


def is_richer(model: FreedomModel, menu_a, menu_b) -> str:
    """'richer', 'strictly_richer' or 'not_richer'.

    A is richer than B when every type-freedom unsatisfied in A is also
    unsatisfied in B; strictly when B is not richer back.
    """
    a = _as_mask(model.ground, menu_a)
    b = _as_mask(model.ground, menu_b)
    sats = model.satisfied_masks()
    a_richer = all(f & b == 0 for f in sats if f & a == 0)
    if not a_richer:
        return "not_richer"
    b_richer = all(f & a == 0 for f in sats if f & b == 0)
    return "richer" if b_richer else "strictly_richer"


@dataclass(frozen=True)
class MenuPreference:
    """Complete transitive ranking of all nonempty menus.

    ``scores[mask]`` is the rank value of that menu, any real number;
    higher means more preferred, equal means indifferent.  Entry 0 is
    unused.
    """

    ground: GroundSet
    scores: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(self.scores))
        if len(self.scores) != (1 << self.ground.size):
            raise ValueError("scores must cover every menu mask")

    def prefers(self, menu_a, menu_b) -> bool:
        """Weakly prefers A to B."""
        return (
            self.scores[_as_mask(self.ground, menu_a)]
            >= self.scores[_as_mask(self.ground, menu_b)]
        )


def freedom_ranking(model: FreedomModel) -> MenuPreference:
    """Menus ranked by the number of satisfied freedoms, the set bits of
    the menu's satisfaction signature."""
    sig = _satisfaction_signature(model)
    scores = np.zeros_like(sig)
    for t in range(len(model.structure.types.blocks)):
        scores += (sig >> t) & 1
    return MenuPreference(model.ground, tuple(scores.tolist()))


def _satisfaction_signature(model: FreedomModel) -> np.ndarray:
    """sig[mask] = bitmask over types whose satisfied set meets the menu."""
    ground = model.ground
    size = 1 << ground.size
    sig = np.zeros(size, dtype=np.int64)
    masks = np.arange(size, dtype=np.int64)
    for t, f in enumerate(model.satisfied_masks()):
        sig |= ((masks & f) != 0).astype(np.int64) << t
    return sig


def check_menu_axioms(
    model: FreedomModel,
    pref: MenuPreference,
    cap: int = DEFAULT_VIOLATION_CAP,
) -> tuple[AxiomVerdict, AxiomVerdict]:
    """Check the dominance and composition axioms against a menu ranking.

    Dominance: (strictly) richer menus must be (strictly) weakly preferred,
    and a strict preference between singletons requires strict richness.
    Composition: merging disjoint within-type menus that add real freedom
    preserves the ranking.  Both are decided exactly, over every menu and
    every within-type pair (C, D).

    Both checks gate, then scan: an exact test over all menus at once
    picks the menus (dominance) or (C, D) pairs (composition) that have a
    witness, and only those are scanned, in the order of an ungated scan,
    so the witness lists are the same.  ``pref`` may be any ranking; both
    checks rank its scores as given, and the gates never assume that a
    menu's score is a function of its signature.  On a ranking that
    satisfies both axioms the cost is O(2^n + k 2^k) for dominance with k
    types and O(W 2^n + W^2 V) time in O(W V) memory for composition with
    W within-type menus and V distinct scores; each violating menu or pair
    adds its O(2^n) or O(4^n) scan.  A composition gate W * (2^n + W * V)
    over ``MAX_COMPOSITION_WORK`` raises ``CompositionBudgetError`` once
    the scores are ranked, before either check starts.
    """
    ground = model.ground
    rank = np.unique(np.asarray(pref.scores), return_inverse=True)[1]
    within_count = sum((1 << len(block)) - 1 for block in model.structure.types.blocks)
    work = within_count * ((1 << ground.size) + within_count * (int(rank.max()) + 1))
    if work > MAX_COMPOSITION_WORK:
        raise CompositionBudgetError(
            f"composition gate of {work} steps for {within_count} within-type menus "
            f"is over the budget of {MAX_COMPOSITION_WORK}"
        )
    sig = _satisfaction_signature(model)
    return (
        _verdict("R-Dominance", _dominance_witnesses(ground, sig, rank), cap),
        _verdict("R-Composition", _composition_witnesses(model, sig, rank), cap),
    )


def _dominance_witnesses(ground: GroundSet, sig: np.ndarray,
                         rank: np.ndarray) -> Iterator[tuple]:
    """Menu pairs (A, B) where A is richer but less preferred, then
    singleton pairs ranked strictly without strict richness.

    A is richer than B when B's satisfied types form a subset of A's.  The
    gate ``_dominance_open_menus`` flags the menus A that have some B; the
    O(2^n) scan over B runs for flagged A only, in ascending order.
    """
    for a in _dominance_open_menus(sig, rank):
        a = int(a)
        richer = (sig & ~sig[a]) == 0
        richer[0] = False
        weak_viol = richer & (rank[a] < rank)
        strict = richer & ((sig | sig[a]) != sig)  # B's types strictly inside A's
        strict_viol = strict & (rank[a] <= rank)
        for b in np.flatnonzero(weak_viol | strict_viol):
            kind = "strictly_richer" if strict_viol[b] else "richer"
            yield (ground.menu_key(a), ground.menu_key(int(b)), kind)
    for x in range(ground.size):
        for y in range(ground.size):
            if x == y:
                continue
            a, b = 1 << x, 1 << y
            if rank[a] > rank[b] and not (sig[b] & ~sig[a] == 0 and sig[a] != sig[b]):
                yield (ground.options[x], ground.options[y], "singleton")


def _dominance_open_menus(sig: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Nonempty menus A, ascending, with a nonempty B ranked above A whose
    signature lies inside A's, or ranked level with A and strictly inside.

    top[s] is the highest rank among menus with signature s; a subset-max
    transform over the signature bits turns it into the highest rank with
    signature inside s, and one more pass gives the highest rank strictly
    inside s.  O(2^n + k 2^k) for signatures of k bits.
    """
    size = 1 << int(sig.max()).bit_length()
    top = np.full(size, -1, dtype=np.int64)
    np.maximum.at(top, sig[1:], rank[1:])
    _subset_zeta(top, np.maximum)
    inside = np.full(size, -1, dtype=np.int64)
    bit = 1
    while bit < size:
        below = inside.reshape(-1, 2, bit)
        np.maximum(below[:, 1], top.reshape(-1, 2, bit)[:, 0], out=below[:, 1])
        bit <<= 1
    own = sig[1:]
    return np.flatnonzero((top[own] > rank[1:]) | (inside[own] >= rank[1:])) + 1


def _composition_witnesses(model: FreedomModel, sig: np.ndarray,
                           rank: np.ndarray) -> Iterator[tuple]:
    """Tuples (A, B, C, D): C, D within-type with C weakly above D, nonempty
    A disjoint from C and not richer than C, nonempty B disjoint from D, A
    weakly above B, yet A | C strictly below B | D.

    The gate ``_composition_open_pairs`` streams the (C, D) pairs that
    have some (A, B); the O(4^n) scan over (A, B) runs for those only, one
    A at a time in O(2^n) memory.
    """
    ground = model.ground
    masks = np.arange(1 << ground.size, dtype=np.int64)
    within = sorted(
        sub for tmask in model.structure.types.block_masks() for sub in _submasks(tmask)
    )
    for c, d in _composition_open_pairs(within, masks, sig, rank):
        a_ok = ((masks & c) == 0) & ((sig[c] & ~sig) != 0)  # disjoint, not richer than C
        a_ok[0] = False
        b_idx = np.flatnonzero((masks & d) == 0)[1:]  # nonempty, disjoint from D
        b_rank, bd_rank = rank[b_idx], rank[b_idx | d]
        for a in np.flatnonzero(a_ok):
            for b in b_idx[(rank[a] >= b_rank) & (rank[a | c] < bd_rank)]:
                yield (ground.menu_key(int(a)), ground.menu_key(int(b)),
                       ground.menu_key(c), ground.menu_key(d))


def _composition_open_pairs(within: list[int], masks: np.ndarray, sig: np.ndarray,
                            rank: np.ndarray) -> Iterator[tuple[int, int]]:
    """Within-type pairs (C, D), ascending in C and then in D, with
    rank[D] <= rank[C] and some (A, B) that breaks composition.

    Per within-type menu M = within[i], over score ranks v:

    * lo[i, v], the lowest rank of A | M over nonempty A disjoint from M,
      not richer than M, with rank v (V, past every rank, where none);
    * best[i, v], the highest rank of B | M over nonempty B disjoint from
      M with rank at most v (-1 where none).

    A witness for (C, D) has rank(B) <= rank(A) = v and B | D above A | C,
    so one exists iff best[j, v] > lo[i, v] for some v.  The tables take
    O(W 2^n) time and O(W V) memory for W menus and V distinct ranks; then
    one O(W V) row per C picks its open D.
    """
    n_ranks = int(rank.max()) + 1
    lo = np.full((len(within), n_ranks), n_ranks, dtype=np.int64)
    best = np.full((len(within), n_ranks), -1, dtype=np.int64)
    for i, m in enumerate(within):
        disjoint = (masks & m) == 0
        disjoint[0] = False
        a_idx = np.flatnonzero(disjoint & ((sig[m] & ~sig) != 0))
        np.minimum.at(lo[i], rank[a_idx], rank[a_idx | m])
        b_idx = np.flatnonzero(disjoint)
        np.maximum.at(best[i], rank[b_idx], rank[b_idx | m])
    np.maximum.accumulate(best, axis=1, out=best)
    within_rank = rank[within]
    for i, c in enumerate(within):
        row = (within_rank <= within_rank[i]) & (best > lo[i]).any(axis=1)
        for j in np.flatnonzero(row):
            yield c, within[j]


def _submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def freedom_table_csv(model: FreedomModel) -> str:
    """CSV of n(A) for every menu, ascending bit pattern."""
    ground = model.ground
    scores = freedom_ranking(model).scores
    keys = ground.menu_keys
    lines = ["menu,n"] + [f"{keys[mask]},{scores[mask]}" for mask in range(1, len(keys))]
    return "\n".join(lines) + "\n"
