"""Welfare comparisons and the satisfied-freedom menu ranking.

The welfare-improving relation reads welfare off the canonical
(minimal) single-peaked structure: within a type the welfare order is
revealed directly; across types the comparison runs through options
strictly above their type thresholds, where the two orders agree.  Its
rows are ORs of ``LinearOrder.below`` masks, and the per-type masks of the
options above the thresholds are also the freedom sets.  Two classic
comparators are provided for contrast: the conservative criterion
(sometimes chosen over / never chosen against, Bernheim-Rangel style) and
the transitive closure of the limited-attention revealed preference
(Masatlioglu-Nakajima-Ozbay style).

Freedom is measured per type: a type's freedom is satisfied in a menu when
the menu contains an option strictly above the type threshold.  Menus are
ranked by the number of satisfied freedoms; the ranking is characterized
by a dominance and a composition axiom, both decided exactly with
witnesses, within the work budget ``MAX_COMPOSITION_WORK``.

The freedom layer works on whole subset lattices in numpy.  The satisfaction
signature (an int32 bitmask of satisfied types per menu) and the freedom
scores (int8) are each filled in one doubling pass over the options, the
upper half of the lattice from the lower half.  ``MenuPreference`` keeps its
scores as one read-only array, which ``check_menu_axioms`` ranks directly.
The composition gate's tables come from one sort per block of (M, X) menu
pairs, and its open pairs from one broadcast comparison per block of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .axioms import (
    AxiomViolationError,
    AxiomVerdict,
    DEFAULT_VIOLATION_CAP,
    _subset_zeta,
    _verdict,
)
from .core import ChoiceFunction, ChoiceModelError, GroundSet, _TextTemplate, indented_json, iter_bits
from .revealed import BinaryRelation, _switch_rows, converse
from .structure import RSStructure, SinglePeakedCertificate, certify_single_peaked, minimal_structure


#: Largest composition gate ``check_menu_axioms`` runs, counted as
#: W * (2^n + W * V) for W within-type menus, n options and V distinct
#: scores.  Scored by the freedom ranking, one type costs 5.0 * 10^7 at 12
#: options (0.02 s), 2.0 * 10^8 at 13 (0.05 s, 31 MB peak) and 8.1 * 10^8
#: at 14 (0.18 s, 32 MB); four types of 5 options cost 1.3 * 10^8 (0.2 s,
#: 59 MB) and 22 one-option types 9.2 * 10^7 (1.2 s, 146 MB, most of it
#: ranking the 2^22 scores), the most time per unit: one-option types
#: leave the gate 2^(n-1) cells each.  Python 3.11, numpy 2.4, one core of
#: a shared machine.
MAX_COMPOSITION_WORK = 300_000_000

#: Cells one block of the composition gate holds: (M, X) cells while the
#: tables fill, (C, D, rank) cells while open pairs are picked.  Blocks
#: keep the gate's temporaries near this size, not growing with W or 2^n.
_BLOCK_CELLS = 1 << 15


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
        return indented_json(doc)


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
    return improving_from_structure(*_minimal_or_reject(cf), transitive_closure)


def _minimal_or_reject(cf: ChoiceFunction) -> tuple[RSStructure, SinglePeakedCertificate]:
    """``minimal_structure(cf)``, its failure raised as ``NotSinglePeakedRSCError``."""
    try:
        return minimal_structure(cf)
    except AxiomViolationError as exc:
        raise NotSinglePeakedRSCError(
            f"not a single-peaked restriction-sensitive choice: {exc}"
        ) from exc


def improving_from_structure(
    structure: RSStructure,
    certificate: SinglePeakedCertificate,
    transitive_closure: bool = False,
) -> BinaryRelation:
    """``welfare_improving`` on a certified structure.  Row x is ``within[x]``,
    the members of its type welfare-below x; an x above its threshold ORs in
    ``within[z]`` for each z above its own threshold, in another type and
    reaction-below x."""
    welfare_below, reaction_below = structure.welfare.below(), structure.reaction_pref.below()
    masks = structure.types.block_masks()
    within = [welfare_below[x] & masks[t] for x, t in enumerate(structure.types.block_of())]
    rows = list(within)
    above = _above_thresholds(structure, certificate)
    above_any = sum(above)  # the types are disjoint
    for tmask, up in zip(masks, above):
        for x in iter_bits(up):
            for z in iter_bits(above_any & ~tmask & reaction_below[x]):
                rows[x] |= within[z]
    rel = BinaryRelation(structure.ground, tuple(rows), strict=True)
    return rel.transitive_closure() if transitive_closure else rel


def _above_thresholds(structure: RSStructure, certificate: SinglePeakedCertificate) -> list[int]:
    """Per type, in block order, the mask of its members strictly
    welfare-above the type's threshold."""
    types, below = structure.types, structure.welfare.below()
    thresholds = [structure.ground.index[certificate.thresholds[b]] for b in types.blocks]
    return [mask & ~below[t] & ~(1 << t) for mask, t in zip(types.block_masks(), thresholds)]


#: Menus per block of ``bernheim_rangel_pstar``'s sort: at n = 24 one sort
#: of the whole table would take a 128 MB index array and as much again
#: for the sort's own buffer.
PSTAR_BLOCK = 1 << 16


def bernheim_rangel_pstar(cf: ChoiceFunction) -> BinaryRelation:
    """x over y iff x is sometimes chosen with y feasible and y is never
    chosen with x feasible.  Asymmetric by construction.  The options x is
    chosen against are the OR of the menus choosing x: per block of
    ``PSTAR_BLOCK`` menus (one block up to n = 16), one stable argsort
    groups the menus by choice and one ``reduceat`` ORs each group."""
    ground, table = cf.ground, cf.table
    n = ground.size
    # bit y: x chosen from some menu containing y (bit x is masked off below)
    chosen_against = [0] * n
    for start in range(0, table.size, PSTAR_BLOCK):
        block = table[start:start + PSTAR_BLOCK]
        menus = np.argsort(block, kind="stable")
        picks = block[menus]
        first = np.concatenate(([0], np.flatnonzero(picks[1:] != picks[:-1]) + 1))
        for x, mask in zip(picks[first].tolist(), np.bitwise_or.reduceat(menus, first).tolist()):
            if x >= 0:  # not the empty menu
                # Menus of a block are start plus an offset below start's low bit.
                chosen_against[x] |= start | mask
    against = converse(chosen_against)  # bit y of against[x]: y chosen from a menu holding x
    rows = [row & ~against[x] & ~(1 << x) for x, row in enumerate(chosen_against)]
    return BinaryRelation(ground, tuple(rows), strict=True)


def masatlioglu_pr(cf: ChoiceFunction) -> BinaryRelation:
    """Transitive closure of: x over y iff removing y from some menu where
    x is chosen changes the choice."""
    return BinaryRelation(cf.ground, _switch_rows(cf, after=False), strict=True).transitive_closure()


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
    above = _above_thresholds(structure, certificate)
    satisfied = dict(zip(structure.types.blocks, map(structure.ground.members, above)))
    return FreedomModel(structure, certificate, satisfied)


def freedom_model_from_choice(cf: ChoiceFunction) -> FreedomModel:
    return freedom_model(*_minimal_or_reject(cf))


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


@dataclass(frozen=True, eq=False)
class MenuPreference:
    """Complete transitive ranking of all nonempty menus.

    ``scores[mask]`` is the rank value of that menu, any real number;
    higher means more preferred, equal means indifferent.  Entry 0 is
    unused.  The constructor takes the 2^n scores as a sequence or an
    array and keeps a read-only array copy of a signed or float dtype, so
    that ``scores[mask] + delta`` cannot wrap below zero.  Two preferences
    are equal when their grounds and score values are.
    """

    ground: GroundSet
    scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores)
        if scores.shape != (1 << self.ground.size,):
            raise ValueError("scores must cover every menu mask")
        scores = scores.astype(np.promote_types(scores.dtype, np.int8), copy=False)
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __eq__(self, other):
        if not isinstance(other, MenuPreference):
            return NotImplemented
        return self.ground == other.ground and bool(np.array_equal(self.scores, other.scores))

    def __hash__(self):
        return hash((self.ground, tuple(self.scores.tolist())))

    def prefers(self, menu_a, menu_b) -> bool:
        """Weakly prefers A to B."""
        return bool(
            self.scores[_as_mask(self.ground, menu_a)]
            >= self.scores[_as_mask(self.ground, menu_b)]
        )


def _type_bits(model: FreedomModel) -> list[int]:
    """``bits[i]`` is 1 << t when option i lies in the satisfied set of type
    t, and 0 when it lies in no satisfied set."""
    bits = [0] * model.ground.size
    for t, f in enumerate(model.satisfied_masks()):
        for i in iter_bits(f):
            bits[i] = 1 << t
    return bits


def freedom_ranking(model: FreedomModel) -> MenuPreference:
    """Menus ranked by the number of satisfied freedoms, as ``np.int8``.

    One doubling pass over the options fills the scores: the types are
    disjoint, so score[M | {i}] = score[M] + 1 when i lies in its type's
    satisfied set f and M misses f, and score[M] otherwise.  Over the
    menus M below option i, the ones missing the members of f below i form
    a subcube (those bits 0, the others free), so the + 1 is one strided
    add on a (2,) * i view.  O(2^n) time in 2^n bytes.
    """
    n = model.ground.size
    scores = np.zeros(1 << n, dtype=np.int8)
    below: dict[int, int] = {}  # type bit -> members of its satisfied set below i
    for i, bit in enumerate(_type_bits(model)):
        high = scores[1 << i:2 << i]
        high[...] = scores[:1 << i]
        if bit:
            f = below.get(bit, 0)
            # axis a of the view is option i - 1 - a
            cube = tuple(0 if f >> (i - 1 - a) & 1 else slice(None) for a in range(i))
            high.reshape((2,) * i)[cube] += 1
            below[bit] = f | 1 << i
    return MenuPreference(model.ground, scores)


def _satisfaction_signature(model: FreedomModel) -> np.ndarray:
    """sig[mask] = bitmask over types whose satisfied set meets the menu, as
    ``np.int32`` (at most 24 types), filled in one doubling pass over the
    options: sig[M | {i}] = sig[M] | bits[i] for the menus M below i."""
    bits = _type_bits(model)
    sig = np.zeros(1 << len(bits), dtype=np.int32)
    for i, bit in enumerate(bits):
        np.bitwise_or(sig[:1 << i], bit, out=sig[1 << i:2 << i])
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
    menu's score is a function of its signature.  The signature is built
    once, in int32, and the scores are read from ``pref.scores`` as they
    are.  On a ranking that satisfies both axioms the cost is
    O(2^n + k 2^k) for dominance with k types, and for composition
    O(K log K + W V) time in O(W V) memory, with W within-type menus, V
    distinct scores and K = sum over types T of (3^|T| - 2^|T|) 2^(n - |T|)
    menu pairs (M, X) with M within T and X disjoint from M, at most
    W 2^n / 2.  Each violating menu adds its O(2^n) scan, each C with an
    open D an O(W V) row and each open pair its O(4^n) scan.  A
    composition gate W * (2^n + W * V) over ``MAX_COMPOSITION_WORK``
    raises ``CompositionBudgetError`` before either check starts: when
    W * 2^n alone is over the budget, before the scores are ranked, else
    once they are.
    """
    ground = model.ground
    within_count = sum((1 << len(block)) - 1 for block in model.structure.types.blocks)
    # W * 2^n needs no ranking: a gate it already puts over the budget is
    # refused before the O(2^n log 2^n) ranking runs.
    work = within_count << ground.size
    if work <= MAX_COMPOSITION_WORK:
        rank = np.unique(pref.scores, return_inverse=True)[1]
        work += within_count * within_count * (int(rank.max()) + 1)
    if work > MAX_COMPOSITION_WORK:
        raise CompositionBudgetError(
            f"composition gate of at least {work} steps for {within_count} within-type menus "
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
    for c, d in _composition_open_pairs(model.structure.types.block_masks(), sig, rank):
        a_ok = ((masks & c) == 0) & ((sig[c] & ~sig) != 0)  # disjoint, not richer than C
        a_ok[0] = False
        b_idx = np.flatnonzero((masks & d) == 0)[1:]  # nonempty, disjoint from D
        b_rank, bd_rank = rank[b_idx], rank[b_idx | d]
        for a in np.flatnonzero(a_ok):
            for b in b_idx[(rank[a] >= b_rank) & (rank[a | c] < bd_rank)]:
                yield (ground.menu_key(int(a)), ground.menu_key(int(b)),
                       ground.menu_key(c), ground.menu_key(d))


def _composition_open_pairs(type_masks: tuple[int, ...], sig: np.ndarray,
                            rank: np.ndarray) -> Iterator[tuple[int, int]]:
    """Within-type pairs (C, D), ascending in C and then in D, with
    rank[D] <= rank[C] and some (A, B) that breaks composition.

    A witness for (C, D) has rank(B) <= rank(A) = v and B | D above A | C,
    so one exists iff best[j, v] > lo[i, v] for some v, with the tables of
    ``_composition_tables``.  The rows of C with some open D come first,
    in O(W V) for W menus and V distinct ranks: their lo row falls below
    the best rows, maximized over every D ranked at most C, somewhere.
    One broadcast comparison per block of those rows, of at most
    ``_BLOCK_CELLS`` cells, then picks their open D: O(W V) per open row.
    """
    within, lo, best = _composition_tables(type_masks, sig, rank)
    within_rank = rank[within].astype(lo.dtype)
    order = np.argsort(within_rank, kind="stable")
    last_at_most = np.searchsorted(within_rank[order], within_rank, side="right") - 1
    reach = np.maximum.accumulate(best[order], axis=0)[last_at_most]
    open_rows = np.flatnonzero((reach > lo).any(axis=1))
    # rank-major copies: the test over v is an OR of V contiguous slabs
    lo, best = np.ascontiguousarray(lo.T), np.ascontiguousarray(best.T)
    step = max(1, _BLOCK_CELLS // best.size)
    for start in range(0, len(open_rows), step):
        rows = open_rows[start:start + step]
        open_pairs = (best[:, None, :] > lo[:, rows, None]).any(axis=0)
        open_pairs &= within_rank <= within_rank[rows, None]
        for i, j in zip(*np.nonzero(open_pairs)):
            yield within[rows[i]], within[j]


def _composition_tables(type_masks: tuple[int, ...], sig: np.ndarray,
                        rank: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The within-type menus, ascending, and two tables over them.  Per
    within-type menu M = within[i], over score ranks v:

    * lo[i, v], the lowest rank of A | M over nonempty A disjoint from M,
      not richer than M, with rank v (V, past every rank, where none);
    * best[i, v], the highest rank of B | M over nonempty B disjoint from
      M with rank at most v (-1 where none).

    For M within type T, a menu X disjoint from M splits into a part of
    T \\ M and a part outside T.  With the lattice reordered so that the options of T
    come first, row u holds the menus whose part in T is the u-th subset
    of T, the outside part ascending along the row.  So the cells (M, X)
    of one type are whole rows, u for X and u | M for X | M, one row per
    pair (M, part of X in T), which ``_ternary_pairs`` lists.  A block of
    cells, at most ``_BLOCK_CELLS`` of them, is sorted on (row of M, rank
    of X, rank of X | M), and the first and last cell of each (row, rank
    of X) run give lo and best; the empty X gets a rank of its own, in a
    column dropped at the end.  O(K log K) time for the
    K = sum over types of (3^|T| - 2^|T|) 2^(n - |T|) cells, at most
    W 2^n / 2; the tables take O(W V) memory for W menus and V distinct
    ranks.  The sort keys stay below 2^63 on any input inside
    ``MAX_COMPOSITION_WORK``.
    """
    n = len(rank).bit_length() - 1
    n_ranks = int(rank.max()) + 1
    shift = (n_ranks - 1).bit_length()
    within = sorted(sub for t in type_masks for sub in _submasks(t))
    # column n_ranks collects the cells of the empty X; the tables take the
    # narrowest signed dtype holding -1 and n_ranks
    narrow = np.min_scalar_type(-n_ranks - 1)
    lo = np.full((len(within), n_ranks + 1), n_ranks, dtype=narrow)
    best = np.full((len(within), n_ranks + 1), -1, dtype=narrow)
    # one-byte ranks where they fit: the row gathers stay in cache
    rank = rank.astype(np.min_scalar_type(n_ranks))
    rank[0] = n_ranks
    key_type = np.min_scalar_type(len(within) * (n_ranks + 1) << shift)
    within_arr = np.array(within)
    pending: list[tuple[np.ndarray, np.ndarray]] = []  # (best keys, lo keys) per block
    cells = 0
    for t in type_masks:
        size = bin(t).count("1")
        inside = [n - 1 - b for b in iter_bits(t)]  # cube axis a is option n - 1 - a
        axes = sorted(inside) + sorted(set(range(n)) - set(inside))
        ranks = rank.reshape((2,) * n).transpose(axes).reshape(1 << size, -1)
        # row u of ranks is the u-th subset of T, ascending; for u > 0 that
        # subset is within[in_t[u - 1]]
        in_t = np.flatnonzero((within_arr & ~t) == 0)
        rows = (in_t * (n_ranks + 1)).astype(key_type)
        sig_u = sig[np.concatenate(([0], within_arr[in_t]))]
        # a block: every choice for the low options of T, one for the high
        # ones, over at most _BLOCK_CELLS columns of the outside part
        width = min(ranks.shape[1], _BLOCK_CELLS)
        low = 0
        while low < size and 3 ** (low + 1) * width <= _BLOCK_CELLS:
            low += 1
        pair_m, pair_x = _ternary_pairs(max(low, size - low))
        low_m, low_x = pair_m[:3 ** low], pair_x[:3 ** low]
        for high in zip(pair_m[:3 ** (size - low)].tolist(), pair_x[:3 ** (size - low)].tolist()):
            m, x = low_m | high[0] << low, low_x | high[1] << low
            if not high[0]:
                m, x = m[m != 0], x[m != 0]
            if not m.size:
                continue
            # A is not richer than M when it misses a type M satisfies: sig[M]
            # is 0 or the bit of T, and the part of A outside T sets no bit
            # of T, so the part in T, x, decides
            a = (sig_u[x] & sig_u[m]) != sig_u[m]
            for col in range(0, ranks.shape[1], width):
                cols = slice(col, col + width)
                key = (rows[m - 1, None] + ranks[x, cols]) << shift | ranks[x | m, cols]
                pending.append((key.ravel(), key[a].ravel()))
                cells += key.size
                if cells >= _BLOCK_CELLS:
                    _fold_runs(best, lo, pending, shift)
                    pending, cells = [], 0
    _fold_runs(best, lo, pending, shift)
    best = best[:, :n_ranks]
    np.maximum.accumulate(best, axis=1, out=best)
    return within, np.ascontiguousarray(lo[:, :n_ranks]), best


@lru_cache(maxsize=8)
def _ternary_pairs(digits: int) -> tuple[np.ndarray, np.ndarray]:
    """The 3^digits pairs (m, x) of disjoint subsets of range(digits), as
    two read-only int32 arrays: digit q of a pair's index, in base 3, puts
    q in neither subset (0), in m (1) or in x (2).  The composition gate
    asks for at most about ten digits (3^10 pairs, 0.5 MB) inside
    ``MAX_COMPOSITION_WORK``, so the cache stays small."""
    m, x = np.zeros(3 ** digits, dtype=np.int32), np.zeros(3 ** digits, dtype=np.int32)
    for q in range(digits):
        span = 3 ** q
        m[span:2 * span], x[span:2 * span] = m[:span] | 1 << q, x[:span]
        m[2 * span:3 * span], x[2 * span:3 * span] = m[:span], x[:span] | 1 << q
    m.flags.writeable = x.flags.writeable = False
    return m, x


def _fold_runs(best: np.ndarray, lo: np.ndarray,
               pending: list[tuple[np.ndarray, np.ndarray]], shift: int) -> None:
    """Sort the pending keys, (row, rank of X) above ``shift`` and the rank
    of X | M below it, and fold the last key of each (row, rank) run into
    ``best`` and the first into ``lo``."""
    if not pending:
        return
    for table, part, last in ((best, 0, True), (lo, 1, False)):
        keys = np.concatenate([block[part] for block in pending])
        if not keys.size:
            continue
        keys.sort()
        group = keys >> shift
        edge = group[1:] != group[:-1]
        ends = np.flatnonzero(np.concatenate((edge, [True]) if last else ([True], edge)))
        cells, at = table.reshape(-1), group[ends]
        cells[at] = (np.maximum if last else np.minimum)(cells[at], keys[ends] & ((1 << shift) - 1))


def _submasks(mask: int) -> list[int]:
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


def freedom_table_csv(model: FreedomModel) -> str:
    """CSV of n(A) for every menu, ascending bit pattern: the menu keys
    interleaved with the cell ",n" (newline included) of each menu's
    score, as the choice files are written (``core._TextTemplate``)."""
    scores = freedom_ranking(model).scores
    cells = [f",{v}\n" for v in range(int(scores.max()) + 1)]
    template = _TextTemplate(model.ground.menu_keys, "menu,n\n", cells, cells)
    return next(template.texts(scores[np.newaxis]))
