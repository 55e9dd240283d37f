"""Two-order choice structures: evaluation, synthesis, certification.

An ``RSStructure`` is a partition of the options into types plus two linear
orders: a welfare order and a reaction order.  Choice from a menu is
two-stage: keep the welfare-best available option of each type (the
consideration set), then pick the reaction-best of those.  That rule is
implemented once for a single menu, in ``two_stage_choice``:
``consideration_set`` here, ``media.media_menu_choice`` and
``culture.culture_rsc_consistency`` call it.  ``evaluate`` runs the same
rule on every menu at once: each option writes itself, reaction-worst
first, into the subcube of menus where it survives stage one, in one int8
table laid out like ``ChoiceFunction.table``.

``synthesize_rs`` inverts the model: given a choice function satisfying
Expansion, NRS and IR it constructs a rationalizing structure whose types
are the revealed similarity classes.  One sort per type gives its reaction
order: by how many dissimilar options each member beats, ties by revealed
choice, reversed inside the threshold-to-peak band; the welfare order
merges the per-type revealed chains.  ``certify_single_peaked`` takes the
threshold of each type at the end of the welfare prefix on which the two
orders agree, and checks that the reaction order is single-peaked in the
welfare order below it.
``minimal_structure`` ties both together and cross-checks the canonical
threshold/peak identities against the reaction relation.
``reaction_characterization`` reads the reaction relation a structure
generates off the ``LinearOrder.below`` masks of its two orders.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .axioms import AxiomViolationError, check_exp, check_ir, check_nrs, check_spr
from .core import (
    ChoiceFunction,
    GroundSet,
    GroundSetTooLargeError,
    LinearOrder,
    TypePartition,
    indented_json,
    iter_bits,
    structure_doc,
)
from .revealed import BinaryRelation, RevealedReport, reveal


@dataclass(frozen=True)
class RSStructure:
    """Types plus welfare and reaction orders over one ground set."""

    ground: GroundSet
    types: TypePartition
    welfare: LinearOrder
    reaction_pref: LinearOrder

    def __post_init__(self):
        if self.types.ground is not self.ground and self.types.ground != self.ground:
            raise ValueError("partition ground set mismatch")
        if self.welfare.ground != self.ground or self.reaction_pref.ground != self.ground:
            raise ValueError("order ground set mismatch")


@dataclass(frozen=True)
class SinglePeakedCertificate:
    """Per-type threshold and lower-interval peak, with the verification bit.

    ``thresholds[T]`` is the welfare-minimal option of type ``T`` such that
    the two orders agree weakly above it and the reaction order is
    single-peaked (in the welfare order) weakly below it.  ``peaks[T]`` is
    the reaction-best option of that lower interval.  When ``verified`` is
    false, ``violations`` carries one welfare-ordered triple per failing
    type on which the middle option is reaction-worst.
    """

    thresholds: dict[tuple[str, ...], str]
    peaks: dict[tuple[str, ...], str]
    verified: bool
    violations: tuple[tuple[tuple[str, ...], tuple[str, str, str]], ...] = ()

    def to_dict(self) -> dict:
        return {
            "verified": self.verified,
            "thresholds": {",".join(k): v for k, v in sorted(self.thresholds.items())},
            "peaks": {",".join(k): v for k, v in sorted(self.peaks.items())},
            "violations": [
                {"type": list(block), "triple": list(triple)}
                for block, triple in self.violations
            ],
        }


@dataclass(frozen=True)
class SynthesisTrace:
    """Intermediate objects of the synthesis, enough to replay it.

    ``tie_relation`` lists, per type, the ordered pairs of the reaction
    dominance preorder (x before y when every dissimilar option beaten by y
    is beaten by x).  ``extension_log`` records each welfare-order placement
    as (chosen option, candidates available at that step).
    """

    tie_relation: dict[tuple[str, ...], tuple[tuple[str, str], ...]]
    peak_candidates: dict[tuple[str, ...], str]
    thresholds: dict[tuple[str, ...], str]
    extension_log: tuple[tuple[str, tuple[str, ...]], ...]

    def to_dict(self) -> dict:
        return {
            "tie_relation": {
                ",".join(k): [list(p) for p in v] for k, v in sorted(self.tie_relation.items())
            },
            "peak_candidates": {",".join(k): v for k, v in sorted(self.peak_candidates.items())},
            "thresholds": {",".join(k): v for k, v in sorted(self.thresholds.items())},
            "extension_log": [[chosen, list(cands)] for chosen, cands in self.extension_log],
        }


# ---------------------------------------------------------------------------
# Forward direction: structure -> choices
# ---------------------------------------------------------------------------


def two_stage_choice(chains, reaction_key, menu: int) -> tuple[int, int]:
    """Two-stage choice from a menu bitmask: ``(chosen, consideration_mask)``.

    Each chain lists one type's members welfare-best first.  Stage one keeps
    the first member of each chain present in ``menu``; stage two returns
    the kept member with the largest ``reaction_key[member]``, ties going to
    the earlier chain.  ``chosen`` is -1 when no chain meets the menu.
    """
    chosen, considered = -1, 0
    for chain in chains:
        for member in chain:
            if (menu >> member) & 1:
                considered |= 1 << member
                if chosen < 0 or reaction_key[member] > reaction_key[chosen]:
                    chosen = member
                break
    return chosen, considered


def _kernel_inputs(s: RSStructure) -> tuple[list[list[int]], list[int]]:
    """Type chains (welfare-best first) and reaction keys for ``two_stage_choice``."""
    r1, index = s.welfare.ranks(), s.ground.index
    chains = [sorted((index[x] for x in block), key=r1.__getitem__) for block in s.types.blocks]
    return chains, [-r for r in s.reaction_pref.ranks()]


def consideration_set(s: RSStructure, menu_mask: int) -> int:
    """Mask of the welfare-best available option of each type."""
    return two_stage_choice(*_kernel_inputs(s), menu_mask)[1]


def evaluate(s: RSStructure) -> ChoiceFunction:
    """Total choice function generated by the structure, all menus at once.

    One int8 table of 2^n picks, viewed as ``(2,) * n`` (axis a is option
    n - 1 - a).  Option x survives stage one in the menus that hold x and
    none of the welfare-better members of its type: a subcube, which takes
    x in one basic-indexing assignment.  The options are written
    reaction-worst first, so each menu keeps its reaction-best survivor.
    """
    n, index = s.ground.size, s.ground.index
    table = np.full(1 << n, -1, dtype=np.int8)
    cube, better = table.reshape((2,) * n), [0] * n
    for chain in _kernel_inputs(s)[0]:
        for above, x in zip(chain, chain[1:]):
            better[x] = better[above] | 1 << above
    for x in map(index.__getitem__, reversed(s.reaction_pref.ranking)):
        at = [slice(None)] * n
        for y in iter_bits(better[x]):
            at[n - 1 - y] = 0
        at[n - 1 - x] = 1
        cube[tuple(at)] = x
    return ChoiceFunction(s.ground, table)


def reaction_characterization(s: RSStructure) -> BinaryRelation:
    """Reaction pairs a structure generates, read off the structure itself.

    (x, y) is included iff x and y share a type, y is welfare-better, and
    some option z outside the type sits strictly between them in the
    reaction order: z is in ``outside & below[x] & ~below[y]`` with
    ``below`` the reaction order's masks, empty when y = x.
    """
    welfare_below, below = s.welfare.below(), s.reaction_pref.below()
    rows = [0] * s.ground.size
    for tmask in s.types.block_masks():
        outside = s.ground.full_mask & ~tmask
        for x in iter_bits(tmask):
            for y in iter_bits(tmask & ~welfare_below[x]):
                if outside & below[x] & ~below[y]:
                    rows[x] |= 1 << y
    return BinaryRelation(s.ground, tuple(rows), strict=True)


# ---------------------------------------------------------------------------
# Inverse direction: choices -> structure
# ---------------------------------------------------------------------------


class _ConstructionFailure(Exception):
    """Internal: the constructive steps hit an impossibility."""


def _within_type_ranking(strict_rows: Sequence[int], tmask: int, members: list[int]) -> list[int]:
    """Members sorted welfare-best first by the revealed pairwise tournament.

    The within-type tournament must be transitive (win counts all
    distinct); otherwise the construction fails.
    """
    wins = {m: bin(strict_rows[m] & tmask).count("1") for m in members}
    if len(set(wins.values())) != len(members):
        raise _ConstructionFailure("within-type pairwise choice is intransitive")
    return sorted(members, key=lambda m: -wins[m])


def synthesize_rs(
    cf: ChoiceFunction,
    validate: bool = True,
    report: RevealedReport | None = None,
) -> tuple[RSStructure, SynthesisTrace]:
    """Construct a rationalizing structure for an axiom-clean function.

    Construction, per similarity class T of the revealed reaction relation:

    1. rank T internally by pairwise revealed choice;
    2. the dominance preorder puts x before y iff every option outside T
       beaten by y is also beaten by x.  It is complete (as IR ensures)
       iff these beaten sets form a chain under inclusion, and then x is
       before y iff it beats at least as many options outside T;
    3. the threshold is the revealed-worst option with no outgoing
       reaction; the peak candidate is the revealed-best option weakly
       below it that nothing reacts to;
    4. one stable sort orders T by that count, ties in revealed order,
       reversed inside the threshold-to-peak band;
    5. each member ranks above the members sorted below it and above the
       options outside T it beats by pairwise revealed choice; the
       reaction order sorts all options by how many they rank above;
    6. the welfare order merges the within-type rankings, taking each time
       the ready chain head earliest in the ground set.

    Construction plus ``evaluate(structure) == cf`` is the only validation:
    a structure that regenerates ``cf`` proves Exp, NRS and IR, so no axiom
    checker runs on success.  A failure raises ``AxiomViolationError``; with
    ``validate=True`` it carries the Exp/NRS/IR verdicts, computed only then
    (all three holding is a bug and raises ``AssertionError``).
    """
    if report is None:
        report = reveal(cf)
    try:
        structure, trace = _construct(cf, report)
        if evaluate(structure) == cf:
            return structure, trace
        failure = "synthesized structure does not regenerate its choices"
    except _ConstructionFailure as exc:
        failure = f"construction failed: {exc}"
    if validate:
        _explain_failure(cf, report)
        raise AssertionError(f"{failure}, yet Exp, NRS and IR hold")
    raise AxiomViolationError(failure)


def _explain_failure(cf: ChoiceFunction, report: RevealedReport) -> None:
    """Raise the error naming the failing ones of Exp, NRS and IR, with all
    three verdicts; return when all three hold."""
    classes = report.similarity_classes
    verdicts = [check_exp(cf), check_nrs(cf, classes), check_ir(cf, classes)]
    failing = [v.axiom for v in verdicts if not v.holds]
    if failing:
        raise AxiomViolationError("choice function fails " + ", ".join(failing), verdicts=verdicts)


def _construct(cf: ChoiceFunction, report: RevealedReport) -> tuple[RSStructure, SynthesisTrace]:
    ground = cf.ground
    n = ground.size
    strict_rows = report.strict_pref.rows
    reaction_rows = report.reaction.rows
    classes = report.similarity_classes
    block_masks = classes.block_masks()

    tie_relation: dict[tuple[str, ...], tuple[tuple[str, str], ...]] = {}
    peak_candidates: dict[tuple[str, ...], str] = {}
    thresholds: dict[tuple[str, ...], str] = {}
    order2_above = [0] * n  # bit j set: i ranked above j by the reaction order
    type_chains: list[list[int]] = []

    for block, tmask in zip(classes.blocks, block_masks):
        members = [ground.index[name] for name in block]
        chain = _within_type_ranking(strict_rows, tmask, members)
        type_chains.append(chain)
        rank_in = {m: k for k, m in enumerate(chain)}

        # x dominates y when x beats every option outside T that y beats.
        # The preorder is complete iff these sets form a chain under
        # inclusion, and then x dominates y iff it beats at least as many.
        outs = {m: strict_rows[m] & ~tmask for m in members}
        for x in members:
            for y in members:
                if outs[x] & ~outs[y] and outs[y] & ~outs[x]:
                    raise _ConstructionFailure(
                        "reaction dominance is incomplete on "
                        f"({ground.options[x]}, {ground.options[y]})"
                    )
        size = {m: outs[m].bit_count() for m in members}
        tie_relation[block] = tuple(
            (ground.options[x], ground.options[y])
            for x in members
            for y in members
            if x != y and size[x] >= size[y]
        )

        nonreactors = [m for m in members if reaction_rows[m] == 0]
        if not nonreactors:
            raise _ConstructionFailure(
                f"every option of type {','.join(block)} has an outgoing reaction"
            )
        threshold = max(nonreactors, key=lambda m: rank_in[m])
        # Peak candidate: revealed-best option of the weakly-below-threshold
        # interval that nothing reacts to.  The revealed-worst member of the
        # dominance maximum also qualifies, but breaking band ties toward it
        # would misplace the certificate peak whenever the maximum class has
        # several members; the interval's bottom never has incoming
        # reactions, so the candidate set is nonempty.
        reacted_to = 0
        for m in members:
            reacted_to |= reaction_rows[m] & tmask
        peak_pool = [
            m
            for m in members
            if rank_in[m] >= rank_in[threshold] and not (reacted_to >> m) & 1
        ]
        if not peak_pool:
            # impossible once the axioms hold: reactions then only target
            # revealed-better options, leaving the interval bottom clean
            raise _ConstructionFailure(
                f"every option of the restricted interval of {','.join(block)} "
                "has an incoming reaction"
            )
        peak = min(peak_pool, key=lambda m: rank_in[m])
        peak_candidates[block] = ground.options[peak]
        thresholds[block] = ground.options[threshold]

        # Dominance ties follow revealed choice, reversed inside the
        # threshold-to-peak band; a stable sort keeps that tie order.
        lo, hi = rank_in[threshold], rank_in[peak]
        tie_order = chain[:lo] + chain[lo:hi + 1][::-1] + chain[hi + 1:]
        below = 0
        for m in reversed(sorted(tie_order, key=lambda m: -size[m])):
            order2_above[m] = below | outs[m]  # outs[m] holds the cross-type edges
            below |= 1 << m

    wins2 = [bin(row).count("1") for row in order2_above]
    if sorted(wins2) != list(range(n)):
        raise _ConstructionFailure("the assembled reaction order is intransitive")
    ranking2 = tuple(
        ground.options[i] for i in sorted(range(n), key=lambda i: -wins2[i])
    )

    ranking1, extension_log = _linear_extension(ground, type_chains)

    structure = RSStructure(
        ground=ground,
        types=classes,
        welfare=LinearOrder(ground, ranking1),
        reaction_pref=LinearOrder(ground, ranking2),
    )
    trace = SynthesisTrace(
        tie_relation=tie_relation,
        peak_candidates=peak_candidates,
        thresholds=thresholds,
        extension_log=extension_log,
    )
    return structure, trace


def _linear_extension(
    ground: GroundSet, type_chains: list[list[int]]
) -> tuple[tuple[str, ...], tuple[tuple[str, tuple[str, ...]], ...]]:
    """Merge of the disjoint within-type chains.

    The ready options are the chain heads; the first in ground-set order is
    emitted, and its successor in its chain joins the ready list.
    """
    successor = {a: b for chain in type_chains for a, b in zip(chain, chain[1:])}
    ready = sorted(chain[0] for chain in type_chains)
    out: list[str] = []
    log: list[tuple[str, tuple[str, ...]]] = []
    while ready:
        chosen = ready.pop(0)
        log.append(
            (ground.options[chosen], tuple(ground.options[i] for i in [chosen] + ready))
        )
        out.append(ground.options[chosen])
        if chosen in successor:
            insort(ready, successor[chosen])
    return tuple(out), tuple(log)


# ---------------------------------------------------------------------------
# Single-peaked certification
# ---------------------------------------------------------------------------


def _lower_violation(chain: list[int], r2: list[int], split: int) -> tuple[int, int, int] | None:
    """First welfare-ordered triple of chain[split:] whose middle option is
    reaction-worst, or None.  The chain is welfare-best-first."""
    lower = chain[split:]
    k = len(lower)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                hi, mid, lo = lower[i], lower[j], lower[l]
                if r2[mid] > r2[hi] and r2[mid] > r2[lo]:
                    return hi, mid, lo
    return None


def certify_single_peaked(s: RSStructure) -> SinglePeakedCertificate:
    """The welfare-minimal valid threshold of each type, if any.

    A candidate passes when the two orders agree on the weakly-above
    interval and the reaction order is single-peaked with respect to
    welfare on the weakly-below interval.  The first condition holds down
    to the end of the prefix on which the orders agree, and the second,
    once it holds, holds for every candidate below: so the deepest
    candidate that agrees is the only one to test.
    """
    ground = s.ground
    r2 = s.reaction_pref.ranks()
    thresholds: dict[tuple[str, ...], str] = {}
    peaks: dict[tuple[str, ...], str] = {}
    violations: list[tuple[tuple[str, ...], tuple[str, str, str]]] = []
    for block, chain in zip(s.types.blocks, _kernel_inputs(s)[0]):
        split = next((k for k in range(len(chain) - 1) if r2[chain[k]] > r2[chain[k + 1]]),
                     len(chain) - 1)
        if _lower_violation(chain, r2, split) is None:
            thresholds[block] = ground.options[chain[split]]
            peaks[block] = ground.options[min(chain[split:], key=r2.__getitem__)]
        else:
            triple = _lower_violation(chain, r2, 0)
            violations.append((block, tuple(ground.options[i] for i in triple)))
    return SinglePeakedCertificate(
        thresholds=thresholds,
        peaks=peaks,
        verified=not violations,
        violations=tuple(violations),
    )


def minimal_structure(
    cf: ChoiceFunction,
    validate: bool = True,
) -> tuple[RSStructure, SinglePeakedCertificate]:
    """Synthesize and certify, pinning the canonical threshold identities.

    The certificate's threshold per type must be the revealed-worst option
    with no outgoing reaction, and its peak the revealed-best option weakly
    below it with no incoming reaction.  The synthesis trace reads both off
    the reaction relation, so a mismatch is asserted as a bug.

    Synthesis and certification are the only validation.  A failure raises
    ``AxiomViolationError``; with ``validate=True`` it carries the verdicts
    of SPR if that fails, else of Exp/NRS/IR, computed only then.
    """
    report = reveal(cf)
    try:
        structure, trace = synthesize_rs(cf, validate=False, report=report)
        certificate = certify_single_peaked(structure)
        if not certificate.verified:
            raise AxiomViolationError("structure is not single-peaked")
    except AxiomViolationError as exc:
        if validate:
            verdict = check_spr(cf, report)
            if not verdict.holds:
                raise AxiomViolationError("choice function fails SPR", verdicts=[verdict])
            _explain_failure(cf, report)
            raise AssertionError(f"{exc}, yet SPR, Exp, NRS and IR hold") from exc
        raise
    assert certificate.thresholds == trace.thresholds, "threshold identity failed"
    assert certificate.peaks == trace.peak_candidates, "peak identity failed"
    return structure, certificate


# ---------------------------------------------------------------------------
# Exhaustive helpers (test oracles)
# ---------------------------------------------------------------------------


def enumerate_partitions(ground: GroundSet) -> Iterator[TypePartition]:
    """All set partitions of the ground set (restricted growth strings)."""
    n = ground.size
    assignment = [0] * n

    def rec(pos: int, max_label: int):
        if pos == n:
            yield TypePartition.from_block_of(ground, list(assignment))
            return
        for label in range(max_label + 2):
            assignment[pos] = label
            yield from rec(pos + 1, max(max_label, label))

    yield from rec(1, 0)


def enumerate_structures(ground: GroundSet) -> Iterator[RSStructure]:
    """Every structure on a small ground set; |X| <= 4 guard."""
    from itertools import permutations

    if ground.size > 4:
        raise GroundSetTooLargeError("exhaustive structure enumeration capped at |X| <= 4")
    perms = [tuple(p) for p in permutations(ground.options)]
    for types in enumerate_partitions(ground):
        for w in perms:
            for r in perms:
                yield RSStructure(
                    ground=ground,
                    types=types,
                    welfare=LinearOrder(ground, w),
                    reaction_pref=LinearOrder(ground, r),
                )


def synthesis_report_json(structure: RSStructure, certificate: SinglePeakedCertificate,
                          trace: SynthesisTrace) -> str:
    doc = {
        "structure": structure_doc(structure),
        "certificate": certificate.to_dict(),
        "trace": trace.to_dict(),
    }
    return indented_json(doc)
