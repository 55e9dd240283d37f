"""Two-order choice structures: evaluation, synthesis, certification.

An ``RSStructure`` is a partition of the options into types plus two linear
orders: a welfare order and a reaction order.  Choice from a menu is
two-stage: keep the welfare-best available option of each type (the
consideration set), then pick the reaction-best of those.  That rule is
implemented once for a single menu, in ``two_stage_choice``:
``consideration_set`` here, ``media.media_menu_choice`` and
``culture.culture_rsc_consistency`` call it.  ``evaluate`` runs the same
rule on every menu at once, in masked numpy passes per type chain over an
int8 table laid out like ``ChoiceFunction.table``.

``synthesize_rs`` inverts the model: given a choice function satisfying
Expansion, NRS and IR it constructs a rationalizing structure whose types
are the revealed similarity classes.  ``certify_single_peaked`` searches
each type for a threshold above which the two orders agree and below which
the reaction order is single-peaked in the welfare order.
``minimal_structure`` ties both together and cross-checks the canonical
threshold/peak identities against the reaction relation.
"""

from __future__ import annotations

import json
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

    ``two_stage_choice`` over whole-table arrays: per type chain, stage one
    writes the chain's members into every menu containing them, welfare-worst
    first, so the welfare-best member present is left; stage two keeps it
    where its reaction key beats the best key so far.
    """
    chains, keys = _kernel_inputs(s)
    n = s.ground.size
    chosen = np.full(1 << n, -1, dtype=np.int8)
    best = np.full(1 << n, -n, dtype=np.int8)  # below every key -(n-1)..0
    kept, kept_key = np.empty_like(chosen), np.empty_like(best)
    for chain in chains:
        kept.fill(-1)
        kept_key.fill(-n)
        for member in reversed(chain):
            kept.reshape(-1, 2, 1 << member)[:, 1] = member
            kept_key.reshape(-1, 2, 1 << member)[:, 1] = keys[member]
        np.copyto(chosen, kept, where=kept_key > best)
        np.maximum(best, kept_key, out=best)
    return ChoiceFunction._from_table(s.ground, chosen)


def reaction_characterization(s: RSStructure) -> BinaryRelation:
    """Reaction pairs a structure generates, read off the structure itself.

    (x, y) is included iff x and y share a type, y is welfare-better, and
    some option z outside the type sits strictly between them in the
    reaction order.
    """
    ground = s.ground
    r1 = s.welfare.ranks()
    r2 = s.reaction_pref.ranks()
    block_of = s.types.block_of()
    n = ground.size
    rows = [0] * n
    for x in range(n):
        for y in range(n):
            if x == y or block_of[x] != block_of[y] or r1[y] >= r1[x]:
                continue
            if any(
                block_of[z] != block_of[x] and r2[x] < r2[z] < r2[y]
                for z in range(n)
            ):
                rows[x] |= 1 << y
    return BinaryRelation(ground, tuple(rows), strict=True)


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
    2. build the dominance preorder: x before y iff every option outside T
       beaten by y is also beaten by x (complete when IR holds);
    3. the threshold is the revealed-worst option with no outgoing
       reaction; the peak candidate is the revealed-best option weakly
       below it that nothing reacts to;
    4. ties in the dominance preorder are broken by revealed choice,
       reversed inside the threshold-to-peak band;
    5. the reaction order glues the per-type tie-broken orders (within a
       type) to pairwise revealed choice (across types);
    6. the welfare order is a deterministic linear extension (topological,
       ties to the earlier ground-set position) of the within-type rankings.

    With ``validate=True`` the Expansion/NRS/IR verdicts are computed first
    and an ``AxiomViolationError`` carries them on failure; construction
    trouble after a clean validation is a bug and raises ``AssertionError``.
    With ``validate=False`` any construction impossibility or a failed
    regeneration check raises ``AxiomViolationError`` without verdicts.
    """
    ground = cf.ground
    if report is None:
        report = reveal(cf)
    classes = report.similarity_classes

    if validate:
        verdicts = [
            check_exp(cf),
            check_nrs(cf, classes),
            check_ir(cf, classes),
        ]
        failing = [v for v in verdicts if not v.holds]
        if failing:
            raise AxiomViolationError(
                "choice function fails " + ", ".join(v.axiom for v in failing),
                verdicts=verdicts,
            )

    try:
        structure, trace = _construct(cf, report)
    except _ConstructionFailure as exc:
        if validate:
            raise AssertionError(f"construction failed after clean validation: {exc}") from exc
        raise AxiomViolationError(f"construction failed: {exc}") from exc

    if evaluate(structure).choices != cf.choices:
        if validate:
            raise AssertionError("synthesized structure does not regenerate its choices")
        raise AxiomViolationError("synthesized structure does not regenerate its choices")
    return structure, trace


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
        outside = ~tmask

        dominates = {}  # pair -> bool, under the preorder
        for x in members:
            outs_x = strict_rows[x] & outside
            for y in members:
                outs_y = strict_rows[y] & outside
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
                    inside_band = band_lo <= rank_in[hi] and rank_in[lo] <= band_hi
                    if inside_band:
                        order2_above[lo] |= 1 << hi
                    else:
                        order2_above[hi] |= 1 << lo

    block_of = classes.block_of()
    for x in range(n):
        for y in iter_bits(strict_rows[x]):
            if block_of[x] != block_of[y]:
                order2_above[x] |= 1 << y

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
    """Topological extension of the disjoint within-type chains.

    Ready options are emitted best-first; ties go to the earlier ground-set
    position.
    """
    n = ground.size
    successor = [-1] * n
    in_deg = [0] * n
    for chain in type_chains:
        for a, b in zip(chain, chain[1:]):
            successor[a] = b
            in_deg[b] += 1
    ready = [i for i in range(n) if in_deg[i] == 0]
    out: list[str] = []
    log: list[tuple[str, tuple[str, ...]]] = []
    while ready:
        chosen = ready.pop(0)
        log.append(
            (ground.options[chosen], tuple(ground.options[i] for i in [chosen] + ready))
        )
        out.append(ground.options[chosen])
        nxt = successor[chosen]
        if nxt != -1:
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                ready.append(nxt)
                ready.sort()
    if len(out) != n:
        raise _ConstructionFailure("welfare extension left a cycle")
    return tuple(out), tuple(log)


# ---------------------------------------------------------------------------
# Single-peaked certification
# ---------------------------------------------------------------------------


def _upper_agrees(chain: list[int], r2: list[int], split: int) -> bool:
    """True when the reaction order matches welfare on chain[:split+1]."""
    return all(r2[chain[k]] < r2[chain[k + 1]] for k in range(split))


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
    """Search each type for a valid threshold, welfare-minimal if any.

    A candidate passes when the two orders agree on the weakly-above
    interval and the reaction order is single-peaked with respect to
    welfare on the weakly-below interval.  Candidates are tried from the
    welfare-minimum upward so the reported threshold is the deepest valid
    one; only existence is required for verification.
    """
    ground = s.ground
    r2 = s.reaction_pref.ranks()
    thresholds: dict[tuple[str, ...], str] = {}
    peaks: dict[tuple[str, ...], str] = {}
    violations: list[tuple[tuple[str, ...], tuple[str, str, str]]] = []
    for block, chain in zip(s.types.blocks, _kernel_inputs(s)[0]):
        found = False
        for split in range(len(chain) - 1, -1, -1):
            if not _upper_agrees(chain, r2, split):
                continue
            if _lower_violation(chain, r2, split) is None:
                thresholds[block] = ground.options[chain[split]]
                lower = chain[split:]
                peaks[block] = ground.options[min(lower, key=r2.__getitem__)]
                found = True
                break
        if not found:
            triple = _lower_violation(chain, r2, 0)
            assert triple is not None, "threshold at the welfare top cannot fail otherwise"
            violations.append(
                (block, tuple(ground.options[i] for i in triple))
            )
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

    The emitted certificate's threshold per type must equal the
    revealed-worst option with no outgoing reaction, and its peak the
    revealed-best option of the weakly-below-threshold interval with no
    incoming reaction.  The synthesis trace records exactly these
    (``thresholds``, ``peak_candidates``, read off the reaction relation),
    so both identities are asserted against it (a mismatch is a bug, not
    an input error).
    """
    report = reveal(cf)
    if validate:
        verdict = check_spr(cf, report)
        if not verdict.holds:
            raise AxiomViolationError(
                "choice function fails SPR", verdicts=[verdict]
            )
    structure, trace = synthesize_rs(cf, validate=validate, report=report)
    certificate = certify_single_peaked(structure)
    if not certificate.verified:
        if validate:
            raise AssertionError("certification failed on an SPR-clean function")
        raise AxiomViolationError("structure is not single-peaked")
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
    return json.dumps(doc, indent=2) + "\n"
