"""Axiom checkers over total choice functions.

Four behavioral axioms are decided with explicit violation witnesses:

* Expansion: chosen in A and in B implies chosen in A | B;
* No-Reaction Similarity (NRS): pairwise choice is transitive inside one
  similarity class;
* Independent Reaction (IR): reactions toward an option do not depend on
  which dissimilar options are feasible;
* Single-Peaked Reaction (SPR): the propensity to react grows monotonically
  as better same-class options disappear, up to a peak.

IIA is also available as plumbing.  Every verdict lists violations in a
deterministic smallest-index-first order, capped at ``DEFAULT_VIOLATION_CAP``.
A transitive-shortlist evaluator (two-rationale sequential maximization)
generates the counterexample fixtures showing shortlist choice escapes
NRS and SPR.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from .core import ChoiceFunction, ChoiceModelError, GroundSet, TypePartition, iter_bits
from .revealed import BinaryRelation, RevealedReport

DEFAULT_VIOLATION_CAP = 16


class AxiomViolationError(ChoiceModelError):
    """Raised by operations that require axiom-clean input."""

    code = "axiom-violation"

    def __init__(self, message: str, verdicts=None, **details):
        super().__init__(message, **details)
        self.verdicts = verdicts or []


class NotSingleValuedError(ChoiceModelError):
    code = "not-single-valued"


class InvalidRationaleError(ChoiceModelError):
    code = "invalid-rationale"


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one axiom check.

    ``violations`` holds witness tuples instantiating the axiom's
    quantifiers (option labels, or canonical menu keys for menu-level
    axioms).  ``holds`` is true iff no violation exists; ``truncated``
    flags that the cap cut the list short.
    """

    axiom: str
    holds: bool
    violations: tuple[tuple, ...] = field(default_factory=tuple)
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
            "truncated": self.truncated,
        }


def _verdict(axiom: str, witnesses: Iterator[tuple], cap: int) -> AxiomVerdict:
    """Verdict from a witness stream: the first ``cap`` witnesses, and
    ``truncated`` when one more exists.  A witness past the cap still
    refutes the axiom.  Witness streams are finite, so a cap of
    ``sys.maxsize`` or more, past ``islice``'s range, reads the whole stream."""
    if cap < 0:
        raise ValueError(f"violation cap must be nonnegative, got {cap}")
    items = list(islice(witnesses, cap + 1 if cap < sys.maxsize else None))
    return AxiomVerdict(axiom, not items, tuple(items[:cap]), len(items) > cap)


def check_exp(cf: ChoiceFunction, cap: int = DEFAULT_VIOLATION_CAP) -> AxiomVerdict:
    """Expansion: x = c(A) = c(B) implies x = c(A | B).

    Gate, then scan, one chosen option x at a time.  The menus choosing x
    form a family F_x, and Expansion fails inside F_x exactly when F_x is
    not closed under union.  A family with more menu pairs than the n * 2^n
    steps of a subset-OR transform (``_union_closed``, O(2^n) memory) is
    first tested for closure, and a closed family is skipped.  Every other
    family is scanned pair by pair, O(|F_x|^2), which lists the witnesses
    in the same order as an ungated scan; pairs whose union equals one of
    them hold trivially.  On a clean input the cost is O(n^2 * 2^n) where
    the ungated scan took O(4^n).
    """
    return _verdict("Exp", _exp_witnesses(cf), cap)


def _exp_witnesses(cf: ChoiceFunction) -> Iterator[tuple]:
    ground = cf.ground
    choices = cf.choices
    by_chosen: list[list[int]] = [[] for _ in range(ground.size)]
    for mask in range(1, ground.full_mask + 1):
        by_chosen[choices[mask]].append(mask)
    transform_steps = ground.size << ground.size
    for x, menus in enumerate(by_chosen):
        if len(menus) * (len(menus) - 1) // 2 > transform_steps:
            if _union_closed(cf.table, x):
                continue
        for ai in range(len(menus)):
            a = menus[ai]
            for bi in range(ai + 1, len(menus)):
                b = menus[bi]
                union = a | b
                if union == a or union == b:
                    continue
                got = choices[union]
                if got != x:
                    yield (
                        ground.menu_key(a),
                        ground.menu_key(b),
                        ground.options[x],
                        ground.options[got],
                    )


def _union_closed(table: np.ndarray, x: int) -> bool:
    """Whether the menus choosing ``x`` are closed under union.

    ``table[mask]`` is the chosen position.  A subset-OR (zeta) transform,
    one pass per bit, gives span[M], the union of the menus inside M that
    choose x.  The family is closed iff c(span[M]) = x wherever span[M] is
    nonempty: a failing pair A, B shows at M = A | B, and a closed family
    contains every such union.
    """
    span = np.where(table == x, np.arange(table.size, dtype=np.int32), 0)
    _subset_zeta(span, np.bitwise_or)
    span = span[span != 0]
    return bool((table[span] == x).all())


def _subset_zeta(values: np.ndarray, op: np.ufunc) -> None:
    """Yates' subset (zeta) transform in place over a 2^k array: values[s]
    becomes ``op`` folded over values[t] for every t inside s.  One pass
    per bit, k 2^(k-1) applications of ``op``."""
    bit = 1
    while bit < values.size:
        half = values.reshape(-1, 2, bit)
        op(half[:, 1], half[:, 0], out=half[:, 1])
        bit <<= 1


def check_nrs(
    cf: ChoiceFunction, classes: TypePartition, cap: int = DEFAULT_VIOLATION_CAP
) -> AxiomVerdict:
    """NRS: within one similarity class, pairwise choice is transitive."""
    return _verdict("NRS", _nrs_witnesses(cf, classes), cap)


def _nrs_witnesses(cf: ChoiceFunction, classes: TypePartition) -> Iterator[tuple]:
    ground = cf.ground
    choices = cf.choices
    idx = ground.index
    for block in classes.blocks:
        members = [idx[name] for name in block]
        for x in members:
            for y in members:
                if y == x or choices[(1 << x) | (1 << y)] != x:
                    continue
                for z in members:
                    if z == x or z == y:
                        continue
                    if choices[(1 << y) | (1 << z)] != y:
                        continue
                    if choices[(1 << x) | (1 << z)] != x:
                        yield (ground.options[x], ground.options[y], ground.options[z])


def check_ir(
    cf: ChoiceFunction, classes: TypePartition, cap: int = DEFAULT_VIOLATION_CAP
) -> AxiomVerdict:
    """IR: x = c{x,z}, z = c{y,z}, y = c{y,t} force x = c{x,t}.

    Scans quadruples with x, y similar and z, t outside their class.
    """
    return _verdict("IR", _ir_witnesses(cf, classes), cap)


def _ir_witnesses(cf: ChoiceFunction, classes: TypePartition) -> Iterator[tuple]:
    ground = cf.ground
    choices = cf.choices
    n = ground.size
    block_of = classes.block_of()
    for x in range(n):
        bx = block_of[x]
        for y in range(n):
            if y == x or block_of[y] != bx:
                continue
            for z in range(n):
                if block_of[z] == bx:
                    continue
                if choices[(1 << x) | (1 << z)] != x:
                    continue
                if choices[(1 << y) | (1 << z)] != z:
                    continue
                for t in range(n):
                    if block_of[t] == bx:
                        continue
                    if choices[(1 << y) | (1 << t)] != y:
                        continue
                    if choices[(1 << x) | (1 << t)] != x:
                        yield (
                            ground.options[x],
                            ground.options[y],
                            ground.options[z],
                            ground.options[t],
                        )


def check_spr(
    cf: ChoiceFunction, report: RevealedReport, cap: int = DEFAULT_VIOLATION_CAP
) -> AxiomVerdict:
    """SPR: along a within-class chain x over y over z with x reacting to
    something and z reacting to the absence of y, every dissimilar option u
    beaten by x must also be beaten by y.  Witness records the failing u.
    """
    return _verdict("SPR", _spr_witnesses(cf, report), cap)


def _spr_witnesses(cf: ChoiceFunction, report: RevealedReport) -> Iterator[tuple]:
    ground = cf.ground
    choices = cf.choices
    n = ground.size
    classes = report.similarity_classes
    block_of = classes.block_of()
    reacts = [row != 0 for row in report.reaction.rows]
    reaction_rows = report.reaction.rows
    for block in classes.blocks:
        members = [ground.index[name] for name in block]
        if len(members) < 3:
            continue
        bx = block_of[members[0]]
        outside = [u for u in range(n) if block_of[u] != bx]
        for x in members:
            if not reacts[x]:
                continue
            for y in members:
                if y == x or choices[(1 << x) | (1 << y)] != x:
                    continue
                for z in members:
                    if z == x or z == y:
                        continue
                    if choices[(1 << y) | (1 << z)] != y:
                        continue
                    if not (reaction_rows[z] >> y) & 1:
                        continue
                    for u in outside:
                        if choices[(1 << x) | (1 << u)] != x:
                            continue
                        if choices[(1 << y) | (1 << u)] != y:
                            yield (
                                ground.options[x],
                                ground.options[y],
                                ground.options[z],
                                ground.options[u],
                            )


def check_iia(cf: ChoiceFunction, cap: int = DEFAULT_VIOLATION_CAP) -> AxiomVerdict:
    """IIA: removing unchosen options never changes the choice."""
    return _verdict("IIA", _iia_witnesses(cf), cap)


def _iia_witnesses(cf: ChoiceFunction) -> Iterator[tuple]:
    ground = cf.ground
    choices = cf.choices
    for mask in range(1, ground.full_mask + 1):
        chosen = choices[mask]
        bit = 1 << chosen
        sub = (mask - 1) & mask
        while sub:
            if sub & bit and choices[sub] != chosen:
                yield (ground.menu_key(mask), ground.menu_key(sub))
            sub = (sub - 1) & mask


def check_all(cf: ChoiceFunction, report: RevealedReport | None = None,
              cap: int = DEFAULT_VIOLATION_CAP) -> list[AxiomVerdict]:
    """All five verdicts (Exp, NRS, IR, SPR, IIA) in one pass."""
    from .revealed import reveal

    if report is None:
        report = reveal(cf)
    classes = report.similarity_classes
    return [
        check_exp(cf, cap),
        check_nrs(cf, classes, cap),
        check_ir(cf, classes, cap),
        check_spr(cf, report, cap),
        check_iia(cf, cap),
    ]


# ---------------------------------------------------------------------------
# Transitive shortlist choice (two-rationale sequential maximization)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TSMSpec:
    """Two strict partial orders applied in sequence.

    Pair lists are closed transitively on construction; a cycle in either
    rationale raises ``InvalidRationaleError``.
    """

    ground: GroundSet
    p1: tuple[tuple[str, str], ...]
    p2: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "p1", tuple(tuple(p) for p in self.p1))
        object.__setattr__(self, "p2", tuple(tuple(p) for p in self.p2))

    def _closed_rows(self, pairs: tuple[tuple[str, str], ...], name: str) -> tuple[int, ...]:
        idx = self.ground.index
        rows = [0] * self.ground.size
        for a, b in pairs:
            rows[idx[a]] |= 1 << idx[b]
        closed = BinaryRelation(self.ground, tuple(rows), strict=False).transitive_closure()
        for i, row in enumerate(closed.rows):
            if (row >> i) & 1:
                raise InvalidRationaleError(f"rationale {name} has a cycle through "
                                            f"{self.ground.options[i]!r}")
            for j in iter_bits(row):
                if (closed.rows[j] >> i) & 1:
                    raise InvalidRationaleError(
                        f"rationale {name} is not asymmetric on "
                        f"({self.ground.options[i]}, {self.ground.options[j]})"
                    )
        return closed.rows


def tsm_choice(spec: TSMSpec) -> ChoiceFunction:
    """Evaluate the shortlist method on every menu.

    Stage one keeps the options undominated under the first rationale;
    stage two keeps those undominated under the second.  Raises
    ``NotSingleValuedError`` if any menu's two-stage maximum is not a
    single option.
    """
    ground = spec.ground
    rows1 = spec._closed_rows(spec.p1, "P1")
    rows2 = spec._closed_rows(spec.p2, "P2")
    dominated1 = _dominators_table(rows1, ground.size)
    dominated2 = _dominators_table(rows2, ground.size)
    table = [-1] * (1 << ground.size)
    for mask in range(1, ground.full_mask + 1):
        shortlist = 0
        for x in iter_bits(mask):
            if not (dominated1[x] & mask):
                shortlist |= 1 << x
        final = 0
        for x in iter_bits(shortlist):
            if not (dominated2[x] & shortlist):
                final |= 1 << x
        if final == 0 or final & (final - 1):
            raise NotSingleValuedError(
                f"menu {ground.menu_key(mask)!r} has a two-stage maximum of "
                f"{bin(final).count('1')} options"
            )
        table[mask] = final.bit_length() - 1
    return ChoiceFunction(ground, tuple(table))


def _dominators_table(rows: tuple[int, ...], n: int) -> list[int]:
    """table[x] = bitmask of options that dominate x under the relation."""
    out = [0] * n
    for y, row in enumerate(rows):
        for x in iter_bits(row):
            out[x] |= 1 << y
    return out


def tsm_fixture_nrs_violation() -> TSMSpec:
    """Shortlist instance whose choice function breaks NRS.

    Five options; the top option of the second rationale reacts to the
    absence of three mutually similar options that cycle in binary choice.
    """
    ground = GroundSet(("x", "y", "z", "t", "u"))
    return TSMSpec(
        ground,
        p1=(("z", "x"), ("x", "t"), ("y", "t")),
        p2=(("t", "u"), ("u", "x"), ("x", "y"), ("y", "z")),
    )


def tsm_fixture_spr_violation() -> TSMSpec:
    """Shortlist instance whose choice function breaks SPR.

    Five options; reactions intensify down a within-class chain while an
    outside option separates the chain's top from its middle.
    """
    ground = GroundSet(("x", "y", "z", "a", "t"))
    return TSMSpec(
        ground,
        p1=(("t", "z"), ("z", "y"), ("y", "x")),
        p2=(("z", "x"), ("x", "a"), ("a", "t"), ("t", "y")),
    )
