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

Expansion runs on the int8 choice table as whole-array numpy work: one
stable argsort groups the menus by chosen option, a family whose union is
chosen otherwise is open at once, batched subset-OR transforms skip every
other family closed under union (O(n 2^n) per family, O(2^n) memory), and
an open family is pair-scanned in bounded blocks that stop at the cap.
Only families of at most 16 menus, and every family below six options, are
scanned pair by pair in Python.  NRS, IR and SPR read only
``ChoiceFunction.beats``, the n pairwise-choice rows (O(n^2) to build, once
per function): each scan is O(n^3) bit tests plus O(n) per witness listed.
IIA is gated too: a subset-OR transform over growing prefixes of the table
(O(n 2^n) in all, O(2^n) memory) finds the menus that have a witness, and
only those are walked, submenu by submenu, in Python; tables of at most 32
entries skip the transform, as Expansion's do.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from .core import ChoiceFunction, ChoiceModelError, GroundSet, TypePartition, iter_bits
from .revealed import BinaryRelation, RevealedReport, converse

DEFAULT_VIOLATION_CAP = 16


class AxiomViolationError(ChoiceModelError):
    """Raised by operations that require axiom-clean input."""

    code = "axiom-violation"

    def __init__(self, message: str, verdicts=None):
        super().__init__(message)
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

    Gate, then scan, one chosen option x at a time in ascending order.  The
    menus choosing x form a family F_x (one stable argsort of the table
    groups them), and Expansion fails inside F_x exactly when F_x is not
    closed under union.  A family of at most ``EXP_SMALL_FAMILY`` menus is
    scanned pair by pair in Python.  A larger family closed under union
    holds its own union, so one whose union is chosen otherwise is open and
    goes straight to the numpy scan, one block of pairs at a time.  Every
    other large family is tested for closure by a subset-OR transform over
    the 2^(n-1) menus holding x (``_union_closed_families``), in batches of
    up to ``EXP_GATE_BYTES`` of rows (all of them in one batch up to
    n = 17); a closed family is skipped, an open one scanned.

    Cost: on a clean input O(n^2 2^n) time and O(2^n) memory; an open
    family of k menus adds up to k^2 / 2 pair tests in blocks, cut short
    once the cap is reached.  Both scans list the witnesses in the order of
    an ungated scan: ascending x, then A, then B.
    """
    return _verdict("Exp", _exp_witnesses(cf), cap)


#: Largest family that ``check_exp`` scans pair by pair in Python (at most
#: 120 pairs); below it numpy's per-call cost is more than the loop's.
EXP_SMALL_FAMILY = 16
#: Byte budget of a batch of ``check_exp`` gate transforms: one int32 row of
#: 2^(n-1) cells per family, and at least one row (32 MiB at n = 24).
EXP_GATE_BYTES = 1 << 23
#: Pairs in the first and in the largest block of the numpy scan of an open
#: family; blocks double in between, so an early witness comes cheap.
EXP_SCAN_FIRST, EXP_SCAN_BLOCK = 1 << 10, 1 << 16


def _exp_witnesses(cf: ChoiceFunction) -> Iterator[tuple]:
    ground, table = cf.ground, cf.table
    n = ground.size
    closed: dict[int, bool] = {}
    gated: list[int] = []
    if table.size <= 2 * EXP_SMALL_FAMILY:
        # Below six options every family is small, and the picks as a list
        # cost less to build and to read than the argsort and ``item``.
        choices = table.tolist()
        families: list = [[] for _ in range(n)]
        for mask in range(1, table.size):
            families[choices[mask]].append(mask)
        pick = choices.__getitem__
    else:
        families, pick = _exp_families(table, n), table.item
        # A family closed under union holds its own union: if that is
        # chosen otherwise, the family is open and needs no gate row.
        for x, menus in enumerate(families):
            if len(menus) > EXP_SMALL_FAMILY:
                if pick(np.bitwise_or.reduce(menus)) == x:
                    gated.append(x)
                else:
                    closed[x] = False
    for x, menus in enumerate(families):
        if len(menus) <= EXP_SMALL_FAMILY:
            yield from _exp_scan_python(ground, pick, x, menus)
            continue
        if x not in closed:
            # The next batch: this family and the gated ones after it.
            xs = gated[gated.index(x):][:max(1, EXP_GATE_BYTES >> (n + 1))]
            closed.update(zip(xs, _union_closed_families(table, xs, [families[y] for y in xs])))
        if not closed[x]:
            yield from _exp_scan_numpy(ground, table, x, menus)


def _exp_families(table: np.ndarray, n: int) -> list:
    """The menus choosing each option, ascending, grouped by one stable
    argsort: a list of ints for a family of at most ``EXP_SMALL_FAMILY``
    menus, an int32 array for a larger one."""
    order = np.argsort(table, kind="stable")  # the empty menu first
    bounds = np.searchsorted(table.take(order), np.arange(n + 1, dtype=table.dtype)).tolist()
    order = order.astype(np.int32)
    families = []
    for start, end in zip(bounds, bounds[1:]):
        menus = order[start:end]
        families.append(menus.tolist() if menus.size <= EXP_SMALL_FAMILY else menus)
    return families


def _exp_scan_python(ground: GroundSet, pick, x: int, menus: list[int]) -> Iterator[tuple]:
    """Witnesses (A, B, x, c(A | B)) of the pairs A before B of ``menus``
    (ascending, all choosing ``x``) with c(A | B) != x, where ``pick(M)``
    is c(M); pair by pair, for small families."""
    k = len(menus)
    for ai in range(k):
        a = menus[ai]
        for bi in range(ai + 1, k):
            b = menus[bi]
            union = a | b
            if union == a or union == b:
                continue
            got = pick(union)
            if got != x:
                yield (ground.menu_key(a), ground.menu_key(b), ground.options[x], ground.options[got])


def _exp_scan_numpy(ground: GroundSet, table: np.ndarray, x: int,
                    menus: np.ndarray) -> Iterator[tuple]:
    """``_exp_scan_python`` over an int32 array, in the same order: a block
    of rows A at a time against every later B, ``np.nonzero`` reading the
    block row by row.  A union equal to A or B is chosen like them, so it
    needs no test of its own."""
    k, i, block = menus.size, 0, EXP_SCAN_FIRST
    while i < k - 1:
        rest = menus[i + 1:]
        rows = min(max(1, block // rest.size), rest.size)
        got = table[menus[i:i + rows, None] | rest]
        r, c = np.nonzero(got != x)
        # Row r is A = menus[i + r]; column c is B = menus[i + 1 + c], after A iff c >= r.
        later = c >= r
        r, c = r[later], c[later]
        for a, b, pick in zip(menus[i + r].tolist(), rest[c].tolist(), got[r, c].tolist()):
            yield (ground.menu_key(a), ground.menu_key(b), ground.options[x], ground.options[pick])
        i += rows
        block = min(2 * block, EXP_SCAN_BLOCK)


def _union_closed_families(table: np.ndarray, xs: list[int], families: list) -> list[bool]:
    """For each option xs[j], whether ``families[j]``, the menus choosing it,
    is closed under union.

    ``table[mask]`` is the chosen position.  Every menu of family j holds
    x = xs[j], so it is indexed by its other n - 1 bits.  One subset-OR
    (zeta) transform of a (2^(n-1), len(xs)) array gives span[M, j], the
    union of the menus of family j inside M | {x}; it holds {x} at least.
    The family is closed iff c(span[M, j]) = x everywhere: a failing pair
    A, B shows at M = A | B, and a closed family contains every such union.
    """
    span = np.zeros((table.size >> 1, len(xs)), dtype=np.int32)
    for j, (x, menus) in enumerate(zip(xs, families)):
        low = (1 << x) - 1
        span[(menus >> 1) & ~low | menus & low, j] = menus
    _subset_zeta(span, np.bitwise_or)
    return [bool((table.take(span[:, j]) == x).all()) for j, x in enumerate(xs)]


def _subset_zeta(values: np.ndarray, op: np.ufunc) -> None:
    """Yates' subset (zeta) transform in place along axis 0, of length 2^k:
    values[s] becomes ``op`` folded over values[t] for every t inside s.
    One pass per bit, k 2^(k-1) applications of ``op`` per column.

    A pass pairs runs of ``bit`` rows.  numpy loops innermost over a run,
    so where a run holds fewer than 8 values (the low bits of a table with
    few columns) the pass is run on the reversed axes in C order, looping
    over the 2^k / (2 bit) runs instead (on one column, the whole transform
    runs about twice as fast at k = 12-20)."""
    row, bit = values[:1].size, 1
    while bit < len(values):
        half = values.reshape(-1, 2, bit, *values.shape[1:])
        high, low = half[:, 1], half[:, 0]
        if bit * row < 8:
            high, low = high.T, low.T
        op(high, low, out=high, order="C")
        bit <<= 1


def check_nrs(
    cf: ChoiceFunction, classes: TypePartition, cap: int = DEFAULT_VIOLATION_CAP
) -> AxiomVerdict:
    """NRS: within one similarity class, pairwise choice is transitive."""
    return _verdict("NRS", _nrs_witnesses(cf, classes), cap)


def _nrs_witnesses(cf: ChoiceFunction, classes: TypePartition) -> Iterator[tuple]:
    """Witnesses (x, y, z) of one class with x beating y, y beating z and z
    beating x: z ranges over ``beats[y] & ~beats[x]``, which excludes x."""
    options, beats, index = cf.ground.options, cf.beats, cf.ground.index
    for block in classes.blocks:
        members = [index[name] for name in block]
        for x in members:
            for y in members:
                if not (beats[x] >> y) & 1:
                    continue
                cycle = beats[y] & ~beats[x]
                for z in members:
                    if (cycle >> z) & 1:
                        yield (options[x], options[y], options[z])


def check_ir(
    cf: ChoiceFunction, classes: TypePartition, cap: int = DEFAULT_VIOLATION_CAP
) -> AxiomVerdict:
    """IR: x = c{x,z}, z = c{y,z}, y = c{y,t} force x = c{x,t}.

    Scans quadruples with x, y similar and z, t outside their class.
    """
    return _verdict("IR", _ir_witnesses(cf, classes), cap)


def _ir_witnesses(cf: ChoiceFunction, classes: TypePartition) -> Iterator[tuple]:
    """Witnesses (x, y, z, t) with x, y similar and z, t outside their class:
    every z in ``beats[x] & ~beats[y]`` crossed with every t in
    ``beats[y] & ~beats[x]``."""
    options, beats, n = cf.ground.options, cf.beats, cf.ground.size
    masks = classes.block_masks()
    for x, bx in enumerate(classes.block_of()):
        block = masks[bx]
        outside = cf.ground.full_mask & ~block
        for y in range(n):
            if y == x or not (block >> y) & 1:
                continue
            zs = outside & beats[x] & ~beats[y]
            ts = outside & beats[y] & ~beats[x]
            if not (zs and ts):
                continue
            for z in range(n):
                if (zs >> z) & 1:
                    for t in range(n):
                        if (ts >> t) & 1:
                            yield (options[x], options[y], options[z], options[t])


def check_spr(
    cf: ChoiceFunction, report: RevealedReport, cap: int = DEFAULT_VIOLATION_CAP
) -> AxiomVerdict:
    """SPR: along a within-class chain x over y over z with x reacting to
    something and z reacting to the absence of y, every dissimilar option u
    beaten by x must also be beaten by y.  Witness records the failing u.
    """
    return _verdict("SPR", _spr_witnesses(cf, report), cap)


def _spr_witnesses(cf: ChoiceFunction, report: RevealedReport) -> Iterator[tuple]:
    """Witnesses (x, y, z, u): in a class of three or more, x reacts to
    something, x beats y, y beats z, z reacts to the absence of y, and u,
    outside the class, is in ``beats[x] & ~beats[y]``."""
    ground, beats, reaction = cf.ground, cf.beats, report.reaction.rows
    options, n = ground.options, ground.size
    classes = report.similarity_classes
    for block, mask in zip(classes.blocks, classes.block_masks()):
        if len(block) < 3:
            continue
        members = [ground.index[name] for name in block]
        outside = ground.full_mask & ~mask
        for x in members:
            if not reaction[x]:
                continue
            for y in members:
                us = outside & beats[x] & ~beats[y]
                if not ((beats[x] >> y) & 1 and us):
                    continue
                for z in members:
                    if (beats[y] >> z) & 1 and (reaction[z] >> y) & 1:
                        for u in range(n):
                            if (us >> u) & 1:
                                yield (options[x], options[y], options[z], options[u])


def check_iia(cf: ChoiceFunction, cap: int = DEFAULT_VIOLATION_CAP) -> AxiomVerdict:
    """IIA: removing unchosen options never changes the choice.

    Witnesses (A, B) pair a menu A with a proper submenu B that holds
    x = c(A) but chooses otherwise, listed by ascending A, then descending
    B.  A table of at most 2 * ``EXP_SMALL_FAMILY`` entries is walked
    menu by menu.  A larger one is gated first (``_iia_open_menus``): a
    subset-OR transform finds the open menus, those with a witness, and
    only they are walked, so a capped scan walks at most cap + 1 menus.
    The transform runs on prefixes of the table that grow 8-fold, so a
    scan that reaches the cap early transforms a short prefix only.

    Cost: O(n 2^n) time and O(2^n) memory for the gate, plus the walks of
    the open menus, 2^(|A| - 1) steps each.
    """
    return _verdict("IIA", _iia_witnesses(cf), cap)


#: Menus in the first prefix the IIA gate transforms (a power of two); each
#: later prefix is 8 times longer, up to the table, so a scan that stops at
#: the cap early pays for a short prefix, and a full scan for at most 1.6
#: transforms of the table.
IIA_FIRST_MENUS = 1 << 6
#: Most menus the IIA gate tests for witnesses at once.
IIA_SCAN_BLOCK = 1 << 14


def _iia_witnesses(cf: ChoiceFunction) -> Iterator[tuple]:
    ground, table = cf.ground, cf.table
    if table.size <= 2 * EXP_SMALL_FAMILY:
        menus, choices = range(1, table.size), table.tolist()
    else:
        # A memoryview reads one pick as an int without a 2^n list.
        menus, choices = _iia_open_menus(table), memoryview(table)
    for mask in menus:
        chosen = choices[mask]
        bit = 1 << chosen
        rest = sub = mask ^ bit  # proper submenus holding the choice: sub | bit, sub < rest
        while sub:
            sub = (sub - 1) & rest
            if choices[sub | bit] != chosen:
                yield (ground.menu_key(mask), ground.menu_key(sub | bit))


def _iia_open_menus(table: np.ndarray) -> Iterator[int]:
    """The menus A with an IIA witness, ascending.

    With u[B] = B minus its choice, a subset-OR (zeta) transform gives
    U[A], the union of u[B] over the submenus B of A.  Some B inside A
    holds x = c(A) and chooses otherwise iff bit x is in U[A]: A itself
    adds nothing, as u[A] lacks x.  The submenus of a menu below 2^k are
    below 2^k, so the transform runs on prefixes of 2^k menus, k growing
    by 3 (``IIA_FIRST_MENUS``).  The OR transform is idempotent, so
    running it again on a longer prefix leaves the part already
    transformed as it was.  Each new part is listed in blocks of at most
    ``IIA_SCAN_BLOCK`` menus.
    """
    bits = table.astype(np.int32)
    np.left_shift(1, bits, out=bits)  # entry 0 (-1) shifts to 0
    span = np.arange(table.size, dtype=np.int32)
    span ^= bits
    start, end = 0, IIA_FIRST_MENUS
    while start < table.size:
        end = min(end, table.size)
        _subset_zeta(span[:end], np.bitwise_or)
        for lo in range(start, end, IIA_SCAN_BLOCK):
            hi = min(lo + IIA_SCAN_BLOCK, end)
            yield from (np.flatnonzero(span[lo:hi] & bits[lo:hi]) + lo).tolist()
        start, end = end, end << 3


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
        # Closed, a relation with (i, j) and (j, i) holds (i, i): acyclic is asymmetric.
        for i, row in enumerate(closed.rows):
            if (row >> i) & 1:
                raise InvalidRationaleError(f"rationale {name} has a cycle through "
                                            f"{self.ground.options[i]!r}")
        return closed.rows


def tsm_choice(spec: TSMSpec) -> ChoiceFunction:
    """Evaluate the shortlist method on every menu.

    Stage one keeps the options undominated under the first rationale;
    stage two keeps those undominated under the second.  Raises
    ``NotSingleValuedError`` if any menu's two-stage maximum is not a
    single option.
    """
    ground = spec.ground
    dominated1 = converse(spec._closed_rows(spec.p1, "P1"))
    dominated2 = converse(spec._closed_rows(spec.p2, "P2"))
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
    return ChoiceFunction(ground, table)


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
