"""Ground sets, menus, linear orders and total choice functions.

Menus over a ground set of ``n`` options are encoded as ``n``-bit integers:
bit ``i`` set means the option at ground-set position ``i`` is a member.
Everything downstream (revealed relations, axiom checks, structure
synthesis) consumes these values, so they are immutable and cheap to hash.

Canonical textual menu keys (for the JSON/CSV file formats) list the member
identifiers sorted by ground-set position, joined by ``,``.  Each ground set
builds the keys of all its 2^n masks once, on first use, into
``GroundSet.menu_keys``: the key of a mask extends the key of the mask without
its top bit, so the table costs 2^n string joins.  Parsing, serializing and
the freedom table read this one table.  ``parse_choice_function`` keeps the
last ``PARSED_GROUND_CACHE_SIZE`` ground sets it built, keyed by their
options, so files with the same options share one ground set and one table.
A canonical file, whose key list equals ``menu_keys[1:]``, is parsed in
bulk: one list comparison, one map of the chosen labels to positions, and
the membership check in ``ChoiceFunction``.  Any other file, or a canonical
one whose bulk build fails, is checked entry by entry, so errors name the
first bad entry; keys out of canonical order or form go to
``GroundSet.parse_menu_key``.

A ``ChoiceFunction`` stores its 2^n picks as one read-only ``np.int8``
array, ``table``, checked in one numpy pass when it is built.  Whole-table
passes run on it: ``choice_from_order`` here,
``revealed.single_deletion_switches``, ``structure.evaluate``,
``normative.bernheim_rangel_pstar`` and the Expansion gate.  Reshaping a
table to ``(-1, 2, 1 << y)`` pairs every menu without option y (``[:, 0]``)
with the same menu plus y (``[:, 1]``).  The per-menu scans read
``choices``, the same picks as a tuple of ints.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, product
from typing import Iterator

import numpy as np

MENU_KEY_SEPARATOR = ","

#: Largest ground set representable as an exhaustive menu map (2^n entries).
MAX_GROUND_SIZE = 24

#: Largest ground set for full choice-function enumeration (count is prod |A|).
MAX_ENUMERATION_SIZE = 4

#: Ground sets ``parse_choice_function`` keeps, with their key tables (one
#: table is about 100 MB at n = 20).
PARSED_GROUND_CACHE_SIZE = 2


class ChoiceModelError(Exception):
    """Base error; ``code`` is a stable machine-readable identifier."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class InvalidGroundSetError(ChoiceModelError):
    code = "invalid-ground-set"


class GroundSetTooLargeError(ChoiceModelError):
    code = "ground-set-too-large"


class MalformedKeyError(ChoiceModelError):
    code = "malformed-key"


class UnknownOptionError(ChoiceModelError):
    code = "unknown-option"


class DuplicateMenuError(ChoiceModelError):
    code = "duplicate-menu"


class MissingMenuError(ChoiceModelError):
    code = "missing-menu"


class ChoiceOutsideMenuError(ChoiceModelError):
    code = "choice-outside-menu"


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of option identifiers.

    Identifiers must be unique, nonempty and free of the menu-key separator.
    The position of an option in ``options`` is its bit index in menu masks.
    """

    options: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        opts = tuple(self.options)
        object.__setattr__(self, "options", opts)
        if len(opts) < 2:
            raise InvalidGroundSetError("ground set needs at least 2 options")
        if len(opts) > MAX_GROUND_SIZE:
            raise GroundSetTooLargeError(
                f"ground set larger than the representation cap {MAX_GROUND_SIZE}"
            )
        seen = {}
        for pos, name in enumerate(opts):
            if not isinstance(name, str) or not name:
                raise InvalidGroundSetError(f"empty or non-string option at position {pos}")
            if MENU_KEY_SEPARATOR in name:
                raise InvalidGroundSetError(
                    f"option {name!r} contains the menu-key separator {MENU_KEY_SEPARATOR!r}"
                )
            if name in seen:
                raise InvalidGroundSetError(f"duplicate option {name!r}")
            seen[name] = pos
        object.__setattr__(self, "index", seen)

    @property
    def size(self) -> int:
        return len(self.options)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.options)) - 1

    def mask_of(self, members) -> int:
        """Bit pattern for an iterable of option identifiers."""
        mask = 0
        for name in members:
            pos = self.index.get(name)
            if pos is None:
                raise UnknownOptionError(f"unknown option {name!r}")
            mask |= 1 << pos
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Option identifiers in a menu mask, in ground-set order."""
        return tuple(self.options[i] for i in iter_bits(mask))

    @cached_property
    def menu_keys(self) -> tuple[str, ...]:
        """``menu_keys[mask]`` is the canonical key of ``mask`` ("" for 0)."""
        keys = [""]
        for label in self.options:
            tail = MENU_KEY_SEPARATOR + label
            keys += [label, *[key + tail for key in keys[1:]]]
        return tuple(keys)

    def menu_key(self, mask: int) -> str:
        return MENU_KEY_SEPARATOR.join(self.members(mask))

    def parse_menu_key(self, key: str) -> int:
        parts = key.split(MENU_KEY_SEPARATOR)
        if not parts or any(p == "" for p in parts):
            raise MalformedKeyError(f"malformed menu key {key!r}")
        mask = self.mask_of(parts)
        if bin(mask).count("1") != len(parts):
            raise MalformedKeyError(f"menu key {key!r} repeats an option")
        return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_menus(ground: GroundSet) -> Iterator[int]:
    """All 2^n - 1 nonempty menus, ascending bit pattern."""
    return iter(range(1, ground.full_mask + 1))


@dataclass(frozen=True)
class LinearOrder:
    """Strict total order over the ground set, stored best-first.

    The permutation encoding is complete, transitive and antisymmetric by
    construction.
    """

    ground: GroundSet
    ranking: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if sorted(self.ranking) != sorted(self.ground.options):
            raise InvalidGroundSetError("ranking must be a permutation of the ground set")

    def ranks(self) -> list[int]:
        """rank_by_position[i] = rank of option at ground position i (0 = best)."""
        out = [0] * self.ground.size
        for rank, name in enumerate(self.ranking):
            out[self.ground.index[name]] = rank
        return out

    def prefers(self, a: str, b: str) -> bool:
        """Strictly prefers ``a`` over ``b``."""
        return self.ranking.index(a) < self.ranking.index(b)


@dataclass(frozen=True)
class TypePartition:
    """Disjoint option blocks covering the ground set.

    Blocks are canonically ordered by their smallest ground position, and
    each block lists members in ground order.
    """

    ground: GroundSet
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        masks = []
        union = 0
        for block in self.blocks:
            if not block:
                raise InvalidGroundSetError("empty partition block")
            mask = self.ground.mask_of(block)
            if mask & union:
                raise InvalidGroundSetError("partition blocks overlap")
            union |= mask
            masks.append(mask)
        if union != self.ground.full_mask:
            raise InvalidGroundSetError("partition blocks do not cover the ground set")
        order = sorted(range(len(masks)), key=lambda k: masks[k] & -masks[k])
        canon = tuple(self.ground.members(masks[k]) for k in order)
        object.__setattr__(self, "blocks", canon)

    def block_masks(self) -> tuple[int, ...]:
        return tuple(self.ground.mask_of(b) for b in self.blocks)

    def block_of(self) -> list[int]:
        """out[i] = block index of the option at ground position i."""
        out = [0] * self.ground.size
        for b, block in enumerate(self.blocks):
            for name in block:
                out[self.ground.index[name]] = b
        return out

    @classmethod
    def from_block_of(cls, ground: GroundSet, block_of: list[int]) -> "TypePartition":
        groups: dict[int, list[str]] = {}
        for pos, b in enumerate(block_of):
            groups.setdefault(b, []).append(ground.options[pos])
        return cls(ground, tuple(tuple(g) for g in groups.values()))


@dataclass(frozen=True, eq=False)
class ChoiceFunction:
    """Total map from every nonempty menu to a member option.

    ``table[mask]`` is the ground position of the option chosen from menu
    ``mask``; entry 0, the empty menu, is -1.  The constructor takes the
    2^n entries as a sequence or an integer array and keeps a read-only
    ``np.int8`` copy (n <= 24 fits), so the caller's object may change
    later.  Two functions are equal when their grounds and tables are.
    """

    ground: GroundSet
    table: np.ndarray

    def __post_init__(self):
        choices, n = self.table, self.ground.size
        if len(choices) != 1 << n:
            raise MissingMenuError(f"choice table has {len(choices)} entries, expected {1 << n}")
        if choices[0] != -1:
            raise self._outside_error(0, choices[0])
        try:
            table = np.array(choices)
        except ValueError:  # some pick is a sequence
            table = np.array(None)
        if table.dtype.kind != "i" or table.ndim != 1:
            # Floats, strings, None, sequences or ints past int64: every
            # entry other than an int in 0..n-1 is bad.
            table = np.array([-1, *(c if isinstance(c, (int, np.integer)) and 0 <= c < n else -1
                                    for c in choices[1:])])
        # numpy shifts by a negative or too wide amount give 0, so bit
        # table[mask] of mask is set exactly when the pick is in the menu.
        inside = np.arange(1 << n, dtype=np.promote_types(table.dtype, np.int32))
        np.right_shift(inside, table, out=inside)
        inside &= 1
        mask = int(inside[1:].argmin()) + 1
        if not inside[mask]:
            raise self._outside_error(mask, choices[mask])
        table = table.astype(np.int8, copy=False)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def _outside_error(self, mask: int, pick) -> ChoiceOutsideMenuError:
        if isinstance(pick, np.generic):
            pick = pick.item()
        key, opts = self.ground.menu_key(mask), self.ground.options
        if mask == 0:
            return ChoiceOutsideMenuError(f"entry 0 (the empty menu) must be -1, got {pick!r}")
        if isinstance(pick, int) and 0 <= pick < len(opts):
            return ChoiceOutsideMenuError(f"chosen option {opts[pick]!r} is outside menu {key!r}")
        return ChoiceOutsideMenuError(
            f"choice {pick!r} from menu {key!r} is not an option position 0..{len(opts) - 1}"
        )

    @cached_property
    def choices(self) -> tuple[int, ...]:
        """``table`` as a tuple of ints, for the per-menu scans."""
        return tuple(self.table.tolist())

    def __eq__(self, other):
        if not isinstance(other, ChoiceFunction):
            return NotImplemented
        return self.ground == other.ground and self.table.tobytes() == other.table.tobytes()

    def __hash__(self):
        return hash((self.ground, self.table.tobytes()))

    def choose(self, members) -> str:
        """Chosen option label for a menu given as identifiers."""
        mask = self.ground.mask_of(members)
        if mask == 0:
            raise MalformedKeyError("empty menu")
        return self.ground.options[int(self.table[mask])]


def choice_from_order(order: LinearOrder) -> ChoiceFunction:
    """Choice by maximization of a single linear order (satisfies IIA).

    One masked pass per option, worst-ranked first: each option takes every
    menu that contains it, so the best-ranked member is written last.
    """
    ground = order.ground
    table = np.full(1 << ground.size, -1, dtype=np.int8)
    for name in reversed(order.ranking):
        pos = ground.index[name]
        table.reshape(-1, 2, 1 << pos)[:, 1] = pos
    return ChoiceFunction(ground, table)


def enumerate_tables(ground: GroundSet) -> np.ndarray:
    """Every total choice table, exactly once, as the rows of one int8 array.

    The rows are ``itertools.product`` over menus in ascending-mask order,
    the pick for each menu running over its members in ascending position.
    Guarded: the count is prod_A |A|, so only |X| <= 4 is allowed.
    """
    if ground.size > MAX_ENUMERATION_SIZE:
        raise GroundSetTooLargeError(
            f"full enumeration capped at |X| <= {MAX_ENUMERATION_SIZE}"
        )
    members = [list(iter_bits(m)) for m in range(1, ground.full_mask + 1)]
    tables = np.fromiter(chain.from_iterable(product([-1], *members)), np.int8)
    return tables.reshape(-1, 1 << ground.size)


def enumerate_choice_functions(ground: GroundSet) -> Iterator[ChoiceFunction]:
    """A ``ChoiceFunction`` for each row of ``enumerate_tables``, in order."""
    for table in enumerate_tables(ground):
        yield ChoiceFunction(ground, table)


# ---------------------------------------------------------------------------
# Serialization: JSON and CSV file formats
# ---------------------------------------------------------------------------


def _decode(text: bytes | str) -> str:
    try:
        return text.decode("utf-8") if isinstance(text, bytes) else text
    except UnicodeDecodeError as exc:
        raise MalformedKeyError(f"input is not UTF-8: {exc}") from exc


def _load_json(text: str, **kwargs):
    try:
        return json.loads(text, **kwargs)
    except json.JSONDecodeError as exc:
        raise MalformedKeyError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedKeyError("invalid JSON: nested too deeply") from exc


def _labels(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InvalidGroundSetError(f"{what} must be a list of option labels")
    return tuple(value)


def _reject_duplicate_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DuplicateMenuError(f"duplicate menu key {key!r}")
            seen.add(key)
    return doc


@lru_cache(maxsize=PARSED_GROUND_CACHE_SIZE)
def _parsed_ground(options: tuple[str, ...]) -> GroundSet:
    """The ground set of ``options``, shared by parses with the same options
    so that its ``menu_keys`` table is built once."""
    return GroundSet(options)


def _is_canonical(ground: GroundSet, menus: list) -> bool:
    """Whether ``menus`` lists every nonempty menu's key in serialized order.

    The key table is built only for a file with one entry per nonempty
    menu; a file with any other count cannot be complete.
    """
    return len(menus) == ground.full_mask and menus == list(ground.menu_keys[1:])


def _function_from_entries(ground: GroundSet, menus: list, picks: list) -> ChoiceFunction:
    """Check ``(menu key, chosen label)`` entries in order; build the function.

    A canonical file (``_is_canonical``) maps its labels in bulk and leaves
    the membership check to ``ChoiceFunction``.  Any other file, and a
    canonical one whose bulk build fails, goes through the entries one at a
    time, so the first bad entry names the error: the i-th entry's key is
    compared with ``menu_keys[i]``, and any other key (out of that order,
    not canonical, or malformed) goes to ``parse_menu_key``.
    """
    index = ground.index
    if _is_canonical(ground, menus):
        try:
            positions = chain((-1,), map(index.__getitem__, picks))
            return ChoiceFunction(ground, np.fromiter(positions, np.int8, len(menus) + 1))
        except (KeyError, TypeError, ChoiceOutsideMenuError):
            pass
    keys = ground.menu_keys if len(menus) == ground.full_mask else None
    table = [-1] * (ground.full_mask + 1)
    for mask, (key, chosen) in enumerate(zip(menus, picks), 1):
        if keys is None or keys[mask] != key:
            mask = ground.parse_menu_key(key)
        if not isinstance(chosen, str):
            raise MalformedKeyError(f"choice from {key!r} must be an option label, got {chosen!r}")
        if table[mask] != -1:
            raise DuplicateMenuError(f"duplicate menu key {key!r}")
        pos = index.get(chosen)
        if pos is None:
            raise UnknownOptionError(f"unknown option {chosen!r} chosen from {key!r}")
        if not (mask >> pos) & 1:
            raise ChoiceOutsideMenuError(f"choice {chosen!r} is outside menu {key!r}")
        table[mask] = pos
    if keys is None:
        raise MissingMenuError(f"menu {ground.menu_key(table.index(-1, 1))!r} has no entry")
    return ChoiceFunction(ground, table)


def parse_choice_function(text: bytes | str, format: str = "json") -> ChoiceFunction:
    """Parse and validate a choice function from JSON or CSV bytes."""
    text = _decode(text)
    if format == "json":
        doc = _load_json(text, object_pairs_hook=_reject_duplicate_keys)
        if not isinstance(doc, dict) or "options" not in doc or "choices" not in doc:
            raise MalformedKeyError("expected an object with 'options' and 'choices'")
        options = _labels(doc["options"], "'options'")
        if not isinstance(doc["choices"], dict):
            raise MalformedKeyError("'choices' must be an object mapping menu keys to options")
        ground = _parsed_ground(options)
        menus, picks = list(doc["choices"]), list(doc["choices"].values())
    elif format == "csv":
        reader = csv.reader(io.StringIO(text))
        rows = [row for row in reader if row]
        if not rows or [c.strip() for c in rows[0]] != ["menu", "choice"]:
            raise MalformedKeyError("CSV must start with header 'menu,choice'")
        entries = rows[1:]
        for row in entries:
            if len(row) != 2:
                raise MalformedKeyError(f"CSV row {row!r} does not have 2 fields")
        menus, picks = [row[0] for row in entries], [row[1] for row in entries]
        # Options in order of first appearance across the keys.
        names = chain.from_iterable(key.split(MENU_KEY_SEPARATOR) for key in menus)
        ground = _parsed_ground(tuple(dict.fromkeys(names)))
    else:
        raise MalformedKeyError(f"unknown format {format!r}")
    return _function_from_entries(ground, menus, picks)


def choice_function_doc(ground: GroundSet, table: np.ndarray) -> dict:
    """JSON document of the choice table ``table`` on ``ground``: its options,
    then its menus in ascending bit pattern."""
    chosen = map(ground.options.__getitem__, table.tolist()[1:])
    return {"options": list(ground.options), "choices": dict(zip(ground.menu_keys[1:], chosen))}


def structure_doc(structure) -> dict:
    """JSON document of an ``RSStructure``: its types, then both orders best-first."""
    return {
        "types": [list(b) for b in structure.types.blocks],
        "welfare": list(structure.welfare.ranking),
        "reaction": list(structure.reaction_pref.ranking),
    }


def serialize_choice_function(cf: ChoiceFunction, format: str = "json") -> str:
    """Canonical textual form; menus in ascending bit-pattern order."""
    if format == "json":
        return json.dumps(choice_function_doc(cf.ground, cf.table), indent=2) + "\n"
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["menu", "choice"])
        writer.writerows(choice_function_doc(cf.ground, cf.table)["choices"].items())
        return out.getvalue()
    raise MalformedKeyError(f"unknown format {format!r}")


def parse_structure_json(text: bytes | str):
    """Parse the RS-structure JSON file format.

    ``{"types": [["a1","a2"],["b1"]], "welfare": [...], "reaction": [...]}``
    with both orders listed best-first.  Returns an ``RSStructure``.
    """
    from .structure import RSStructure

    doc = _load_json(_decode(text))
    if not isinstance(doc, dict):
        raise MalformedKeyError("expected an object with 'types', 'welfare' and 'reaction'")
    for key in ("types", "welfare", "reaction"):
        if key not in doc:
            raise MalformedKeyError(f"structure JSON missing {key!r}")
    welfare = _labels(doc["welfare"], "'welfare'")
    types = doc["types"]
    if not isinstance(types, list):
        raise InvalidGroundSetError("'types' must be a list of option-label lists")
    ground = GroundSet(welfare)
    return RSStructure(
        ground=ground,
        types=TypePartition(ground, tuple(_labels(b, "each type") for b in types)),
        welfare=LinearOrder(ground, welfare),
        reaction_pref=LinearOrder(ground, _labels(doc["reaction"], "'reaction'")),
    )


def serialize_structure_json(structure) -> str:
    return json.dumps(structure_doc(structure), indent=2) + "\n"
