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
the freedom table read this one table.  A canonical file, whose key list
equals ``menu_keys[1:]``, is parsed in bulk: one list comparison, one map of
the chosen labels to positions, and the membership check in
``ChoiceFunction``.  Any other file, or a canonical one whose bulk build
fails, is checked entry by entry, so errors name the first bad entry; keys
out of canonical order or form go to ``GroundSet.parse_menu_key``.

``ChoiceFunction.choices`` is a tuple of 2^n ints, and
``ChoiceFunction.table`` is the same list as a cached read-only ``np.int8``
array.  Whole-table passes run on that view or build one:
``choice_from_order`` here, ``revealed.single_deletion_switches``,
``structure.evaluate``, ``normative.bernheim_rangel_pstar`` and the
Expansion gate.  Reshaping a table to ``(-1, 2, 1 << y)`` pairs every menu
without option y (``[:, 0]``) with the same menu plus y (``[:, 1]``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator

import numpy as np

MENU_KEY_SEPARATOR = ","

#: Largest ground set representable as an exhaustive menu map (2^n entries).
MAX_GROUND_SIZE = 24

#: Largest ground set for full choice-function enumeration (count is prod |A|).
MAX_ENUMERATION_SIZE = 4


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


@dataclass(frozen=True)
class ChoiceFunction:
    """Total map from every nonempty menu to a member option.

    ``choices[mask]`` is the ground position of the chosen option;
    entry 0, the empty menu, is -1.  ``table`` holds the same entries as a
    read-only ``np.int8`` array, built on first use; a whole-table kernel
    hands its own array in through ``_from_table``.
    """

    ground: GroundSet
    choices: tuple[int, ...]

    def __post_init__(self):
        choices = tuple(self.choices)
        object.__setattr__(self, "choices", choices)
        n_entries = (1 << self.ground.size)
        if len(choices) != n_entries:
            raise MissingMenuError(
                f"choice table has {len(choices)} entries, expected {n_entries}"
            )
        if choices[0] != -1:
            raise ChoiceOutsideMenuError(
                f"entry 0 (the empty menu) must be -1, got {choices[0]!r}"
            )
        for mask in range(1, n_entries):
            try:
                if (mask >> choices[mask]) & 1:
                    continue
            except (TypeError, ValueError, OverflowError):
                pass
            raise self._outside_error(mask)

    def _outside_error(self, mask: int) -> ChoiceOutsideMenuError:
        pick, key, opts = self.choices[mask], self.ground.menu_key(mask), self.ground.options
        if isinstance(pick, int) and 0 <= pick < len(opts):
            return ChoiceOutsideMenuError(f"chosen option {opts[pick]!r} is outside menu {key!r}")
        return ChoiceOutsideMenuError(
            f"choice {pick!r} from menu {key!r} is not an option position 0..{len(opts) - 1}"
        )

    @classmethod
    def _from_table(cls, ground: GroundSet, table: np.ndarray) -> "ChoiceFunction":
        """Wrap an int8 table that a whole-table kernel built valid.

        Skips the per-menu check and keeps ``table`` as the cached view.
        """
        cf = object.__new__(cls)
        object.__setattr__(cf, "ground", ground)
        object.__setattr__(cf, "choices", tuple(table.tolist()))
        table.flags.writeable = False
        cf.__dict__["table"] = table
        return cf

    @cached_property
    def table(self) -> np.ndarray:
        """``choices`` as a read-only int8 array (n <= 24 fits)."""
        table = np.fromiter(self.choices, dtype=np.int8, count=len(self.choices))
        table.flags.writeable = False
        return table

    def choose(self, members) -> str:
        """Chosen option label for a menu given as identifiers."""
        mask = self.ground.mask_of(members)
        if mask == 0:
            raise MalformedKeyError("empty menu")
        return self.ground.options[self.choices[mask]]


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
    return ChoiceFunction._from_table(ground, table)


def enumerate_choice_functions(ground: GroundSet) -> Iterator[ChoiceFunction]:
    """Every total choice function, exactly once, in a deterministic order.

    The stream walks an odometer over menus in ascending-mask order, the
    digit for each menu running over its members in ascending position.
    Guarded: the count is prod_A |A|, so only |X| <= 4 is allowed.
    """
    if ground.size > MAX_ENUMERATION_SIZE:
        raise GroundSetTooLargeError(
            f"full enumeration capped at |X| <= {MAX_ENUMERATION_SIZE}"
        )
    masks = [m for m in range(1, ground.full_mask + 1)]
    members = [list(iter_bits(m)) for m in masks]
    digits = [0] * len(masks)
    size = 1 << ground.size
    while True:
        table = [-1] * size
        for k, m in enumerate(masks):
            table[m] = members[k][digits[k]]
        yield ChoiceFunction(ground, tuple(table))
        k = len(masks) - 1
        while k >= 0:
            digits[k] += 1
            if digits[k] < len(members[k]):
                break
            digits[k] = 0
            k -= 1
        if k < 0:
            return


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
            return ChoiceFunction(ground, (-1, *map(index.__getitem__, picks)))
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
    return ChoiceFunction(ground, tuple(table))


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
        ground = GroundSet(options)
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
        ground = GroundSet(tuple(dict.fromkeys(names)))
    else:
        raise MalformedKeyError(f"unknown format {format!r}")
    return _function_from_entries(ground, menus, picks)


def choice_function_doc(cf: ChoiceFunction) -> dict:
    """JSON document of ``cf``: its options, then its menus in ascending bit pattern."""
    ground = cf.ground
    chosen = map(ground.options.__getitem__, cf.choices[1:])
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
        return json.dumps(choice_function_doc(cf), indent=2) + "\n"
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["menu", "choice"])
        writer.writerows(choice_function_doc(cf)["choices"].items())
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
