"""Ground sets, menus, linear orders and total choice functions.

Menus over a ground set of ``n`` options are encoded as ``n``-bit integers:
bit ``i`` set means the option at ground-set position ``i`` is a member.
Everything downstream (revealed relations, axiom checks, structure
synthesis) consumes these values, so they are immutable and cheap to hash.

Canonical textual menu keys (for the JSON/CSV file formats) list the member
identifiers sorted by ground-set position, joined by ``,``.  Each ground set
builds the keys of all its 2^n masks once, on first use, into
``GroundSet.menu_keys``: the key of a mask extends the key of the mask without
its top bit, so the table costs 2^n string joins.  It is the only 2^n
string table behind any table text: parsing, serializing and the freedom
table read it.  ``parse_choice_function`` keeps the last
``PARSED_GROUND_CACHE_SIZE`` ground sets it built, keyed by their options,
so files with the same options share one ground set and one table
(structure files, listing options in welfare order, build their own).

The text of a table is the key table interleaved with one cell per menu,
everything from the end of its key to the start of the next with its
pick's label inside, in one join (``_TextTemplate``, one per ground set
and form, ``GroundSet.text_template``).  The json and line forms take
``menu_keys`` itself as their keys unless a label needs JSON escaping;
csv quotes its keys.  A JSON file that is byte for byte the writer's
text, on at least ``CANONICAL_READ_MIN_SIZE`` options, is read against
that template with no JSON decoding (``_read_canonical``): a file with
fewer bytes or another count of line breaks than the file form on its options
(``_file_layout``) is turned away before any 2^n table is built; then
the line breaks give the label cells, a few bytes of each cell name its
option, and the text the writer makes of the table so read must equal the
file.  Any other file goes through ``json.loads``.  There a file whose key list equals
``menu_keys[1:]`` is built in bulk: one list comparison, one map of the
chosen labels to positions, and the membership check in ``ChoiceFunction``.
Any other file, or one whose bulk build fails, is checked entry by entry,
so errors name the first bad entry; keys out of canonical order or form go
to ``GroundSet.parse_menu_key``.

A ``ChoiceFunction`` stores its 2^n picks as one read-only ``np.int8``
array, ``table``, checked when it is built by numpy passes over blocks of
2^16 menus.  Whole-table passes run on it: ``choice_from_order`` here,
``revealed.single_deletion_switches``, ``normative.bernheim_rangel_pstar``
and the Expansion gate and scan.  Reshaping a table to ``(-1, 2, 1 << y)``
pairs every menu without option y (``[:, 0]``) with the same menu plus y
(``[:, 1]``).  ``structure.evaluate`` views the table it builds as
``(2,) * n``, axis a being option n - 1 - a, and writes each option once
into a subcube of it.  The pair readers
(``revealed.reveal_binary``; NRS, IR and SPR in ``axioms``) read
``beats``, pairwise choice as n bitmask rows built once from the n(n-1)/2
pair menus in O(n^2).  The triple reader, ``revealed.reveal_reaction``,
reads the C(n, 3) triple menus with one ``table.take`` over a mask array
cached per n and visits each triple once, testing its unchosen options
against ``beats``.  None of them touches the rest of the table.
``choices``, the picks as a tuple of ints, is read by no module here.

``parse_choice_function`` remembers its last parse in this process: given
the same format and text equal to the last text (one comparison), it
returns the same ``ChoiceFunction`` object, so the steps of one analysis
(``rschoice`` subcommands run in one process on one file) parse it once.
A function is immutable, its table a read-only array, so every caller may
share it.  The memo keeps one input text and its function, nearly all of
it the text, held after the parse: 0.13–0.28 MB at n = 12–13, 2.6 MB at
n = 16, 49 MB at n = 20 and 212 MB at n = 22.  It is emptied before any
other text is parsed, so it never adds to a parse's peak (433 MB at
n = 20, 1.67 GB at n = 22, as without it), and a parse that raises leaves
it empty.  Any bytes-like input is copied to ``bytes`` first, so the
stored text cannot change.

Every indented JSON report (axiom verdicts, reveal, synthesis, welfare,
structure files, media and culture outcomes) is written by
``indented_json``, the bytes of ``json.dumps(doc, indent=2)`` built by one
join per container instead of ``json``'s pure-Python indenting encoder.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from json.encoder import INFINITY, encode_basestring_ascii
from types import SimpleNamespace
from typing import Iterator

import numpy as np

MENU_KEY_SEPARATOR = ","

#: Largest ground set representable as an exhaustive menu map (2^n entries).
MAX_GROUND_SIZE = 24

#: Largest ground set for full choice-function enumeration (count is prod |A|).
MAX_ENUMERATION_SIZE = 4

#: Ground sets ``parse_choice_function`` keeps, with their key tables and
#: text templates (about 100 MB at n = 20, nearly all of it the keys).
PARSED_GROUND_CACHE_SIZE = 2

#: Fewest options for which ``parse_choice_function`` reads a file that
#: rschoice wrote against the writer's template; below it ``json.loads``
#: is faster.
CANONICAL_READ_MIN_SIZE = 6


class ChoiceModelError(Exception):
    """Base error; ``code`` is a stable machine-readable identifier."""

    code = "error"


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
            try:
                name.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate
                raise InvalidGroundSetError(f"option {name!r} is not encodable as UTF-8") from exc
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

    def text_template(self, form: str) -> "_TextTemplate":
        """This ground's tables as text in ``form`` ("json", "line" or "csv"),
        built on first use and kept.  The json and line forms take
        ``menu_keys`` itself as keys when no label needs JSON escaping."""
        templates = self.__dict__.setdefault("_text_templates", {})
        if form in templates:
            return templates[form]
        if form == "csv":
            # A key holding the separator (two or more members) is a field
            # ``csv.writer`` always quotes: it doubles the quotes and keeps
            # every other character as it is.
            cells = [f",{_csv_cell(label)}\n" for label in self.options]
            keys = ("", *('"' + key.replace('"', '""') + '"' if MENU_KEY_SEPARATOR in key
                          else _csv_cell(key) for key in self.menu_keys[1:]))
            head, last = "menu,choice\n", cells
        else:
            start, between, choices, sep, colon, tail = _FILE_FORM if form == "json" else _LINE_FORM
            labels = list(map(encode_basestring_ascii, self.options))
            keys, head = self.menu_keys, f'{start}{between.join(labels)}{choices}"'
            if any(label[1:-1] != option for label, option in zip(labels, self.options)):
                keys = ("", *(encode_basestring_ascii(key)[1:-1] for key in keys[1:]))
            cells, last = ([f'"{colon}{label}{end}' for label in labels] for end in (sep + '"', tail))
        templates[form] = _TextTemplate(keys, head, cells, last)
        return templates[form]

    def menu_key(self, mask: int) -> str:
        # Read the key table when a parse has already built it (it sits in
        # the instance dict); one key never builds the 2^n table.
        keys = self.__dict__.get("menu_keys")
        if keys is not None:
            return keys[mask]
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

    def below(self) -> list[int]:
        """below[i] = mask of the options ranked below the one at ground position i."""
        out, below = [0] * self.ground.size, 0
        for i in map(self.ground.index.__getitem__, reversed(self.ranking)):
            out[i], below = below, below | 1 << i
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
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = []
        for block in self.blocks:
            if not block:
                raise InvalidGroundSetError("empty partition block")
            mask = self.ground.mask_of(block)
            if mask.bit_count() != len(block):
                raise InvalidGroundSetError(f"partition block {list(block)!r} repeats an option")
            masks.append(mask)
        self._set_masks(masks)

    def _set_masks(self, masks: list[int]) -> None:
        """Check that the nonempty ``masks`` are disjoint and cover the
        ground set, then store them and their blocks in canonical order."""
        union = 0
        for mask in masks:
            if mask & union:
                raise InvalidGroundSetError("partition blocks overlap")
            union |= mask
        if union != self.ground.full_mask:
            raise InvalidGroundSetError("partition blocks do not cover the ground set")
        masks = sorted(masks, key=lambda mask: mask & -mask)
        object.__setattr__(self, "blocks", tuple(self.ground.members(mask) for mask in masks))
        object.__setattr__(self, "_masks", tuple(masks))

    def block_masks(self) -> tuple[int, ...]:
        return self._masks

    def block_of(self) -> list[int]:
        """out[i] = block index of the option at ground position i."""
        out = [0] * self.ground.size
        for b, block in enumerate(self.blocks):
            for name in block:
                out[self.ground.index[name]] = b
        return out

    @classmethod
    def from_masks(cls, ground: GroundSet, masks) -> "TypePartition":
        """The partition whose blocks are the nonzero bitmasks ``masks``,
        checked on the ints alone: no label is looked up."""
        masks = list(masks)
        if not all(masks):
            raise InvalidGroundSetError("empty partition block")
        partition = object.__new__(cls)
        object.__setattr__(partition, "ground", ground)
        partition._set_masks(masks)
        return partition

    @classmethod
    def from_block_of(cls, ground: GroundSet, block_of: list[int]) -> "TypePartition":
        masks: dict[int, int] = {}
        for pos, b in enumerate(block_of):
            masks[b] = masks.get(b, 0) | 1 << pos
        return cls.from_masks(ground, masks.values())


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
        # Blocks of 2^16 menus keep the mask array at 256 KB; a table of at
        # most 2^16 entries is one block.
        dtype, block = np.promote_types(table.dtype, np.int32), 1 << 16
        for start in range(0, 1 << n, block):
            inside = np.arange(start, min(start + block, 1 << n), dtype=dtype)
            np.right_shift(inside, table[start:start + block], out=inside)
            inside &= 1
            skip = 1 if start == 0 else 0  # entry 0, the empty menu, is checked above
            first = int(inside[skip:].argmin()) + skip
            if not inside[first]:
                raise self._outside_error(start + first, choices[start + first])
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
        """``table`` as a tuple of ints.  No module of the library reads it:
        it is kept for callers that compare whole tables as tuples."""
        return tuple(self.table.tolist())

    @cached_property
    def beats(self) -> tuple[int, ...]:
        """Pairwise choice as n bitmask rows: bit y of ``beats[x]`` is set
        iff x = c{x, y}.  Read off the n(n-1)/2 pair menus, O(n^2)."""
        item, n = self.table.item, self.ground.size
        rows = [0] * n
        for x in range(n):
            for y in range(x + 1, n):
                if item((1 << x) | (1 << y)) == x:
                    rows[x] |= 1 << y
                else:
                    rows[y] |= 1 << x
        return tuple(rows)

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


def _text_or_bytes(text) -> bytes | str:
    """``text`` itself when it is ``str`` or ``bytes``; any other bytes-like
    object (``bytearray``, ``memoryview``, ...) copied to ``bytes``, so the
    parsers read one immutable value."""
    return text if isinstance(text, (bytes, str)) else bytes(memoryview(text))


def _decode(text: bytes | str) -> str:
    try:
        return text.decode("utf-8") if isinstance(text, bytes) else text
    except UnicodeDecodeError as exc:
        raise MalformedKeyError(f"input is not UTF-8: {exc}") from exc


#: The decoder ``json.loads`` uses when given no options.
_JSON_DECODER = json.JSONDecoder()


def _load_json(text: str, decoder: json.JSONDecoder = _JSON_DECODER):
    """``json.loads(text)`` through ``decoder``, with its errors and its
    refusal of a leading byte order mark.  ``json.loads`` given a hook
    builds a new decoder on every call; these decoders are built once."""
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return decoder.decode(text)
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


#: Decodes choice files, refusing a menu key given twice.
_CHOICE_DECODER = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys)


@lru_cache(maxsize=PARSED_GROUND_CACHE_SIZE)
def _parsed_ground(options: tuple[str, ...]) -> GroundSet:
    """The ground set of ``options``, shared by parses with the same options
    so that its ``menu_keys`` table is built once."""
    return GroundSet(options)


def _function_from_entries(ground: GroundSet, menus: list, picks: list) -> ChoiceFunction:
    """Check ``(menu key, chosen label)`` entries in order; build the function.

    A canonical file, listing every nonempty menu's key in serialized
    order, maps its labels in bulk and leaves the membership check to
    ``ChoiceFunction``.  Any other file, and a canonical one whose bulk
    build fails, goes through the entries one at a time, so the first bad
    entry names the error: the i-th entry's key is compared with
    ``menu_keys[i]``, and any other key (out of that order, not canonical,
    or malformed) goes to ``parse_menu_key``.  Only a file with one entry
    per nonempty menu, the only count that can be complete, builds the key
    table.
    """
    index = ground.index
    keys = ground.menu_keys if len(menus) == ground.full_mask else None
    if keys is not None and menus == list(keys[1:]):
        try:
            positions = chain((-1,), map(index.__getitem__, picks))
            return ChoiceFunction(ground, np.fromiter(positions, np.int8, len(menus) + 1))
        except (KeyError, TypeError, ChoiceOutsideMenuError):
            pass
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


#: ``(format, text, function)`` of the last successful parse, or
#: ``_NO_PARSE`` while a new text is parsed and after that parse raised.
_NO_PARSE: tuple = (None, None, None)
_last_parse: tuple = _NO_PARSE


def parse_choice_function(text: bytes | str, format: str = "json") -> ChoiceFunction:
    """Parse and validate a choice function from JSON or CSV bytes.

    A JSON file that rschoice wrote is read against the writer's template
    (``_read_canonical``); any other text goes through ``json.loads``.
    Any bytes-like ``text`` is read as ``bytes``.  Given the same format
    and equal text as the last parse in this process, if that one
    succeeded, it returns that parse's function, the same object.
    """
    global _last_parse
    text = _text_or_bytes(text)
    last_format, last_text, last_cf = _last_parse
    # str never equals bytes; testing the type first keeps ``python -bb``
    # from raising BytesWarning when a str parse follows a bytes one.
    if format == last_format and type(text) is type(last_text) and text == last_text:
        return last_cf
    # Forget the last text and function before parsing another, so that
    # they never add to this parse's peak.
    del last_text, last_cf
    _last_parse = _NO_PARSE
    cf = _parse_choice_function(text, format)
    _last_parse = (format, text, cf)
    return cf


def _parse_choice_function(text: bytes | str, format: str) -> ChoiceFunction:
    if format == "json":
        cf = _read_canonical(text)
        if cf is not None:
            return cf
    text = _decode(text)
    if format == "json":
        doc = _load_json(text, _CHOICE_DECODER)
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


def structure_doc(structure) -> dict:
    """JSON document of an ``RSStructure``: its types, then both orders best-first."""
    return {
        "types": [list(b) for b in structure.types.blocks],
        "welfare": list(structure.welfare.ranking),
        "reaction": list(structure.reaction_pref.ranking),
    }


def indented_json(doc) -> str:
    """``json.dumps(doc, indent=2)`` and a newline: the text of every JSON
    report.  Strings, ints, floats, bools, None, and lists, tuples and
    dicts with string keys of these, are written by ``_indented``; for any
    other value the whole document goes through ``json.dumps``, so the
    bytes (or the error raised) are the same."""
    try:
        return _indented(doc, "\n") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2) + "\n"


def _indented(value, newline: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at the depth
    where a line break is followed by ``newline[1:]``; ``TypeError`` for a
    value it does not handle.  Strings, the most common members, are
    encoded in place without a call."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [encode_basestring_ascii(v) if type(v) is str else _indented(v, inner)
                 for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        # ``encode_basestring_ascii`` raises TypeError for a key that is not a str.
        items = [encode_basestring_ascii(k) + ": " + (
            encode_basestring_ascii(v) if type(v) is str else _indented(v, inner))
            for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY:
            return "Infinity"
        if value == -INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"{type(value).__name__} is written by json.dumps")


#: Tables ``_TextTemplate.texts`` maps to cells at once, which bounds
#: its object array of cells and row lists (about 1 MB for four options).
TEXT_BLOCK_ROWS = 4096

#: ``csv.writer``'s ``writerow`` returns what its file's ``write`` returns;
#: with ``str`` as ``write`` it returns the row's text.
_csv_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_cell(value: str) -> str:
    """``value`` as ``csv.writer`` writes it as one field of a row."""
    return _csv_row((value,))[:-1]


#: The text of the file form (json) around its cells: its start, the text
#: between two options, between the option list and the first menu key,
#: between two entries, between a key and its label, and its end.  Only
#: these hold line breaks, so each entry takes one line.
_FILE_FORM = ('{\n  "options": [\n    ', ",\n    ", '\n  ],\n  "choices": {\n    ', ",\n    ", ": ", "\n  }\n}\n")

#: The same document on one line ("line" form).
_LINE_FORM = ('{"options": [', ", ", '], "choices": {', ", ", ": ", "}}\n")


def _file_layout(n: int) -> tuple[int, int, int]:
    """The file form of a table on ``n`` options: its line breaks, how many
    of them come before the first entry, and its fewest bytes (each of the
    2^n - 1 entries holds a separator, a colon and two encoded nonempty
    strings)."""
    start, between, choices, sep, colon, end = _FILE_FORM
    head = start.count("\n") + (n - 1) * between.count("\n") + choices.count("\n")
    breaks = head + ((1 << n) - 2) * sep.count("\n") + end.count("\n")
    return breaks, head, ((1 << n) - 1) * (len(sep) + len(colon) + 6)


#: Bytes below which ``_read_canonical`` leaves a text to ``json.loads``.
_CANONICAL_READ_MIN_BYTES = _file_layout(CANONICAL_READ_MIN_SIZE)[2]


@dataclass(frozen=True, eq=False)
class _TextTemplate:
    """Tables as text in one form: ``keys``, one per mask ("" for the empty
    menu), interleaved with ``head``, then ``cells[pick]`` after each key
    but the full menu's, which ``last[pick]`` follows.  A cell holds
    everything from the end of one key to the start of the next, its
    pick's label inside; keys and labels come from the encoders
    ``json.dumps`` and ``csv.writer`` use, so each text is theirs byte for
    byte.  Only ``keys`` has 2^n entries.  ``_read_canonical`` reads the
    file form with ``cell_offsets`` and ``cell_reader``, built on first use.
    """

    keys: tuple[str, ...]
    head: str
    cells: list[str]
    last: list[str]

    def texts(self, tables: np.ndarray) -> Iterator[str]:
        """The text of each row of ``tables`` (picks laid out as
        ``ChoiceFunction.table``), in one join per row."""
        parts = [""] * (2 * len(self.keys))
        parts[0::2] = self.keys
        cells = np.array(self.cells, dtype=object)
        for start in range(0, len(tables), TEXT_BLOCK_ROWS):
            block = tables[start:start + TEXT_BLOCK_ROWS]
            for final, row in zip(block[:, -1].tolist(), cells[block].tolist()):
                row[0], row[-1] = self.head, self.last[final]
                parts[1::2] = row
                yield "".join(parts)

    @cached_property
    def cell_offsets(self) -> np.ndarray:
        """Bytes from the line break before each menu's entry to its label:
        the break and indent (``sep`` less its comma), the quoted key and
        the colon."""
        sep, colon = _FILE_FORM[3:5]
        return np.fromiter(map(len, self.keys), np.intp, len(self.keys))[1:] + len(sep) + 1 + len(colon)

    @cached_property
    def cell_reader(self) -> tuple[list[int], list[np.ndarray], np.ndarray]:
        """Which option a label cell names, read from a few of its bytes.

        A cell is read at each of ``offsets`` in turn, walking one table
        per offset: ``tables[i][state + byte]`` is the next state, states
        counted in steps of 256 and the last one dead.  Each offset splits
        one state, at a byte where its shortest label differs from another
        (an encoded label is a prefix of no other), so every label it
        splits has a byte there; the other states pass any byte.
        ``picks[state]`` is the option of a final state, -1 for the others.
        Looking each line's cell up in a dict instead makes a parse at
        n = 12 about four times slower.
        """
        cells = [cell[len(_FILE_FORM[4]) + 1:].encode("ascii") for cell in self.cells]  # from the label
        offsets, tables, states, count = [], [], [0] * len(cells), 1
        while count < len(cells):
            split = next(state for state in states if states.count(state) > 1)
            short, other = sorted((c for c, state in zip(cells, states) if state == split), key=len)[:2]
            offset = next(i for i, (x, y) in enumerate(zip(short, other)) if x != y)
            step: dict[tuple[int, int | None], int] = {}
            for i, cell in enumerate(cells):
                key = (states[i], cell[offset] if states[i] == split else None)
                states[i] = step.setdefault(key, 256 * len(step))
            table = np.full(256 * (count + 1), 256 * len(step), np.intp)
            for (state, byte), nxt in step.items():
                if byte is None:
                    table[state:state + 256] = nxt
                else:
                    table[state + byte] = nxt
            offsets.append(offset)
            tables.append(table)
            count = len(step)
        picks = np.full(256 * (count + 1), -1, np.int8)
        picks[states] = range(len(cells))
        return offsets, tables, picks


def _read_canonical(text: bytes | str) -> ChoiceFunction | None:
    """The function whose file ``text`` is, when ``text`` is byte for byte
    what ``serialize_choice_function`` writes for it; else None.

    The options come from the file's head.  Before the ground set and its
    template are built, ``text`` must hold at least as many bytes and as
    many line breaks as the file form on that many options
    (``_file_layout``), so a short or cut file builds no 2^n table.  Each
    entry then holds one line, its label cell ``cell_offsets`` bytes after
    the line break before it: neither an encoded key nor an encoded label
    holds a line break.  A few bytes of each cell name its option
    (``_TextTemplate.cell_reader``).  The text of the table so read must
    equal ``text``, and ``ChoiceFunction`` checks membership; whatever
    fails returns None, for the ``json.loads`` path to report.  Ground
    sets below ``CANONICAL_READ_MIN_SIZE`` options are left to that path,
    which is faster there.
    """
    if len(text) < _CANONICAL_READ_MIN_BYTES:
        return None
    start, _, choices = _FILE_FORM[:3]
    if isinstance(text, str):
        if not (text.startswith(start) and text.isascii()):
            return None
        text = text.encode("ascii")
    elif not text.startswith(start.encode()):
        return None
    end = text.find(choices.encode())
    if end < 0:
        return None
    try:
        options = _labels(json.loads(b"[" + text[len(start):end] + b"]"), "'options'")
    except (ValueError, RecursionError, ChoiceModelError):  # ValueError: bad JSON or UTF-8
        return None
    n = len(options)
    if not CANONICAL_READ_MIN_SIZE <= n <= MAX_GROUND_SIZE:
        return None
    count, first, least = _file_layout(n)
    if len(text) < least:
        return None
    buf = np.frombuffer(text, np.uint8)
    breaks = np.flatnonzero(buf == 10)
    if len(breaks) != count:
        return None
    try:
        ground = _parsed_ground(options)
    except ChoiceModelError:
        return None
    template = ground.text_template("json")
    # The line break before each entry; a cell starts a key's width later.
    starts = breaks[first - 1:first - 1 + ground.full_mask] + template.cell_offsets
    offsets, tables, picks = template.cell_reader
    state = np.zeros(len(starts), np.intp)
    for offset, table in zip(offsets, tables):
        state += buf.take(starts + offset, mode="clip")
        state = table.take(state)
    table = np.empty(len(starts) + 1, np.int8)
    table[0] = -1
    picks.take(state, out=table[1:])
    if table[1:].min() < 0:
        return None
    if next(template.texts(table[np.newaxis])).encode("ascii") != text:
        return None
    try:
        return ChoiceFunction(ground, table)
    except ChoiceOutsideMenuError:
        return None


def serialize_choice_function(cf: ChoiceFunction, format: str = "json") -> str:
    """Canonical textual form; menus in ascending bit-pattern order."""
    if format not in ("json", "csv"):
        raise MalformedKeyError(f"unknown format {format!r}")
    return next(cf.ground.text_template(format).texts(cf.table[np.newaxis]))


def parse_structure_json(text: bytes | str):
    """Parse the RS-structure JSON file format.

    ``{"types": [["a1","a2"],["b1"]], "welfare": [...], "reaction": [...]}``
    with both orders listed best-first.  Returns an ``RSStructure``.
    """
    from .structure import RSStructure

    doc = _load_json(_decode(_text_or_bytes(text)))
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
    return indented_json(structure_doc(structure))
