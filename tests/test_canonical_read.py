"""The template reader of canonical choice files against the json path.

``parse_choice_function`` first reads a JSON file against the writer's
template (``core._read_canonical``) and sends anything that is not the
writer's text to ``json.loads``.  ``reference_parse_choice_function`` is
that ``json.loads`` path on its own, as the library ran it before the
template reader, without the cached ground set and without the bulk
build of canonical files (the entry loop gives the same outcome, which
``test_parse`` checks).  The writer's text of any table must take the
template reader and give the reference's function; a file one edit away
from it must give the reference's function or raise the reference's
error class with the same message.
"""

from __future__ import annotations

import json
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rschoice import core
from rschoice.core import (
    CANONICAL_READ_MIN_SIZE,
    ChoiceFunction,
    ChoiceModelError,
    ChoiceOutsideMenuError,
    DuplicateMenuError,
    GroundSet,
    InvalidGroundSetError,
    MalformedKeyError,
    MissingMenuError,
    UnknownOptionError,
    parse_choice_function,
    serialize_choice_function,
)
from rschoice.generators import ground_of_size, random_choice_function


def _reference_reject_duplicate_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DuplicateMenuError(f"duplicate menu key {key!r}")
            seen.add(key)
    return doc


def _reference_function(ground: GroundSet, menus: list, picks: list) -> ChoiceFunction:
    index = ground.index
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


def reference_parse_choice_function(text: bytes | str) -> ChoiceFunction:
    """A JSON choice file through ``json.loads`` alone."""
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
    except UnicodeDecodeError as exc:
        raise MalformedKeyError(f"input is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_reference_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise MalformedKeyError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedKeyError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or "options" not in doc or "choices" not in doc:
        raise MalformedKeyError("expected an object with 'options' and 'choices'")
    options = doc["options"]
    if not isinstance(options, list) or not all(isinstance(v, str) for v in options):
        raise InvalidGroundSetError("'options' must be a list of option labels")
    if not isinstance(doc["choices"], dict):
        raise MalformedKeyError("'choices' must be an object mapping menu keys to options")
    ground = GroundSet(tuple(options))
    return _reference_function(ground, list(doc["choices"]), list(doc["choices"].values()))


def _outcome(parse, data):
    try:
        return parse(data)
    except ChoiceModelError as exc:
        return type(exc), str(exc)


# Labels JSON must escape (quote, backslash, control characters, non-ASCII),
# long ones, and ones made of the file's own punctuation.  Lone surrogates
# are left out: ``GroundSet`` rejects them.
TRICKY = ['a"b', "x\\", "\x00", "\n", "\t\r", "é", "日本", "\U0001f600",
          'x": ', '"', ": ", "]", "}\n", "    ", "a" * 9, "a" * 8 + "b", "é" * 12]
LABEL = st.one_of(
    st.sampled_from(TRICKY),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=","),
            min_size=1, max_size=24),
)


def _labels(size: int):
    return st.lists(LABEL, min_size=size, max_size=size, unique=True)


READER = settings(max_examples=80, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])


@READER
@example(labels=[f"o{i}" for i in range(12)], seed=12)
@example(labels=TRICKY[:12], seed=13)
@given(labels=st.integers(CANONICAL_READ_MIN_SIZE, 9).flatmap(_labels),
       seed=st.integers(0, 2**32 - 1))
def test_template_reader_takes_the_writers_text(labels, seed):
    ground = GroundSet(tuple(labels))
    cf = random_choice_function(random.Random(seed), ground)
    text = serialize_choice_function(cf)
    reference = reference_parse_choice_function(text)
    assert reference == cf
    for data in (text, text.encode()):
        got = core._read_canonical(data)
        assert got == reference
        assert got.ground is core._parsed_ground(ground.options)
        assert not got.table.flags.writeable


def test_template_reader_leaves_small_ground_sets_to_json():
    rng = random.Random(3)
    for size in range(2, CANONICAL_READ_MIN_SIZE):
        cf = random_choice_function(rng, ground_of_size(size))
        assert core._read_canonical(serialize_choice_function(cf)) is None
        assert parse_choice_function(serialize_choice_function(cf)) == cf


def test_short_file_on_many_options_builds_no_table():
    """A file of about 1 KB that starts as the writer's does on 20 options,
    with an entry for each one-option menu, cut off or closed, fails as on
    the json path without building the 2^20 key table or the template of
    its ground set."""
    options = [f"option-{i:02d}" for i in range(20)]
    head = ('{\n  "options": [\n    ' + ",\n    ".join(map(json.dumps, options))
            + '\n  ],\n  "choices": {\n    ')
    cut = head + ",\n    ".join(f'"{o}": "{o}"' for o in options)
    closed = cut + "\n  }\n}\n"
    assert len(cut) > 900
    core._parsed_ground.cache_clear()
    assert _outcome(parse_choice_function, cut)[0] is MalformedKeyError
    assert _outcome(parse_choice_function, cut) == _outcome(reference_parse_choice_function, cut)
    assert core._parsed_ground.cache_info().currsize == 0
    assert _outcome(parse_choice_function, closed) == (
        MissingMenuError, "menu 'option-00,option-01' has no entry")
    assert _outcome(parse_choice_function, closed) == _outcome(reference_parse_choice_function, closed)
    ground = core._parsed_ground(tuple(options))
    assert core._parsed_ground.cache_info().currsize == 1
    assert "menu_keys" not in ground.__dict__
    assert "_text_templates" not in ground.__dict__


def _entry(ground: GroundSet, mask: int, label: str, last: bool) -> str:
    cells = map(json.encoder.encode_basestring_ascii, (ground.menu_keys[mask], label))
    return "    " + ": ".join(cells) + ("" if last else ",")


@st.composite
def near_canonical_files(draw, size: int = 7):
    """The writer's text at ``size`` options with at most one edit."""
    ground = GroundSet(tuple(draw(_labels(size))))
    cf = random_choice_function(random.Random(draw(st.integers(0, 2**32 - 1))), ground)
    text = serialize_choice_function(cf)
    data = text.encode()
    lines = text.split("\n")
    first, last = size + 4, size + 4 + ground.full_mask - 1  # entry lines
    line = draw(st.integers(first, last))
    mask = line - first + 1
    at = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["none", "flip", "insert", "delete", "duplicate", "swap",
                                 "indent", "reindent", "drop-newline", "non-member",
                                 "unknown"]))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=1)) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    if kind == "duplicate":
        lines.insert(line, lines[min(line, last - 1)])
    elif kind == "swap":
        other = draw(st.integers(first, last - 1))
        line = min(line, last - 1)
        lines[line], lines[other] = lines[other], lines[line]
    elif kind == "indent":
        lines[line] = draw(st.sampled_from(["", " ", "\t"])) + lines[line].lstrip(" ")
    elif kind == "reindent":
        indent = draw(st.sampled_from([None, 0, 1, 4]))
        return (json.dumps(json.loads(text), indent=indent) + "\n").encode()
    elif kind == "drop-newline":
        return data[:-1]
    elif kind in ("non-member", "unknown"):
        outside = [o for i, o in enumerate(ground.options) if not mask >> i & 1]
        if kind == "unknown" or not outside:
            label = draw(st.sampled_from(["zz", ground.options[0] + "x"]))
            if label in ground.index:
                label = "zz"
        else:
            label = draw(st.sampled_from(outside))
        lines[line] = _entry(ground, mask, label, line == last)
    return "\n".join(lines).encode()


@settings(READER, max_examples=300)
@given(data=near_canonical_files())
def test_one_edit_from_the_writers_text_matches_the_json_path(data):
    assert _outcome(parse_choice_function, data) == _outcome(reference_parse_choice_function, data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert _outcome(parse_choice_function, text) == _outcome(reference_parse_choice_function, text)
