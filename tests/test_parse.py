"""The key-table parser against the per-key parser it replaced, kept here.

``reference_parse`` splits, validates and bit-builds every menu key with
``GroundSet.parse_menu_key`` and fills the table from a mask dict, as the
library did before ``GroundSet.menu_keys``.  On every input both must
return the same table over the same ground set, or raise the same error
class with the same message.  Choice-function parses with the same options
share one cached ``GroundSet``; later tests pin that reuse, the cache's
bound, and that structure parses stay out of the cache.  The last tests pin
the one-entry memos of ``parse_choice_function`` and ``reveal``, and that
both parsers read any bytes-like input as ``bytes``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rschoice import core
from rschoice.core import (
    MENU_KEY_SEPARATOR,
    PARSED_GROUND_CACHE_SIZE,
    ChoiceFunction,
    ChoiceModelError,
    DuplicateMenuError,
    ChoiceOutsideMenuError,
    GroundSet,
    InvalidGroundSetError,
    LinearOrder,
    MalformedKeyError,
    MissingMenuError,
    UnknownOptionError,
    _parsed_ground,
    choice_from_order,
    parse_choice_function,
    parse_structure_json,
    serialize_choice_function,
)
from rschoice.generators import ground_of_size, random_choice_function, random_order
from rschoice.revealed import reveal


def _reference_reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise DuplicateMenuError(f"duplicate menu key {key!r}")
        seen.add(key)
    return dict(pairs)


def _reference_function(ground: GroundSet, entries) -> ChoiceFunction:
    assignment: dict[int, int] = {}
    for key, chosen in entries:
        mask = ground.parse_menu_key(key)
        if not isinstance(chosen, str):
            raise MalformedKeyError(f"choice from {key!r} must be an option label, got {chosen!r}")
        if mask in assignment:
            raise DuplicateMenuError(f"duplicate menu key {key!r}")
        pos = ground.index.get(chosen)
        if pos is None:
            raise UnknownOptionError(f"unknown option {chosen!r} chosen from {key!r}")
        if not (mask >> pos) & 1:
            raise ChoiceOutsideMenuError(f"choice {chosen!r} is outside menu {key!r}")
        assignment[mask] = pos
    table = [-1] * (1 << ground.size)
    for mask in range(1, 1 << ground.size):
        if mask not in assignment:
            raise MissingMenuError(f"menu {MENU_KEY_SEPARATOR.join(ground.members(mask))!r} has no entry")
        table[mask] = assignment[mask]
    return ChoiceFunction(ground, tuple(table))


def reference_parse(text: str, format: str = "json") -> ChoiceFunction:
    if format == "json":
        try:
            doc = json.loads(text, object_pairs_hook=_reference_reject_duplicate_keys)
        except json.JSONDecodeError as exc:
            raise MalformedKeyError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "options" not in doc or "choices" not in doc:
            raise MalformedKeyError("expected an object with 'options' and 'choices'")
        options = doc["options"]
        if not isinstance(options, list) or not all(isinstance(v, str) for v in options):
            raise InvalidGroundSetError("'options' must be a list of option labels")
        if not isinstance(doc["choices"], dict):
            raise MalformedKeyError("'choices' must be an object mapping menu keys to options")
        ground = GroundSet(tuple(options))
        entries = list(doc["choices"].items())
    else:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if not rows or [c.strip() for c in rows[0]] != ["menu", "choice"]:
            raise MalformedKeyError("CSV must start with header 'menu,choice'")
        body = rows[1:]
        names: list[str] = []
        seen = set()
        for row in body:
            if len(row) != 2:
                raise MalformedKeyError(f"CSV row {row!r} does not have 2 fields")
            for name in row[0].split(MENU_KEY_SEPARATOR):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        ground = GroundSet(tuple(names))
        entries = [(row[0], row[1]) for row in body]
    return _reference_function(ground, entries)


def _outcome(parse, text: str, fmt: str):
    try:
        cf = parse(text, fmt)
    except ChoiceModelError as exc:
        return type(exc), str(exc)
    return cf.ground.options, cf.choices


def _assert_same(text: str, fmt: str):
    got = _outcome(parse_choice_function, text, fmt)
    assert got == _outcome(reference_parse, text, fmt), (fmt, text[:200])
    return got


def _entries(cf: ChoiceFunction) -> list[list]:
    ground = cf.ground
    return [[ground.menu_key(m), ground.options[cf.choices[m]]] for m in range(1, ground.full_mask + 1)]


def _render(options, entries, fmt: str) -> str:
    """A document with these entries in this order; JSON keeps duplicate keys."""
    if fmt == "json":
        body = ", ".join(f"{json.dumps(k)}: {json.dumps(c)}" for k, c in entries)
        return f'{{"options": {json.dumps(list(options))}, "choices": {{{body}}}}}'
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["menu", "choice"])
    writer.writerows(entries)
    return out.getvalue()


def _permute_members(rng: random.Random, key: str) -> str:
    parts = key.split(MENU_KEY_SEPARATOR)
    rng.shuffle(parts)
    return MENU_KEY_SEPARATOR.join(parts)


@pytest.mark.parametrize("size", range(2, 9))
def test_menu_key_table_joins_members_in_ground_order(size):
    ground = ground_of_size(size)
    singles = [ground.menu_key(m) for m in range(1 << size)]
    keys = ground.menu_keys
    assert len(keys) == 1 << size
    assert all(keys[m] == ",".join(ground.members(m)) for m in range(1 << size))
    assert [ground.menu_key(m) for m in range(1 << size)] == singles == list(keys)


def test_parser_matches_reference_on_random_functions():
    rng = random.Random(5)
    for _ in range(60):
        cf = random_choice_function(rng, ground_of_size(rng.randint(2, 7)))
        options = cf.ground.options
        for fmt in ("json", "csv"):
            canonical = _entries(cf)
            shuffled = rng.sample(canonical, len(canonical))
            permuted = [[_permute_members(rng, k), c] for k, c in shuffled]
            for entries in (canonical, shuffled, permuted):
                got = _assert_same(_render(options, entries, fmt), fmt)
                if fmt == "json" or entries is canonical:
                    assert got == (options, cf.choices)
                else:  # CSV options follow first appearance in the keys
                    assert sorted(got[0]) == sorted(options)


def _mutations(rng: random.Random, options, entries: list[list], fmt: str) -> dict[str, list[list]]:
    """One mutated entry list per error path, at a random entry."""
    k = rng.randrange(len(entries))
    key, chosen = entries[k]
    multi = next(i for i, e in enumerate(entries) if MENU_KEY_SEPARATOR in e[0])
    mkey, mchosen = entries[multi]
    members = mkey.split(MENU_KEY_SEPARATOR)
    single = next(i for i, e in enumerate(entries) if MENU_KEY_SEPARATOR not in e[0])
    outside = next(o for o in options if o != entries[single][0])

    def replace(i, new):
        return entries[:i] + [new] + entries[i + 1:]

    reversed_key = ",".join(reversed(members))
    cases = {
        "duplicate literal key": entries[:k + 1] + [[key, chosen]] + entries[k + 1:],
        "duplicate mask under a permuted key": entries + [[reversed_key, mchosen]],
        "permuted key then its duplicate": replace(multi, [reversed_key, mchosen]) + [entries[multi]],
        "empty member": replace(multi, [mkey.replace(",", ",,", 1), mchosen]),
        "trailing separator": replace(k, [key + ",", chosen]),
        "empty key": replace(k, ["", chosen]),
        "repeated member": replace(multi, [mkey + "," + members[0], mchosen]),
        "unknown option in key": replace(k, [key + ",zz", chosen]),
        "unknown chosen option": replace(k, [key, "zz"]),
        "choice outside its menu": replace(single, [entries[single][0], outside]),
        "missing menu": entries[:k] + entries[k + 1:],
        "missing first and last menus": entries[1:-1],
        "entries shuffled then one missing": rng.sample(entries, len(entries))[1:],
    }
    if fmt == "json":
        for name, value in (("null", None), ("number", 5), ("list", [chosen]), ("object", {"a": 1})):
            cases[f"{name} as chosen value"] = replace(k, [key, value])
    return cases


def test_parser_matches_reference_on_every_error_path():
    rng = random.Random(11)
    seen: dict[str, set] = {}
    for _ in range(40):
        cf = random_choice_function(rng, ground_of_size(rng.randint(2, 5)))
        options = cf.ground.options
        for fmt in ("json", "csv"):
            entries = _entries(cf)
            if rng.random() < 0.5:
                entries = rng.sample(entries, len(entries))
            for name, mutated in _mutations(rng, options, entries, fmt).items():
                got = _assert_same(_render(options, mutated, fmt), fmt)
                seen.setdefault(name, set()).add(got[0] if isinstance(got[0], type) else "ok")
    errors = {name: kinds for name, kinds in seen.items() if kinds - {"ok"}}
    assert set(errors) == set(seen), f"mutations that never raised: {set(seen) - set(errors)}"
    expected = {
        "duplicate literal key": DuplicateMenuError,
        "duplicate mask under a permuted key": DuplicateMenuError,
        "empty member": MalformedKeyError,
        "trailing separator": MalformedKeyError,
        "empty key": MalformedKeyError,
        "repeated member": MalformedKeyError,
        "unknown chosen option": UnknownOptionError,
        "choice outside its menu": ChoiceOutsideMenuError,
        "missing menu": MissingMenuError,
        "number as chosen value": MalformedKeyError,
    }
    for name, kind in expected.items():
        assert kind in seen[name], name


@pytest.mark.parametrize("fmt,text", [
    ("json", "not json at all"),
    ("json", "[1, 2]"),
    ("json", '{"options": ["x", "y"]}'),
    ("json", '{"options": "xy", "choices": {}}'),
    ("json", '{"options": ["x", "y"], "choices": ["x"]}'),
    ("json", '{"options": ["x", "x"], "choices": {}}'),
    ("json", '{"options": ["x"], "choices": {"x": "x"}}'),
    ("json", '{"options": ["x", "y"], "options": ["x", "y"], "choices": {}}'),
    ("json", '{"options": ["x", "y"], "choices": {}}'),
    ("json", '{"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": "x", "y,x": "y"}}'),
    ("json", '\ufeff{"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": "x"}}'),
    ("json", ' {"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": "x"}} \n'),
    ("json", '{"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": "x"}} []'),
    ("csv", ""),
    ("csv", "menu;choice\nx,x\n"),
    ("csv", "menu,choice\n"),
    ("csv", "menu,choice\nx,x\n"),
    ("csv", 'menu,choice\nx,x\ny,y\n"x,y",x,y\n'),
    ("csv", 'menu,choice\nx,x\n"x,",x\n'),
    ("csv", 'menu,choice\nx,x\ny,y\n"y,x",x\n'),
    ("csv", 'menu,choice\nx,x\ny,y\n"x,y",y\nw,w\n'),
])
def test_parser_matches_reference_on_malformed_documents(fmt, text):
    _assert_same(text, fmt)


def test_json_parses_build_no_decoder(monkeypatch, forget_memos):
    # json.loads given a hook builds a JSONDecoder per call; the parsers
    # reuse theirs, with the same results and messages.
    text = '{"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": "x"}}'
    expected = _assert_same(text, "json")

    def no_decoder(*args, **kwargs):
        raise AssertionError("a JSONDecoder was built during a parse")

    monkeypatch.setattr(json.JSONDecoder, "__init__", no_decoder)
    forget_memos()
    assert _outcome(parse_choice_function, text, "json") == expected
    assert _outcome(parse_choice_function, "\ufeff" + text, "json")[0] is MalformedKeyError
    with pytest.raises(MalformedKeyError, match="Unexpected UTF-8 BOM"):
        parse_structure_json("\ufeff{}")
    structure = '{"types": [["x", "y"], ["z"]], "welfare": ["x", "y", "z"], "reaction": ["z", "x", "y"]}'
    assert parse_structure_json(structure).types.blocks == (("x", "y"), ("z",))


def test_wrong_entry_count_is_rejected_without_building_the_key_table(monkeypatch):
    # At n = 20 the table would hold 2^20 keys (about 110 MB); a file with
    # fewer entries than menus must fail on its own keys alone.
    def unbuilt(self):
        raise AssertionError("key table built for a file with the wrong entry count")

    monkeypatch.setattr(GroundSet, "menu_keys", property(unbuilt))
    labels = [f"o{i}" for i in range(20)]
    full = ",".join(labels)
    documents = [
        ("json", json.dumps({"options": labels, "choices": {}})),
        ("json", json.dumps({"options": labels, "choices": {full: "o3", "o1,o0": "o0"}})),
        ("csv", _render(labels, [[full, "o0"]], "csv")),
    ]
    for fmt, text in documents:
        with pytest.raises(MissingMenuError, match="^menu 'o0' has no entry$"):
            parse_choice_function(text, fmt)
        _assert_same(text, fmt)


def _late_bad_entries(cf: ChoiceFunction, fmt: str) -> dict[str, list[list]]:
    """Canonical entries with one bad choice near the end of the file, at the
    menu of every option but the first."""
    entries = _entries(cf)
    late = cf.ground.full_mask ^ 1
    key, chosen = entries[late - 1]
    cases = {"unknown label": "zz", "outside-menu choice": cf.ground.options[0]}
    if fmt == "json":
        cases.update({"number": 5, "null": None, "boolean": True, "list": [chosen], "object": {}})
    return {name: entries[:late - 1] + [[key, value]] + entries[late:]
            for name, value in cases.items()}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_canonical_file_with_a_late_bad_entry_matches_reference(fmt):
    """The bulk path for canonical files falls back to the entry loop on any
    bad choice, so the error names the same entry as the reference."""
    rng = random.Random(17)
    expected = {"unknown label": UnknownOptionError, "outside-menu choice": ChoiceOutsideMenuError,
                "number": MalformedKeyError, "null": MalformedKeyError,
                "boolean": MalformedKeyError, "list": MalformedKeyError,
                "object": MalformedKeyError}
    for size in (2, 3, 5, 8):
        cf = random_choice_function(rng, ground_of_size(size))
        assert _assert_same(_render(cf.ground.options, _entries(cf), fmt), fmt) == (
            cf.ground.options, cf.choices)
        for name, entries in _late_bad_entries(cf, fmt).items():
            got = _assert_same(_render(cf.ground.options, entries, fmt), fmt)
            assert got[0] is expected[name], (name, got)
            assert repr(entries[(cf.ground.full_mask ^ 1) - 1][0]) in got[1], (name, got)


@pytest.mark.parametrize("text", [
    'menu,choice\nx,x\ny,y\n"x,y",y\n',
    'menu,choice\nb,b\na,a\n"b,a",a\nc,c\n"b,c",c\n"a,c",a\n"b,a,c",c\n',
    'menu,choice\ny,y\nx,x\n"x,y",x\nz,z\n"x,z",z\n"y,z",y\n"x,y,z",x\n',
    'menu,choice\n"x,y",x\nx,x\ny,y\n',
    'menu,choice\nx,x\nx,x\n"x,y",x\n',
    'menu,choice\nx,x\ny,y\n"x,y",x\nz,z\n"x,z",z\n"y,z",y\nw,w\n',
    'menu,choice\nx,x\n,y\n"x,y",x\n',
])
def test_csv_options_in_first_appearance_order_match_reference(text):
    """CSV files with 2^n - 1 rows, canonical or not, take their options in
    order of first appearance across the keys, as the reference does."""
    _assert_same(text, "csv")


def _parse_random(rng: random.Random, size: int, fmt: str = "json") -> ChoiceFunction:
    cf = random_choice_function(rng, ground_of_size(size))
    parsed = parse_choice_function(serialize_choice_function(cf, fmt), fmt)
    assert parsed == cf
    return parsed


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_parses_with_the_same_options_share_one_ground_set(fmt, forget_memos):
    rng = random.Random(23)
    cf = random_choice_function(rng, ground_of_size(5))
    text = serialize_choice_function(cf, fmt)
    first = parse_choice_function(text, fmt)
    forget_memos()
    second = parse_choice_function(text, fmt)
    assert first == second == cf and first is not second
    assert first.ground is second.ground
    other = _parse_random(rng, 3, fmt)
    assert other.ground is not first.ground
    assert other.ground.options == ("o0", "o1", "o2")
    assert parse_choice_function(text, fmt).ground is first.ground


@pytest.mark.parametrize("fmt, text", [
    ("json", '{"options": ["x", "y", "x"], "choices": {}}'),
    ("json", '{"options": ["x", ""], "choices": {}}'),
    ("json", '{"options": ["x", "a,b"], "choices": {}}'),
    ("json", '{"options": ["x"], "choices": {"x": "x"}}'),
    ("csv", 'menu,choice\nx,x\n",x",x\n'),
    ("csv", 'menu,choice\nx,x\n'),
])
def test_invalid_options_raise_the_same_error_on_every_parse(fmt, text):
    cached = _parsed_ground.cache_info().currsize
    first = _assert_same(text, fmt)
    assert first[0] is InvalidGroundSetError
    for _ in range(3):
        assert _assert_same(text, fmt) == first
    assert _parsed_ground.cache_info().currsize == cached


def test_parsed_ground_cache_holds_at_most_its_stated_size():
    assert _parsed_ground.cache_info().maxsize == PARSED_GROUND_CACHE_SIZE == 2
    rng = random.Random(29)
    sizes = range(2, PARSED_GROUND_CACHE_SIZE + 4)
    grounds = [_parse_random(rng, size).ground for size in sizes]
    assert _parsed_ground.cache_info().currsize == PARSED_GROUND_CACHE_SIZE
    assert _parse_random(rng, sizes[0]).ground is not grounds[0]
    assert _parse_random(rng, sizes[-1]).ground is grounds[-1]


_STRUCTURE_TEXTS = [
    '{"types": [["a", "b"], ["c"]], "welfare": ["a", "b", "c"], "reaction": ["c", "b", "a"]}',
    '{"types": [["a", "b"], ["c"]], "welfare": ["a", "b", "a"], "reaction": ["c", "b", "a"]}',
    '{"types": [["a"], [""]], "welfare": ["a", ""], "reaction": ["a", ""]}',
    '{"types": [["a"], ["b,c"]], "welfare": ["a", "b,c"], "reaction": ["a", "b,c"]}',
    '{"types": [["a"]], "welfare": ["a"], "reaction": ["a"]}',
    '{"types": [["a", "b"]], "welfare": ["a", "b"], "reaction": ["a", "b", "c"]}',
    '{"types": [["a", "z"]], "welfare": ["a", "b"], "reaction": ["a", "b"]}',
    '{"types": "ab", "welfare": ["a", "b"], "reaction": ["a", "b"]}',
    '{"types": [["a", "b"]], "welfare": "ab", "reaction": ["a", "b"]}',
    '{"types": [["a", "b"]], "welfare": ["a", "b"]}',
    '["a", "b"]',
    '{"types": [',
    json.dumps({"types": [[f"o{i}" for i in range(25)]], "welfare": [f"o{i}" for i in range(25)],
                "reaction": [f"o{i}" for i in range(25)]}),
]


def _structure_outcome(text: str):
    try:
        s = parse_structure_json(text)
    except ChoiceModelError as exc:
        return type(exc), str(exc)
    return s.ground.options, s.types.blocks, s.welfare.ranking, s.reaction_pref.ranking


@pytest.mark.parametrize("text", _STRUCTURE_TEXTS)
def test_structure_parse_shares_the_ground_and_keeps_its_errors(text, monkeypatch):
    """The structure's types and orders share one ground set, built fresh
    outside the parsed-ground cache: a structure lists its options in welfare
    order, a key no choice file shares.  Outcomes, errors included, do not
    depend on the cache, and a structure parse leaves the cache untouched."""
    got = [_structure_outcome(text) for _ in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(core, "_parsed_ground", GroundSet)
        assert got == [_structure_outcome(text)] * 3
    if not isinstance(got[0][0], type):
        before = _parsed_ground.cache_info()
        first, second = parse_structure_json(text), parse_structure_json(text)
        assert _parsed_ground.cache_info() == before
        assert first.types.ground is first.ground is first.welfare.ground
        assert first.ground == second.ground
        cf = choice_from_order(LinearOrder(first.ground, first.welfare.ranking))
        assert parse_choice_function(serialize_choice_function(cf)).ground == first.ground


def test_structure_parse_does_not_evict_a_choice_file_ground():
    """Choice file, structure on the same labels in another order, choice
    file again: the structure parse leaves the cache alone, and the last
    parse hits it and returns the first ground.  A second choice file parsed
    in between fills the other slot, as interleaved sizes do in a batch."""
    rng = random.Random(31)
    text = serialize_choice_function(random_choice_function(rng, ground_of_size(4)))
    first = parse_choice_function(text)
    _parse_random(rng, 3)
    doc = {"types": [["o3", "o1"], ["o2", "o0"]], "welfare": ["o3", "o2", "o1", "o0"],
           "reaction": ["o0", "o1", "o2", "o3"]}
    before = _parsed_ground.cache_info()
    parse_structure_json(json.dumps(doc))
    assert _parsed_ground.cache_info() == before
    again = parse_choice_function(text)
    assert _parsed_ground.cache_info().hits == before.hits + 1
    assert again.ground is first.ground


def test_equal_text_returns_the_last_parsed_function():
    rng = random.Random(37)
    text = serialize_choice_function(random_choice_function(rng, ground_of_size(5))).encode()
    first = parse_choice_function(text)
    assert parse_choice_function(bytes(bytearray(text))) is first
    assert parse_choice_function(text.decode()) == first


def test_str_and_bytes_parses_in_turn_compare_no_str_with_bytes():
    """Under ``python -bb`` a comparison of bytes with str raises."""
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "detergent.json"
    code = ("import sys; from rschoice.core import parse_choice_function as parse; "
            "text = open(sys.argv[1], 'rb').read(); "
            "sys.exit(not parse(text) == parse(text.decode()) == parse(text))")
    src = str(Path(core.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-bb", "-c", code, str(fixture)], env=env, check=True, timeout=60)


@pytest.mark.parametrize("fmt, other", [("json", "csv"), ("csv", "json")])
def test_the_other_format_parses_or_fails_on_its_own(fmt, other):
    """A text given with the other format is parsed as that format: here it
    fails on every call instead of returning the function stored for its
    own format."""
    cf = random_choice_function(random.Random(41), ground_of_size(4))
    text = serialize_choice_function(cf, fmt)
    first = parse_choice_function(text, fmt)
    assert parse_choice_function(text, fmt) is first
    for _ in range(2):
        with pytest.raises(MalformedKeyError):
            parse_choice_function(text, other)
    assert parse_choice_function(text, fmt) == first
    assert parse_choice_function(serialize_choice_function(cf, other), other) == first


def test_a_failing_text_raises_every_time_and_stores_nothing():
    """A failing parse leaves the memo empty: the good text parsed before it
    is parsed again, to an equal function."""
    text = serialize_choice_function(random_choice_function(random.Random(43), ground_of_size(4)))
    first = parse_choice_function(text)
    bad = text.replace('"o0,o1": "o0"', '"o0,o1": "o2"').replace('"o0,o1": "o1"', '"o0,o1": "o2"')
    assert bad != text
    messages = set()
    for _ in range(3):
        with pytest.raises(ChoiceOutsideMenuError) as exc:
            parse_choice_function(bad)
        messages.add(str(exc.value))
    assert messages == {"choice 'o2' is outside menu 'o0,o1'"}
    assert core._last_parse == core._NO_PARSE
    again = parse_choice_function(text)
    assert again == first and again is not first
    assert parse_choice_function(text) is again


def test_another_text_is_parsed_with_the_last_one_let_go(monkeypatch):
    """While a new text is parsed, neither the memo nor the parse call holds
    the last text, so the memo adds no text to a parse's peak memory."""
    rng = random.Random(67)
    old, new = (serialize_choice_function(random_choice_function(rng, ground_of_size(5))).encode()
                for _ in range(2))
    parse_choice_function(old)
    held = sys.getrefcount(old)  # counts the memo's reference
    during = []
    parse = core._parse_choice_function

    def watched(text, fmt):
        during.append((core._last_parse, sys.getrefcount(old)))
        return parse(text, fmt)

    monkeypatch.setattr(core, "_parse_choice_function", watched)
    cf = parse_choice_function(new)
    assert during == [(core._NO_PARSE, held - 1)]
    assert core._last_parse == ("json", new, cf)


@pytest.mark.parametrize("wrap", [lambda buffer: buffer, memoryview], ids=["bytearray", "memoryview"])
def test_a_buffer_changed_between_parses_gives_its_new_function(wrap):
    ground = ground_of_size(6)
    first, second = (choice_from_order(random_order(random.Random(seed), ground))
                     for seed in (47, 53))
    old, new = (serialize_choice_function(cf).encode() for cf in (first, second))
    assert len(old) == len(new) and first != second
    buffer = bytearray(old)
    source = wrap(buffer)
    assert parse_choice_function(source) == first
    buffer[:] = new
    assert parse_choice_function(source) == second


def test_reveal_returns_one_report_per_function_object():
    cf = random_choice_function(random.Random(59), ground_of_size(5))
    report = reveal(cf)
    assert reveal(cf) is report
    copy = ChoiceFunction(cf.ground, cf.table)
    assert copy == cf
    fresh = reveal(copy)
    assert fresh is not report and fresh == report
    assert reveal(copy) is fresh


def test_a_shared_report_refuses_writes_to_its_witnesses():
    cf = choice_from_order(LinearOrder(ground_of_size(3), ("o0", "o1", "o2")))
    witness = reveal(cf).witness
    with pytest.raises(TypeError):
        witness[("o0", "o1")] = "o2"
    assert dict(witness) == {} and reveal(cf).witness == {}


_STRUCTURE = b'{"types": [["x", "y"], ["z"]], "welfare": ["x", "y", "z"], "reaction": ["z", "x", "y"]}'


@pytest.mark.parametrize("view", [bytearray, memoryview])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bytes_like_input_parses_as_bytes(view, fmt):
    cf = random_choice_function(random.Random(61), ground_of_size(6))
    text = serialize_choice_function(cf, fmt).encode()
    assert parse_choice_function(view(text), fmt) == cf
    short = serialize_choice_function(random_choice_function(random.Random(61), ground_of_size(3)), fmt)
    assert parse_choice_function(view(short.encode()), fmt) == parse_choice_function(short, fmt)
    for bad in (b"\xff", b"{", b'menu,choice\nx,x\ny,y\n"x,y",z\n'):
        got = _outcome(parse_choice_function, view(bad), fmt)
        assert issubclass(got[0], ChoiceModelError)
        assert got == _outcome(parse_choice_function, bad, fmt)
    assert parse_structure_json(view(_STRUCTURE)) == parse_structure_json(_STRUCTURE)
    with pytest.raises(MalformedKeyError):
        parse_structure_json(view(b"\xff"))
