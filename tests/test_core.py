from __future__ import annotations

import contextlib
import csv
import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rschoice.core import (
    ChoiceFunction,
    ChoiceOutsideMenuError,
    DuplicateMenuError,
    GroundSet,
    GroundSetTooLargeError,
    InvalidGroundSetError,
    LinearOrder,
    MalformedKeyError,
    MissingMenuError,
    TypePartition,
    UnknownOptionError,
    choice_from_order,
    enumerate_choice_functions,
    enumerate_menus,
    enumerate_tables,
    indented_json,
    parse_choice_function,
    serialize_choice_function,
)
from rschoice.axioms import check_iia
from rschoice.cli import main
from rschoice.generators import random_choice_function
from rschoice.revealed import reveal_reaction

from conftest import cf_from, choice_function_doc


def test_ground_set_rejects_bad_identifiers():
    with pytest.raises(InvalidGroundSetError):
        GroundSet(("x",))
    with pytest.raises(InvalidGroundSetError):
        GroundSet(("x", "x"))
    with pytest.raises(InvalidGroundSetError):
        GroundSet(("x", "a,b"))
    with pytest.raises(InvalidGroundSetError):
        GroundSet(("x", ""))
    with pytest.raises(InvalidGroundSetError, match="not encodable as UTF-8"):
        GroundSet(("\ud800", "b"))
    with pytest.raises(GroundSetTooLargeError):
        GroundSet(tuple(f"o{i}" for i in range(25)))


@pytest.mark.parametrize("size,count", [(2, 3), (3, 7), (4, 15)])
def test_menu_enumeration_count(size, count):
    ground = GroundSet(tuple(f"o{i}" for i in range(size)))
    menus = list(enumerate_menus(ground))
    assert len(menus) == count
    assert menus == sorted(menus)


def test_menu_sequence_for_two_options():
    ground = GroundSet(("x", "y"))
    keys = [ground.menu_key(m) for m in enumerate_menus(ground)]
    assert keys == ["x", "y", "x,y"]


@pytest.mark.parametrize("size", range(2, 9))
def test_menu_key_reads_the_table_only_once_it_is_built(size):
    options = tuple(f"o{i}" for i in range(size))

    def joined(mask):
        return ",".join(options[i] for i in range(size) if mask >> i & 1)

    fresh = GroundSet(options)
    for m in enumerate_menus(fresh):
        assert fresh.menu_key(m) == joined(m)
    assert "menu_keys" not in fresh.__dict__
    built = GroundSet(options)
    table = built.menu_keys
    for m in enumerate_menus(built):
        assert built.menu_key(m) == joined(m)
        assert built.menu_key(m) is table[m]


def test_choice_from_order_maximizes():
    ground = GroundSet(("x", "y", "z"))
    cf = choice_from_order(LinearOrder(ground, ("x", "y", "z")))
    assert cf.choose(["x", "y", "z"]) == "x"
    assert cf.choose(["y", "z"]) == "y"
    assert cf.choose(["z"]) == "z"
    assert check_iia(cf).holds
    reaction, _ = reveal_reaction(cf)
    assert reaction.is_empty()


def test_choice_function_validation():
    ground = GroundSet(("x", "y"))
    with pytest.raises(ChoiceOutsideMenuError):
        ChoiceFunction(ground, (-1, 0, 0, 0))  # menu {y} assigned x
    with pytest.raises(MissingMenuError):
        ChoiceFunction(ground, (-1, 0, 1))


@pytest.mark.parametrize("choices,message", [
    ((-1, 0, -1, 1), r"^choice -1 from menu 'y' is not an option position 0\.\.1$"),
    ((-1, 0, 1, 5), r"^choice 5 from menu 'x,y' is not an option position 0\.\.1$"),
    ((-1, 0, 1, 10**100), r"^choice 1000.* from menu 'x,y' is not an option position"),
    ((-1, 0.0, 1, 0), r"^choice 0\.0 from menu 'x' is not an option position 0\.\.1$"),
    ((-1, "x", 1, 0), r"^choice 'x' from menu 'x' is not an option position 0\.\.1$"),
    ((-1, None, 1, 0), r"^choice None from menu 'x' is not an option position 0\.\.1$"),
    ((-1, 0, 0, 0), r"^chosen option 'x' is outside menu 'y'$"),
    ((0, 0, 1, 0), r"^entry 0 \(the empty menu\) must be -1, got 0$"),
    ((None, 0, 1, 0), r"^entry 0 \(the empty menu\) must be -1, got None$"),
])
def test_choice_function_rejects_bad_picks_with_a_coded_error(choices, message):
    with pytest.raises(ChoiceOutsideMenuError, match=message):
        ChoiceFunction(GroundSet(("x", "y")), choices)


@pytest.mark.parametrize("bad", [1 << 16, (1 << 16) + 5])
def test_choice_function_names_the_first_bad_pick_past_the_first_block(bad):
    # Membership is checked in blocks of 2^16 menus; at 17 options the first
    # bad pick lies in the second block and a later one is not reported.
    ground = GroundSet(tuple(f"o{i}" for i in range(17)))
    table = np.array(choice_from_order(LinearOrder(ground, ground.options)).table)
    table[bad] = 1
    table[(1 << 17) - 2] = 0
    message = f"^chosen option 'o1' is outside menu {ground.menu_key(bad)!r}$"
    with pytest.raises(ChoiceOutsideMenuError, match=message):
        ChoiceFunction(ground, table)


def test_choice_function_table_is_a_read_only_int8_view_of_choices():
    cf = choice_from_order(LinearOrder(GroundSet(("x", "y", "z")), ("z", "x", "y")))
    assert cf.table.dtype == np.int8
    assert cf.table.tolist() == list(cf.choices)
    assert cf.table[0] == -1
    assert cf.table is cf.table
    with pytest.raises(ValueError):
        cf.table[1] = 0


@pytest.mark.parametrize("size,count", [(2, 2), (3, 24), (4, 20736)])
def test_enumerate_choice_functions_count(size, count):
    ground = GroundSet(tuple(f"o{i}" for i in range(size)))
    seen = set()
    for cf in enumerate_choice_functions(ground):
        seen.add(cf.choices)
    assert len(seen) == count


def test_enumerate_choice_functions_guard():
    ground = GroundSet(tuple(f"o{i}" for i in range(5)))
    with pytest.raises(GroundSetTooLargeError):
        next(enumerate_choice_functions(ground))


def test_parse_json_happy_path():
    text = '{"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": "x"}}'
    cf = parse_choice_function(text)
    assert cf.choose(["x", "y"]) == "x"


def test_parse_error_taxonomy():
    with pytest.raises(MissingMenuError):
        parse_choice_function('{"options": ["x","y"], "choices": {"x": "x", "y": "y"}}')
    with pytest.raises(UnknownOptionError):
        parse_choice_function(
            '{"options": ["x","y"], "choices": {"x": "x", "y": "y", "x,y": "z"}}'
        )
    with pytest.raises(ChoiceOutsideMenuError):
        parse_choice_function(
            '{"options": ["x","y"], "choices": {"x": "x", "y": "x", "x,y": "x"}}'
        )
    with pytest.raises(DuplicateMenuError):
        parse_choice_function(
            '{"options": ["x","y"], "choices": {"x": "x", "y": "y", "x,y": "x", "x,y": "y"}}'
        )
    with pytest.raises(MalformedKeyError):
        parse_choice_function(
            '{"options": ["x","y"], "choices": {"x": "x", "y": "y", "x,,y": "x"}}'
        )
    with pytest.raises(MalformedKeyError):
        parse_choice_function("not json at all")


def test_parse_csv_round_trip():
    cf = cf_from(("x", "y", "z"), {"x,y": "y", "y,z": "z", "x,z": "x", "x,y,z": "z"})
    text = serialize_choice_function(cf, format="csv")
    again = parse_choice_function(text, format="csv")
    assert again.choices == cf.choices
    assert again.ground.options == cf.ground.options


def test_csv_requires_header():
    with pytest.raises(MalformedKeyError):
        parse_choice_function("menu;choice\nx,x\n", format="csv")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_serialize_parse_round_trip_is_byte_stable(data):
    size = data.draw(st.integers(min_value=2, max_value=4))
    ground = GroundSet(tuple(f"o{i}" for i in range(size)))
    table = [-1] * (1 << size)
    for mask in range(1, 1 << size):
        members = [i for i in range(size) if (mask >> i) & 1]
        table[mask] = data.draw(st.sampled_from(members))
    cf = ChoiceFunction(ground, tuple(table))
    for fmt in ("json", "csv"):
        text = serialize_choice_function(cf, format=fmt)
        again = parse_choice_function(text, fmt)
        assert again.choices == cf.choices
        assert serialize_choice_function(again, format=fmt) == text


# Labels that JSON or CSV must escape, and % and { that a format string would read.
LABELS = st.lists(
    st.text(st.sampled_from('ab\u00e9\u2603"\\%{} \t\n\r'), min_size=1, max_size=3),
    min_size=2, max_size=4, unique=True,
)


@settings(max_examples=60, deadline=None)
@given(labels=LABELS, seed=st.integers(0, 2**32), limit=st.integers(0, 30))
def test_writers_match_json_dumps_and_csv_writer(labels, seed, limit):
    ground = GroundSet(tuple(labels))
    cf = random_choice_function(random.Random(seed), ground)
    doc = choice_function_doc(ground, cf.table)
    assert serialize_choice_function(cf) == json.dumps(doc, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["menu", "choice"])
    writer.writerows(doc["choices"].items())
    assert serialize_choice_function(cf, "csv") == out.getvalue()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["enumerate", "--options", ",".join(labels), "--limit", str(limit)]) == 0
    tables = enumerate_tables(ground)[:limit]
    assert printed.getvalue() == "".join(json.dumps(choice_function_doc(ground, t)) + "\n"
                                         for t in tables)


@pytest.mark.parametrize("options", [("x", "y"), tuple(f"o{i}" for i in range(9)),
                                     ("a", 'q"t', "b\\s", "\u00e9")])
def test_templates_hold_one_cell_per_option_and_share_the_key_table(options):
    """The only 2^n table a template holds is its keys, and the json and
    line forms share ``menu_keys`` unless a label needs JSON escaping."""
    ground = GroundSet(options)
    plain = all(json.dumps(label)[1:-1] == label for label in options)
    for form in ("json", "line", "csv"):
        template = ground.text_template(form)
        assert ground.text_template(form) is template
        assert len(template.cells) == len(template.last) == len(options)
        assert isinstance(template.head, str) and len(template.keys) == 1 << len(options)
        assert set(vars(template)) == {"keys", "head", "cells", "last"}
        shared = form != "csv" and plain
        assert (template.keys is ground.menu_keys) == shared
        if form != "csv" and not plain:
            assert list(template.keys) == [json.dumps(key)[1:-1] for key in ground.menu_keys]


#: JSON leaves: NaN, infinities, -0.0, numpy floats, ints past 64 bits,
#: and text with non-ASCII, control and escaped characters.
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 0.0])
    | st.floats().map(np.float64) | st.text(st.characters(codec="utf-8"), max_size=4)
    | st.text(st.sampled_from('a\u00e9\u2603\U0001f600"\\\x00\x1f\x7f\n\t'), max_size=4)
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=JSON_DOCS)
def test_indented_json_matches_json_dumps(doc):
    assert indented_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{1: "int key"}, {"a": {None: [1.5]}}, [{2.5: [], True: 0}]])
def test_indented_json_writes_other_keys_through_json_dumps(doc):
    assert indented_json(doc) == json.dumps(doc, indent=2) + "\n"


def test_indented_json_raises_what_json_dumps_raises():
    for doc in ([object()], {(1, 2): 3}, [np.int64(3)], {"x": np.bool_(True)}):
        with pytest.raises(TypeError):
            indented_json(doc)
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        indented_json(loop)


def test_partition_validation():
    ground = GroundSet(("x", "y", "z"))
    with pytest.raises(InvalidGroundSetError):
        TypePartition(ground, (("x", "y"),))  # misses z
    with pytest.raises(InvalidGroundSetError):
        TypePartition(ground, (("x", "y"), ("y", "z")))
    part = TypePartition(ground, (("z",), ("y", "x")))
    assert part.blocks == (("x", "y"), ("z",))  # canonical order


def test_partition_from_masks():
    ground = GroundSet(("x", "y", "z"))
    for bad in ((0b011,), (0b011, 0b110), (0b011, 0b100, 0), (0b0011, 0b1100)):
        with pytest.raises(InvalidGroundSetError):
            TypePartition.from_masks(ground, bad)
    part = TypePartition.from_masks(ground, (0b100, 0b011))
    assert part == TypePartition(ground, (("z",), ("y", "x")))
    assert hash(part) == hash(TypePartition(ground, (("x", "y"), ("z",))))
    assert part.blocks == (("x", "y"), ("z",)) and part.block_masks() == (0b011, 0b100)
    assert TypePartition.from_block_of(ground, [1, 0, 1]).blocks == (("x", "z"), ("y",))


def test_linear_order_is_permutation():
    ground = GroundSet(("x", "y"))
    with pytest.raises(InvalidGroundSetError):
        LinearOrder(ground, ("x", "x"))
    order = LinearOrder(ground, ("y", "x"))
    assert order.prefers("y", "x")
    assert not order.prefers("x", "y")
