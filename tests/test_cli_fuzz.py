"""``rschoice.cli.main`` on arbitrary and near-valid input files.

Whatever the bytes, every file-reading subcommand must exit 0, 1 or 2, an
exit 2 must come with exactly one coded ``{"error": ...}`` line on stderr,
and nothing may escape ``main`` as an exception (a traceback at the
command line).  Near-valid documents are serialized choice functions and
structures (n <= 5) with one small edit, so most of them reach the checks
behind the JSON and CSV syntax.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rschoice.cli import main
from rschoice.core import serialize_choice_function, serialize_structure_json
from rschoice.generators import (
    ground_of_size,
    random_choice_function,
    random_single_peaked_structure,
)

CHOICE_COMMANDS = (
    ["check-axioms"],
    ["check-axioms", "--cap", "0"],
    ["reveal", "--cross-check"],
    ["synthesize"],
    ["welfare", "--transitive-closure"],
)
FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
)


def _edit(draw, text: str) -> bytes:
    """``text`` with at most one small byte-level or label-level edit."""
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    lines = text.splitlines(keepends=True)
    line = draw(st.integers(0, len(lines) - 1))
    labels = [f"o{i}" for i in range(5) if f"o{i}" in text]
    kind = draw(st.sampled_from(
        ["none", "truncate", "insert", "delete", "drop-line", "repeat-line", "relabel"]
    ))
    if kind == "truncate":
        return data[:at]
    if kind == "insert":
        return data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 8)):]
    if kind == "drop-line":
        return "".join(lines[:line] + lines[line + 1:]).encode()
    if kind == "repeat-line":
        return "".join(lines[:line + 1] + lines[line:]).encode()
    if kind == "relabel" and labels:
        old = draw(st.sampled_from(labels))
        new = draw(st.sampled_from(labels + ["o9", "", "o0,o1", "5"]))
        return text.replace(old, new, draw(st.integers(1, 3))).encode()
    return data


@st.composite
def choice_documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cf = random_choice_function(rng, ground_of_size(draw(st.integers(2, 5))))
    fmt = draw(st.sampled_from(["json", "csv"]))
    return _edit(draw, serialize_choice_function(cf, fmt)), fmt


@st.composite
def structure_documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    structure = random_single_peaked_structure(rng, ground_of_size(draw(st.integers(2, 5))))
    return _edit(draw, serialize_structure_json(structure))


def _run(tmp_path_factory, argv: list[str], data: bytes):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code: int, out: str, err: str):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "error" in json.loads(err)
    else:
        assert err == ""


@FUZZ
@given(data=st.binary(max_size=300), fmt=st.sampled_from(["json", "csv"]),
       command=st.sampled_from(CHOICE_COMMANDS + (["freedom"],)))
def test_arbitrary_bytes_exit_cleanly(tmp_path_factory, data, fmt, command):
    argv = command if command == ["freedom"] else [*command, "--format", fmt]
    _assert_clean_exit(*_run(tmp_path_factory, argv, data))


@settings(FUZZ, max_examples=300)
@given(doc=choice_documents(), command=st.sampled_from(CHOICE_COMMANDS))
def test_near_valid_choice_documents_exit_cleanly(tmp_path_factory, doc, command):
    data, fmt = doc
    _assert_clean_exit(*_run(tmp_path_factory, [*command, "--format", fmt], data))


@FUZZ
@given(data=structure_documents())
def test_near_valid_structure_documents_exit_cleanly(tmp_path_factory, data):
    _assert_clean_exit(*_run(tmp_path_factory, ["freedom"], data))
