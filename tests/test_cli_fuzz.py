"""``rschoice.cli.main`` on arbitrary input files and flag values.

Whatever the bytes, every file-reading subcommand must exit 0, 1 or 2, an
exit 2 must come with exactly one coded ``{"error": ...}`` line on stderr,
and nothing may escape ``main`` as an exception (a traceback at the
command line).  Near-valid documents are serialized choice functions and
structures (n <= 5) with one small edit, so most of them reach the checks
behind the JSON and CSV syntax.

The same holds for flag values that argparse accepts: huge and negative
ints, and floats that are NaN, infinite or next to a bound of their
parameter, in ``check-axioms --cap``, ``enumerate --limit``, the
``simulate-culture`` parameters (with ``--horizon 1``) and the ``sweep``
ranges.  Valid values stay small, so every example runs in milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys

from hypothesis import HealthCheck, example, given, settings
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


def _run_flags(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(tmp_path_factory, argv: list[str], data: bytes):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    return _run_flags([argv[0], str(path), *argv[1:]])


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


# --- flag values -------------------------------------------------------------

INTS = st.one_of(
    st.sampled_from([-(2**63), -1, 0, 1, 2, 3, 16, 2**31, sys.maxsize, sys.maxsize + 1, 10**23]),
    st.integers(-(10**30), 10**30),
)


def _near(*bounds: float) -> list[float]:
    """Each bound and the floats one step either side of it."""
    return [
        v for b in bounds for v in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
    ]


EXTREME_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 1e308, -1e308, 1.0000001]


def _floats(*bounds: float):
    """Floats next to the bounds of one parameter, extremes, or any float."""
    return st.one_of(st.sampled_from(_near(*bounds) + EXTREME_FLOATS), st.floats())


CULTURE_FLAGS = {
    "--beta": (2.0, _floats(1.0, 2.0)),
    "--g-hat": (2.0, _floats(1.0, 2.0)),
    "--v-hat": (2.0, _floats(1.0, 2.0)),
    "--lambda-r": (1.5, _floats(1.0, 2.0)),
    "--g": (3.0, _floats(1.0, 2.0, 3.0)),
    "--q0": (0.3, _floats(0.0, 1.0)),
    # dt below 1e-6 is over the step budget at horizon 1; dt near it would
    # run 10^6 steps, so the valid values stay coarse.
    "--dt": (0.01, st.sampled_from([0.5e-6, 0.99e-6, 0.01, 0.3, 1.0, 2.0, 0.0, -0.0, -1.0]
                                   + EXTREME_FLOATS)),
}


@st.composite
def culture_flags(draw):
    """``simulate-culture`` flags: valid defaults with one to three drawn."""
    changed = draw(st.sets(st.sampled_from(sorted(CULTURE_FLAGS)), min_size=1, max_size=3))
    argv = []
    for flag, (default, values) in sorted(CULTURE_FLAGS.items()):
        value = draw(values) if flag in changed else default
        argv.append(f"{flag}={value!r}")  # "=": argparse reads "-1e+308" as a flag
    return argv


@st.composite
def ranges(draw, lo: float, hi: float):
    """A ``LO:HI:N`` spec: a small valid range, or ends and counts drawn
    from extremes and the bounds ``lo`` and ``hi``."""
    if draw(st.booleans()):
        return f"{lo!r}:{hi!r}:{draw(st.integers(1, 5))}"
    ends = _floats(lo, hi)
    count = draw(st.one_of(st.integers(-2, 5), st.sampled_from([10**6 + 1, 10**23])))
    return f"{draw(ends)!r}:{draw(ends)!r}:{count}"


@FUZZ
@example(cap=sys.maxsize)
@given(cap=INTS)
def test_check_axioms_cap_values_exit_cleanly(tmp_path_factory, cap):
    data = serialize_choice_function(random_choice_function(random.Random(1), ground_of_size(4)))
    _assert_clean_exit(*_run(tmp_path_factory, ["check-axioms", f"--cap={cap}"], data.encode()))


@FUZZ
@given(limit=INTS, options=st.sampled_from(["x", "x,y", "x,y,z"]))
def test_enumerate_limit_values_exit_cleanly(limit, options):
    _assert_clean_exit(*_run_flags(["enumerate", "--options", options, f"--limit={limit}"]))


@settings(FUZZ, max_examples=300)
@example(argv=["--beta", "1.0000001", "--g-hat", "2", "--v-hat", "2", "--lambda-r", "1.5",
               "--g", "3", "--q0", "0.3"])
@given(argv=culture_flags())
def test_simulate_culture_flag_values_exit_cleanly(argv):
    _assert_clean_exit(*_run_flags(["simulate-culture", *argv, "--horizon", "1"]))


@FUZZ
@given(g_range=ranges(1.0, 4.0), lambda_r_range=st.none() | ranges(1.0, 3.0))
def test_sweep_culture_range_values_exit_cleanly(g_range, lambda_r_range):
    argv = ["sweep", "culture", f"--g-range={g_range}"]
    if lambda_r_range is not None:
        argv.append(f"--lambda-r-range={lambda_r_range}")
    _assert_clean_exit(*_run_flags(argv))


@FUZZ
@given(lambda_range=ranges(0.5, 0.75), p_range=st.none() | ranges(0.0, 0.5),
       samples=st.none() | st.sampled_from([-(10**23), -1, 0, 1, 7, 10**6 + 1, 10**23]),
       menu=st.sampled_from(["M", "N"]))
def test_sweep_media_range_values_exit_cleanly(lambda_range, p_range, samples, menu):
    argv = ["sweep", "media", "--menu", menu, f"--lambda-range={lambda_range}"]
    if p_range is not None:
        argv.append(f"--p-range={p_range}")
    if samples is not None:
        argv.append(f"--samples={samples}")
    _assert_clean_exit(*_run_flags(argv))
