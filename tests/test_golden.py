"""Byte-for-byte stdout of the CLI against recorded golden files.

Each case runs ``rschoice.cli.main`` in-process and compares stdout and the
exit code with ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.
A case that exits 2 also compares its stderr, the coded ``{"error": ...}``
line, with ``tests/golden/<case>.err``: for ``welfare`` it pins which axiom
the message names first (SPR before Exp, NRS and IR).
The choice-function commands run on every choice file in ``fixtures/`` and on
``tests/golden/random7.json``, a uniformly random 7-option function (one
member drawn per menu with ``random.Random(7)``) whose Exp and IIA lists are
long enough to be cut at the default cap.  ``check-axioms``, ``reveal
--cross-check`` and ``synthesize`` also run on ``tests/golden/noisy10.json``,
a 10-option function at a realistic size: the choice of a random
single-peaked structure with 1 % of its menus given another member
(``conftest.noisy_choice_function`` with ``random.Random(19)``), which
reveals 19 reactions and fails Exp, NRS, SPR and IIA.  ``freedom`` also
runs on ``tests/golden/structure10.json``, a 10-option structure with three
types of 5, 2 and 3 options whose satisfied sets are all nonempty
(``random_single_peaked_structure(random.Random(51), ground_of_size(10))``),
so its 1 023 rows hold every count from 0 to 3.  ``synthesize`` and
``welfare`` also run on ``tests/golden/clean10.json``, the choice function
that structure generates (``serialize_choice_function(evaluate(...))``), so
the success path is pinned at a realistic size too.  They also run on
``tests/golden/band7.json``, the choice of a 7-option structure (types
{o0, o1, o2, o5} and {o3, o4, o6}, welfare o3, o0, o6, o4, o2, o1, o5,
reaction o4, o5, o6, o1, o2, o3, o0) on which a dominance tie inside the
threshold-to-peak band decides the synthesized reaction order.  The
numpy-based consistency report of ``simulate-culture --consistency-grid`` is
left out, so that numpy versions cannot flip its last bits.  The
``simulate-culture`` case also writes its whole trajectory, every step of
it, and the file must equal ``tests/golden/simulate-culture.trajectory.csv``.
Every stdout case runs twice in one process, so the second run of a choice
command takes the function and report that the first left memoized.

Regenerate after an intended output change with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from rschoice.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ROOT / "fixtures"

CHOICE_FILES = {
    "detergent": ["fixtures/detergent.json"],
    "detergent_csv": ["fixtures/detergent.csv", "--format", "csv"],
    "tsm1": ["fixtures/tsm1.json"],
    "tsm2": ["fixtures/tsm2.json"],
    "random7": ["tests/golden/random7.json"],
}

CHOICE_COMMANDS = {
    "check-axioms": ["check-axioms"],
    "check-axioms-cap0": ["check-axioms", "--cap", "0"],
    "check-axioms-cap1": ["check-axioms", "--cap", "1"],
    "reveal-cross-check": ["reveal", "--cross-check"],
    "synthesize": ["synthesize"],
    "welfare": ["welfare"],
    "welfare-closure": ["welfare", "--transitive-closure"],
}


def _cases() -> dict[str, list[str]]:
    cases = {
        f"{cmd}.{name}": [args[0], *file_args, *args[1:]]
        for name, file_args in CHOICE_FILES.items()
        for cmd, args in CHOICE_COMMANDS.items()
    }
    cases.update({
        f"sweep-media.grid-{menu}": [
            "sweep", "media", "--menu", menu,
            "--lambda-range", "0.55:0.7:4", "--p-range", "0.3:0.49:20",
        ]
        for menu in ("M", "N")
    })
    cases.update({
        f"{cmd}.noisy10": [args[0], "tests/golden/noisy10.json", *args[1:]]
        for cmd, args in CHOICE_COMMANDS.items()
        if cmd in ("check-axioms", "reveal-cross-check", "synthesize")
    })
    cases.update({
        f"{cmd}.{name}": [cmd, f"tests/golden/{name}.json"]
        for name in ("clean10", "band7")
        for cmd in ("synthesize", "welfare")
    })
    cases.update({
        "freedom.worked_structure": ["freedom", "fixtures/worked_structure.json"],
        "freedom.structure10": ["freedom", "tests/golden/structure10.json"],
        "enumerate.xyz-limit5": ["enumerate", "--options", "x,y,z", "--limit", "5"],
        "simulate-media.N": ["simulate-media", "--p", "0.46", "--lambda", "0.7", "--menu", "N"],
        "simulate-media.M-no-reactance": [
            "simulate-media", "--p", "0.3", "--lambda", "0.6", "--menu", "M", "--no-reactance",
        ],
        "sweep-media.samples20": ["--seed", "3", "sweep", "media", "--samples", "20"],
        "sweep-culture": [
            "sweep", "culture", "--g-range", "1:6:6", "--lambda-r-range", "1:2:3",
        ],
        "simulate-culture": [
            "simulate-culture", "--beta", "2", "--g-hat", "2", "--v-hat", "2",
            "--lambda-r", "1.5", "--g", "3", "--q0", "0.3", "--horizon", "40",
        ],
        "simulate-culture.horizon200": [
            "simulate-culture", "--beta", "2", "--g-hat", "2", "--v-hat", "2",
            "--lambda-r", "1.5", "--g", "3", "--q0", "0.3",
        ],
        # beta within 1e-7 of 1: every interior stage power overflows a float.
        "simulate-culture.beta-near-1": [
            "simulate-culture", "--beta", "1.0000001", "--g-hat", "2", "--v-hat", "2.5",
            "--lambda-r", "1.5", "--g", "4", "--q0", "0.3", "--horizon", "40",
        ],
        # The smallest subnormal share: the stage points sit below the inline range.
        "simulate-culture.q0-subnormal": [
            "simulate-culture", "--beta", "2", "--g-hat", "2", "--v-hat", "2.5",
            "--lambda-r", "1.5", "--g", "1.2", "--q0", "5e-324", "--dt", "7", "--horizon", "280",
        ],
        "sweep-media.invalid-mid-grid": [
            "sweep", "media", "--lambda-range", "0.6:0.8:3", "--p-range", "0.2:0.8:4",
        ],
    })
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr; arguments naming repo files become absolute."""
    argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_choice_fixture_is_covered():
    choice_files = {
        p.name for p in FIXTURES.iterdir() if p.name != "worked_structure.json"
    }
    covered = {Path(args[0]).name for args in CHOICE_FILES.values()}
    assert choice_files <= covered


def test_random7_cuts_exp_and_iia_at_the_default_cap():
    _, out, _ = _run(["check-axioms", "tests/golden/random7.json"])
    truncated = {v["axiom"] for v in json.loads(out) if v["truncated"]}
    assert {"Exp", "IIA"} <= truncated


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case):
    expected = (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    # The second run takes the function and report memoized by the first.
    for _ in range(2):
        code, out, _ = _run(CASES[case])
        assert (code, out) == (exit_codes[case], expected)


TRAJECTORY_ARGV = [*CASES["simulate-culture"], "--record-every", "1", "--trajectory-out"]
TRAJECTORY_GOLDEN = GOLDEN / "simulate-culture.trajectory.csv"


def test_trajectory_file_matches_golden(tmp_path):
    path = tmp_path / "trajectory.csv"
    code, out, _ = _run([*TRAJECTORY_ARGV, str(path)])
    assert (code, out) == (0, (GOLDEN / "simulate-culture.out").read_bytes().decode("utf-8"))
    assert path.read_bytes() == TRAJECTORY_GOLDEN.read_bytes()


EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
EXIT_2_CASES = sorted(case for case, code in EXIT_CODES.items() if code == 2)


def test_exit_2_cases_have_stderr_goldens():
    assert EXIT_2_CASES
    assert {p.stem for p in GOLDEN.glob("*.err")} == set(EXIT_2_CASES)


@pytest.mark.parametrize("case", EXIT_2_CASES)
def test_exit_2_stderr_matches_golden(case):
    code, _, err = _run(CASES[case])
    expected = (GOLDEN / f"{case}.err").read_bytes().decode("utf-8")
    assert (code, err) == (2, expected)


def _regenerate() -> None:
    exit_codes = {}
    for case, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8", newline="")
        if code == 2:
            (GOLDEN / f"{case}.err").write_text(err, encoding="utf-8", newline="")
        exit_codes[case] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2) + "\n")
    _run([*TRAJECTORY_ARGV, str(TRAJECTORY_GOLDEN)])


if __name__ == "__main__":
    _regenerate()
