"""Byte-for-byte stdout of the CLI against recorded golden files.

Each case runs ``rschoice.cli.main`` in-process and compares stdout and the
exit code with ``tests/golden/<case>.out`` and ``tests/golden/exit_codes.json``.
The choice-function commands run on every choice file in ``fixtures/`` and on
``tests/golden/random7.json``, a uniformly random 7-option function (one
member drawn per menu with ``random.Random(7)``) whose Exp and IIA lists are
long enough to be cut at the default cap.  The numpy-based consistency
report of ``simulate-culture --consistency-grid`` is left out, so that numpy
versions cannot flip its last bits.

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
        "freedom.worked_structure": ["freedom", "fixtures/worked_structure.json"],
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
    })
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout; arguments naming repo files become absolute."""
    argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_every_choice_fixture_is_covered():
    choice_files = {
        p.name for p in FIXTURES.iterdir() if p.name != "worked_structure.json"
    }
    covered = {Path(args[0]).name for args in CHOICE_FILES.values()}
    assert choice_files <= covered


def test_random7_cuts_exp_and_iia_at_the_default_cap():
    _, out = _run(["check-axioms", "tests/golden/random7.json"])
    truncated = {v["axiom"] for v in json.loads(out) if v["truncated"]}
    assert {"Exp", "IIA"} <= truncated


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case):
    code, out = _run(CASES[case])
    expected = (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert (code, out) == (exit_codes[case], expected)


def _regenerate() -> None:
    exit_codes = {}
    for case, argv in sorted(CASES.items()):
        code, out = _run(argv)
        (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8", newline="")
        exit_codes[case] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
