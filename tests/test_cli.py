from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rschoice import cli, revealed
from rschoice.cli import MAX_SWEEP_POINTS, main
from rschoice.core import (
    GroundSet,
    enumerate_choice_functions,
    serialize_choice_function,
    serialize_structure_json,
)
from rschoice.fixtures import detergent_choice, worked_structure
from rschoice.axioms import DEFAULT_VIOLATION_CAP, tsm_choice, tsm_fixture_nrs_violation
from rschoice.culture import MAX_CONSISTENCY_GRID, culture_dynamics


@pytest.fixture
def detergent_file(tmp_path):
    path = tmp_path / "detergent.json"
    path.write_text(serialize_choice_function(detergent_choice()))
    return str(path)


@pytest.fixture
def tsm1_file(tmp_path):
    path = tmp_path / "tsm1.json"
    path.write_text(serialize_choice_function(tsm_choice(tsm_fixture_nrs_violation())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_axioms_exit_codes(capsys, detergent_file, tsm1_file):
    code, out, _ = run(capsys, "check-axioms", detergent_file)
    verdicts = {v["axiom"]: v["holds"] for v in json.loads(out)}
    assert code == 0
    assert verdicts == {"Exp": True, "NRS": True, "IR": True, "SPR": True, "IIA": False}
    code, out, _ = run(capsys, "check-axioms", tsm1_file)
    verdicts = {v["axiom"]: v["holds"] for v in json.loads(out)}
    assert code == 1
    assert verdicts["NRS"] is False


def test_check_axioms_cap_zero_still_fails_and_negative_cap_is_rejected(capsys, tsm1_file):
    code, out, _ = run(capsys, "check-axioms", tsm1_file, "--cap", "0")
    nrs = next(v for v in json.loads(out) if v["axiom"] == "NRS")
    assert code == 1
    assert nrs == {"axiom": "NRS", "holds": False, "violations": [], "truncated": True}
    code, out, err = run(capsys, "check-axioms", tsm1_file, "--cap", "-1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid-range"


def test_check_axioms_cap_past_the_index_range_lists_every_violation(capsys, tsm1_file):
    expected = run(capsys, "check-axioms", tsm1_file, "--cap", "1000")
    assert expected[0] == 1 and expected[2] == ""
    for cap in ("9223372036854775807", "99999999999999999999999"):
        assert run(capsys, "check-axioms", tsm1_file, "--cap", cap) == expected


def test_synthesize_detergent(capsys, detergent_file):
    code, out, _ = run(capsys, "synthesize", detergent_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["structure"]["types"] == [["x", "y"], ["z"]]
    assert doc["certificate"]["verified"] is True


def test_synthesize_axiom_failure_exits_one(capsys, tsm1_file):
    code, out, _ = run(capsys, "synthesize", tsm1_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "axiom-violation"
    assert any(v["axiom"] == "NRS" and not v["holds"] for v in doc["verdicts"])


def test_reveal_cross_check(capsys, detergent_file):
    code, out, _ = run(capsys, "reveal", detergent_file, "--cross-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["reaction"] == [["x", "y"]]
    assert doc["definition_cross_check"] == {
        "only_in_triple_scan": [],
        "only_in_menu_scan": [],
    }


def test_reveal_cross_check_reveals_reactions_once(capsys, monkeypatch, forget_memos):
    calls, scan = [], revealed.reveal_reaction
    monkeypatch.setattr(revealed, "reveal_reaction", lambda cf: calls.append(cf) or scan(cf))
    noisy10 = str(Path(__file__).resolve().parent / "golden" / "noisy10.json")
    for _ in range(2):
        # Forget the last function and report, so that each call reveals afresh.
        forget_memos()
        code, out, _ = run(capsys, "reveal", noisy10, "--cross-check")
        assert code == 0 and json.loads(out)["reaction"]
    assert len(calls) == 2
    # Without forgetting, the same parsed function reuses its report.
    code, _, _ = run(capsys, "reveal", noisy10, "--cross-check")
    assert code == 0 and len(calls) == 2


def _counted_parses(monkeypatch) -> list[bytes]:
    """The texts ``cli.main`` hands to the parser, in order."""
    texts, parse = [], cli.parse_choice_function
    monkeypatch.setattr(cli, "parse_choice_function", lambda text, fmt: texts.append(text) or parse(text, fmt))
    return texts


def test_the_steps_of_one_analysis_parse_and_reveal_their_file_once(capsys, monkeypatch, detergent_file):
    parses = _counted_parses(monkeypatch)
    scans, scan = [], revealed.reveal_reaction
    monkeypatch.setattr(revealed, "reveal_reaction", lambda cf: scans.append(cf) or scan(cf))
    steps = (["check-axioms"], ["reveal", "--cross-check"], ["synthesize"], ["welfare"])
    codes = [run(capsys, cmd, detergent_file, *extra)[0] for cmd, *extra in steps]
    assert codes == [0, 0, 0, 0]
    assert len(parses) == 1 and len(scans) == 1


def test_another_file_or_format_is_parsed_again(capsys, monkeypatch, detergent_file, tsm1_file, tmp_path):
    """Files in turn are each parsed; a file given with the other format is
    parsed as that format, here failing on every call instead of returning
    the function stored for its own format."""
    parses = _counted_parses(monkeypatch)
    outs = [run(capsys, "reveal", path) for path in (detergent_file, tsm1_file, detergent_file)]
    assert outs[0] == outs[2] != outs[1] and len(parses) == 3
    for _ in range(2):
        _assert_one_coded_error(*run(capsys, "reveal", detergent_file, "--format", "csv"), "malformed-key")
    assert len(parses) == 5
    assert run(capsys, "reveal", detergent_file) == outs[0] and len(parses) == 6
    csv_file = tmp_path / "detergent.csv"
    csv_file.write_text(serialize_choice_function(detergent_choice(), "csv"))
    assert run(capsys, "reveal", str(csv_file), "--format", "csv") == outs[0] and len(parses) == 7


def test_a_failing_file_fails_every_time_and_stores_nothing(capsys, monkeypatch, detergent_file, tmp_path):
    """A failing parse leaves the memo empty: the good file parsed before it
    is parsed again, and then kept."""
    parses = _counted_parses(monkeypatch)
    first = run(capsys, "reveal", detergent_file)
    bad = tmp_path / "bad.json"
    bad.write_text(Path(detergent_file).read_text().replace('"x,y": "y"', '"x,y": "z"'))
    messages = set()
    for _ in range(3):
        code, out, err = run(capsys, "reveal", str(bad))
        _assert_one_coded_error(code, out, err, "choice-outside-menu")
        messages.add(json.loads(err)["message"])
    assert messages == {"choice 'z' is outside menu 'x,y'"}
    assert cli._last_choice == () and len(parses) == 4
    for _ in range(2):
        assert run(capsys, "reveal", detergent_file) == first
    assert len(parses) == 5


def test_the_last_file_is_let_go_before_another_is_parsed(capsys, monkeypatch, detergent_file, tsm1_file):
    """While a new file is parsed, neither the memo nor the CLI holds the
    last text, so the memo adds no text to a parse's peak memory."""
    run(capsys, "reveal", detergent_file)
    old = cli._last_choice[1]
    held = sys.getrefcount(old)  # counts the memo's reference
    during, parse = [], cli.parse_choice_function

    def watched(text, fmt):
        during.append((cli._last_choice, sys.getrefcount(old)))
        return parse(text, fmt)

    monkeypatch.setattr(cli, "parse_choice_function", watched)
    run(capsys, "reveal", tsm1_file)
    assert during == [((), held - 1)]
    assert cli._last_choice[:2] == ("json", Path(tsm1_file).read_bytes())


def test_welfare_subcommand(capsys, detergent_file):
    code, out, _ = run(capsys, "welfare", detergent_file)
    assert code == 0
    doc = json.loads(out)
    assert ["y", "x"] in doc["welfare_improving"]


def test_freedom_subcommand(capsys, tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(serialize_structure_json(worked_structure()))
    code, out, _ = run(capsys, "freedom", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "menu,n"
    assert len(lines) == 8
    assert all(line.endswith(",0") for line in lines[1:])


def test_simulate_media(capsys):
    code, out, _ = run(capsys, "simulate-media", "--p", "0.46", "--lambda", "0.7", "--menu", "N")
    assert code == 0
    doc = json.loads(out)
    assert doc["chosen_source"] == "sigmaRR"
    assert doc["action_by_signal"]["sR"] == "r"


def test_simulate_media_rejects_bad_params(capsys):
    code, _, err = run(capsys, "simulate-media", "--p", "0.6", "--lambda", "0.7", "--menu", "N")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-params"


def test_simulate_culture_summary_and_trajectory(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        "simulate-culture",
        "--beta", "2", "--g-hat", "2", "--v-hat", "2", "--lambda-r", "2",
        "--g", "1", "--q0", "0.3", "--horizon", "60",
        "--trajectory-out", str(traj),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q_steady"] == pytest.approx(0.5)
    assert doc["converged"] is True
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "tau,q"
    assert len(lines) > 10


def test_sweep_media_flips_at_pstar(capsys):
    code, out, _ = run(
        capsys, "sweep", "media", "--lambda-range", "0.7:0.7:1", "--p-range", "0.40:0.49:10"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    chosen = [r[3] for r in rows]
    pstar = float(rows[0][6])
    flip = next(i for i, c in enumerate(chosen) if c == "sigmaRR")
    assert chosen[:flip] == ["sigmaL"] * flip
    assert all(c == "sigmaRR" for c in chosen[flip:])
    assert float(rows[flip - 1][0]) < pstar <= float(rows[flip][0]) + 0.01


def test_sweep_formats_each_distinct_value_as_it_formats_one():
    values = np.array([0.5, -0.0, 0.0, 0.5, np.nan, -np.nan, np.inf, -np.inf, 1e-13, -1e-13,
                       0.1 + 0.2, 0.3, 5e-324, 0.0], dtype=np.float64)
    assert cli._fixed12(values) == [f"{v:.12f}" for v in values.tolist()]


def test_sweep_culture_rises_above_threshold(capsys):
    code, out, _ = run(capsys, "sweep", "culture", "--g-range", "2:6:9", "--lambda-r", "1.5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    q = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(q, q[1:]))


def test_sweep_rejects_empty_range(capsys):
    code, _, err = run(capsys, "sweep", "culture", "--g-range", "4:2:5")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-range"


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--options", "x,y,z", "--count-only")
    assert code == 0
    assert json.loads(out) == {"count": 24}


def test_enumerate_stream_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--options", "x,y", "--limit", "1")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 1
    assert docs[0]["choices"]["x,y"] in ("x", "y")


def test_enumerate_lines_match_the_compacted_serialization(capsys):
    cases = [
        ("x,y,z", 24),
        ("a,b,c,d", 20_736),
        ('\u00e9,"q",b\\ %{', 24),  # labels JSON escapes, and % and { as text
    ]
    for options, count in cases:
        code, out, _ = run(capsys, "enumerate", "--options", options)
        ground = GroundSet(tuple(options.split(",")))
        expected = [
            json.dumps(json.loads(serialize_choice_function(cf)))
            for cf in enumerate_choice_functions(ground)
        ]
        assert code == 0
        assert out.splitlines() == expected
        assert len(expected) == count
        assert run(capsys, "enumerate", "--options", options, "--limit", "0")[:2] == (0, "")


def test_missing_file_is_a_coded_error(capsys):
    code, _, err = run(capsys, "check-axioms", "/no/such/file.json")
    assert code == 2
    assert json.loads(err)["error"] == "file-not-found"


def _assert_one_coded_error(code, out, err, error):
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


def _check_axioms_on(capsys, tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return run(capsys, "check-axioms", str(path))


def test_choices_given_as_a_list_is_a_coded_error(capsys, tmp_path):
    result = _check_axioms_on(capsys, tmp_path, '{"options": ["x", "y"], "choices": ["x"]}')
    _assert_one_coded_error(*result, "malformed-key")


def test_list_as_chosen_value_is_a_coded_error(capsys, tmp_path):
    text = '{"options": ["x", "y"], "choices": {"x": "x", "y": "y", "x,y": ["x"]}}'
    _assert_one_coded_error(*_check_axioms_on(capsys, tmp_path, text), "malformed-key")


def test_directory_as_input_is_a_coded_error(capsys, tmp_path):
    _assert_one_coded_error(*run(capsys, "check-axioms", str(tmp_path)), "malformed-key")


@pytest.mark.parametrize("name, error", [
    ("input.json/x", "file-not-found"),
    ("x" * 300, "invalid-input-path"),
    ("in\0put.json", "invalid-input-path"),
], ids=["through-a-file", "name-too-long", "nul-byte"])
def test_unopenable_input_path_is_a_coded_error(capsys, tmp_path, name, error):
    (tmp_path / "input.json").write_text("{}")
    _assert_one_coded_error(*run(capsys, "check-axioms", f"{tmp_path}/{name}"), error)


@pytest.mark.parametrize("name", [
    "missing/out.json", "input.json/out.json", "x" * 300, "o\0ut.json",
], ids=["missing-directory", "through-a-file", "name-too-long", "nul-byte"])
def test_unwritable_output_path_is_a_coded_error(capsys, tmp_path, tsm1_file, name):
    (tmp_path / "input.json").write_text("{}")
    result = run(capsys, "check-axioms", tsm1_file, "--out", f"{tmp_path}/{name}")
    _assert_one_coded_error(*result, "invalid-output-path")


def test_options_given_as_a_string_is_rejected(capsys, tmp_path):
    text = '{"options": "xyz", "choices": {"x": "x", "y": "y", "z": "z"}}'
    _assert_one_coded_error(*_check_axioms_on(capsys, tmp_path, text), "invalid-ground-set")


def test_non_utf8_input_is_a_coded_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    _assert_one_coded_error(*run(capsys, "check-axioms", str(path)), "malformed-key")


def test_culture_sweep_without_g_range_is_a_coded_error(capsys):
    _assert_one_coded_error(*run(capsys, "sweep", "culture"), "invalid-range")


def test_culture_sweep_overflowing_v_is_a_coded_error(capsys):
    result = run(capsys, "sweep", "culture", "--g-range", "1:1e308:3")
    _assert_one_coded_error(*result, "invalid-range")


def test_out_naming_a_directory_is_a_coded_error(capsys, tmp_path, tsm1_file):
    result = run(capsys, "check-axioms", tsm1_file, "--out", str(tmp_path))
    _assert_one_coded_error(*result, "invalid-output-path")


def test_trajectory_out_naming_a_directory_is_a_coded_error(capsys, tmp_path):
    result = run(
        capsys,
        "simulate-culture",
        "--beta", "2", "--g-hat", "2", "--v-hat", "2", "--lambda-r", "2",
        "--g", "1", "--q0", "0.3", "--horizon", "1",
        "--trajectory-out", str(tmp_path),
    )
    _assert_one_coded_error(*result, "invalid-output-path")


def test_consistency_grid_zero_is_rejected_like_other_small_grids(capsys):
    base = [
        "simulate-culture",
        "--beta", "2", "--g-hat", "2", "--v-hat", "2", "--lambda-r", "2",
        "--g", "1", "--q0", "0.3", "--horizon", "1",
    ]
    for grid in ("0", "9"):
        _assert_one_coded_error(*run(capsys, *base, "--consistency-grid", grid), "invalid-params")


def test_negative_media_samples_are_rejected(capsys):
    _assert_one_coded_error(*run(capsys, "sweep", "media", "--samples", "-2"), "invalid-range")
    # --samples 0 still means "no random draws": the --p-range grid runs.
    code, out, _ = run(capsys, "sweep", "media", "--samples", "0", "--p-range", "0.1:0.2:2")
    assert code == 0
    assert len(out.splitlines()) == 3
    _assert_one_coded_error(*run(capsys, "sweep", "media", "--samples", "0"), "invalid-range")


def test_negative_enumerate_limit_is_rejected(capsys):
    result = run(capsys, "enumerate", "--options", "x,y", "--limit", "-1")
    _assert_one_coded_error(*result, "invalid-range")


def test_deeply_nested_json_is_a_coded_error(capsys, tmp_path):
    text = "[" * 100_000
    _assert_one_coded_error(*_check_axioms_on(capsys, tmp_path, text), "malformed-key")
    _assert_one_coded_error(*_freedom_on(capsys, tmp_path, text), "malformed-key")


def _freedom_on(capsys, tmp_path, text):
    path = tmp_path / "structure.json"
    path.write_text(text)
    return run(capsys, "freedom", str(path))


def test_structure_types_given_as_a_number_is_a_coded_error(capsys, tmp_path):
    text = '{"types": 5, "welfare": ["x", "y"], "reaction": ["x", "y"]}'
    _assert_one_coded_error(*_freedom_on(capsys, tmp_path, text), "invalid-ground-set")


def test_list_inside_structure_reaction_is_a_coded_error(capsys, tmp_path):
    text = '{"types": [["x"], ["y"]], "welfare": ["x", "y"], "reaction": ["x", ["y"]]}'
    _assert_one_coded_error(*_freedom_on(capsys, tmp_path, text), "invalid-ground-set")


def test_structure_welfare_given_as_a_string_is_rejected(capsys, tmp_path):
    text = '{"types": [["x"], ["y"]], "welfare": "xy", "reaction": ["x", "y"]}'
    _assert_one_coded_error(*_freedom_on(capsys, tmp_path, text), "invalid-ground-set")


def test_structure_type_that_repeats_an_option_is_rejected(capsys, tmp_path):
    text = '{"types": [["a", "a", "b"], ["c"]], "welfare": ["a", "b", "c"], "reaction": ["c", "a", "b"]}'
    code, out, err = _freedom_on(capsys, tmp_path, text)
    _assert_one_coded_error(code, out, err, "invalid-ground-set")
    assert "repeats an option" in err


def test_seed_env_var_sets_default(capsys, monkeypatch):
    monkeypatch.setenv("RSCHOICE_SEED", "99")
    _, with_env, _ = run(capsys, "sweep", "media", "--samples", "20")
    monkeypatch.delenv("RSCHOICE_SEED")
    _, explicit, _ = run(capsys, "--seed", "99", "sweep", "media", "--samples", "20")
    assert with_env == explicit


def test_non_integer_seed_env_var_fails_only_the_sweep(capsys, monkeypatch, detergent_file):
    clean = run(capsys, "check-axioms", detergent_file)
    default = run(capsys, "sweep", "media", "--samples", "5")
    monkeypatch.setenv("RSCHOICE_SEED", "abc")
    assert run(capsys, "check-axioms", detergent_file) == clean
    code, out, err = run(capsys, "sweep", "media", "--samples", "5")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "invalid-seed"
    assert run(capsys, "--seed", "0", "sweep", "media", "--samples", "5") == default


def test_reused_parser_keeps_no_state_between_calls(capsys, monkeypatch, tsm1_file):
    """One parser serves every in-process call; each call's result equals the
    result of a parser built for that call alone."""
    assert cli.build_parser() is cli.build_parser()
    steps = [
        (None, ["check-axioms", "--cap", "1", tsm1_file]),
        (None, ["check-axioms", tsm1_file]),
        (None, ["check-axioms", tsm1_file, "--cap"]),
        (None, ["check-axioms", tsm1_file, "--cap", "-1"]),
        (None, ["sweep", "media", "--samples", "3"]),
        ("7", ["sweep", "media", "--samples", "3"]),
        ("7", ["enumerate", "--options", "x,y,z", "--count-only"]),
    ]

    def sequence():
        results = []
        for seed, argv in steps:
            if seed is None:
                monkeypatch.delenv("RSCHOICE_SEED", raising=False)
            else:
                monkeypatch.setenv("RSCHOICE_SEED", seed)
            results.append(run(capsys, *argv))
        return results

    reused = sequence()
    assert cli.build_parser.cache_info().currsize == 1
    assert cli.build_parser().parse_args(["check-axioms", tsm1_file]).cap == DEFAULT_VIOLATION_CAP == 16
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert reused == sequence()

    capped, default, usage, coded, unseeded, seeded, count = reused
    iia = [v for v in json.loads(capped[1]) + json.loads(default[1]) if v["axiom"] == "IIA"]
    assert [(len(v["violations"]), v["truncated"]) for v in iia] == [(1, True), (10, False)]
    _assert_one_coded_error(*usage, "invalid-arguments")
    assert json.loads(usage[2])["message"].startswith("usage: rschoice check-axioms")
    _assert_one_coded_error(*coded, "invalid-range")
    assert unseeded[0] == seeded[0] == 0 and unseeded[1] != seeded[1]
    assert count == (0, '{"count": 24}\n', "")


def test_repeated_runs_are_byte_identical(capsys, detergent_file, forget_memos):
    _, first, _ = run(capsys, "synthesize", detergent_file)
    forget_memos()
    _, second, _ = run(capsys, "synthesize", detergent_file)
    assert first == second
    _, s1, _ = run(capsys, "sweep", "media", "--lambda-range", "0.6:0.7:3",
                   "--p-range", "0.1:0.4:5")
    _, s2, _ = run(capsys, "sweep", "media", "--lambda-range", "0.6:0.7:3",
                   "--p-range", "0.1:0.4:5")
    assert s1 == s2


CULTURE_ARGS = [
    "simulate-culture",
    "--beta", "2", "--g-hat", "2", "--v-hat", "2", "--lambda-r", "1.5",
    "--g", "3", "--q0", "0.3",
]


def test_out_of_memory_is_a_coded_error(capsys, monkeypatch, tmp_path):
    def exhausted(args):
        raise MemoryError

    path = tmp_path / "structure.json"
    path.write_text(serialize_structure_json(worked_structure()))
    monkeypatch.setitem(cli._COMMANDS, "freedom", exhausted)
    code, out, err = run(capsys, "freedom", str(path))
    _assert_one_coded_error(code, out, err, "out-of-memory")
    assert json.loads(err)["message"] == "rschoice freedom ran out of memory"


@pytest.mark.parametrize("argv,usage,reason", [
    (["check-axioms", "in.json", "--cap", "x"], "usage: rschoice check-axioms",
     "rschoice check-axioms: error: argument --cap: invalid int value: 'x'"),
    (["no-such-command"], "usage: rschoice [-h]", "rschoice: error: argument subcommand: invalid choice"),
    (["welfare"], "usage: rschoice welfare", "rschoice welfare: error: the following arguments are required: input"),
    ([], "usage: rschoice [-h]", "rschoice: error: the following arguments are required: subcommand"),
])
def test_usage_errors_are_one_coded_line(capsys, argv, usage, reason):
    """A usage error returns 2 with argparse's usage text and reason in one
    coded line, instead of raising ``SystemExit``."""
    code, out, err = run(capsys, *argv)
    _assert_one_coded_error(code, out, err, "invalid-arguments")
    message = json.loads(err)["message"]
    assert message.startswith(usage) and reason in message.splitlines()[-1]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-axioms", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rschoice check-axioms")


def test_an_unforeseen_exception_is_a_coded_internal_error(capsys, monkeypatch, tsm1_file):
    """A library bug exits 2 with one coded line, never 1 ("violations
    found") with a traceback."""
    def broken(args):
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "check-axioms", broken)
    code, out, err = run(capsys, "check-axioms", tsm1_file)
    _assert_one_coded_error(code, out, err, "internal-error")
    assert json.loads(err)["message"].startswith(f"RuntimeError: a bug ({__file__}:")
    assert json.loads(err)["message"].endswith(" in broken)")


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the request was checked")


def test_infinite_horizon_is_a_coded_error(capsys):
    for flags in (["--horizon", "inf"], ["--dt", "inf"]):
        _assert_one_coded_error(*run(capsys, *CULTURE_ARGS, *flags), "invalid-params")


def test_infinite_culture_parameters_are_a_coded_error(capsys):
    """An infinite value made q* = inf / (inf + inf): NaN in the output."""
    for argv in (
        ["simulate-culture", "--beta", "2", "--g-hat", "2", "--v-hat", "inf", "--lambda-r", "1.5",
         "--g", "1.5", "--q0", "0.3", "--horizon", "1"],
        ["sweep", "culture", "--g-range", "1:1.5:2", "--v-hat", "inf"],
    ):
        _assert_one_coded_error(*run(capsys, *argv), "invalid-params")


def test_step_budget_rejects_before_dynamics(capsys, monkeypatch):
    monkeypatch.setattr(cli, "culture_dynamics", _must_not_run)
    for flags in (["--dt", "1e-300"], ["--dt", "1e-4"], ["--dt", "1e-300", "--horizon", "1e300"]):
        _assert_one_coded_error(*run(capsys, *CULTURE_ARGS, *flags), "too-many-steps")


def test_consistency_grid_budget_rejects_before_dynamics(capsys, monkeypatch):
    monkeypatch.setattr(cli, "culture_dynamics", _must_not_run)
    monkeypatch.setattr(cli, "culture_rsc_consistency", _must_not_run)
    result = run(capsys, *CULTURE_ARGS, "--consistency-grid", str(MAX_CONSISTENCY_GRID + 1))
    _assert_one_coded_error(*result, "grid-too-large")


def test_simulate_culture_records_only_what_it_writes(capsys, monkeypatch, tmp_path):
    seen = []

    def spy(params, record_every=1):
        seen.append(record_every)
        return culture_dynamics(params, record_every=record_every)

    monkeypatch.setattr(cli, "culture_dynamics", spy)
    traj = str(tmp_path / "traj.csv")
    _, printed, _ = run(capsys, *CULTURE_ARGS, "--horizon", "20")
    _, written, _ = run(capsys, *CULTURE_ARGS, "--horizon", "20", "--trajectory-out", traj)
    run(capsys, *CULTURE_ARGS, "--horizon", "20", "--record-every", "7",
        "--trajectory-out", traj)
    assert run(capsys, *CULTURE_ARGS, "--horizon", "0.001")[0] == 0  # zero steps
    assert seen == [2000, 100, 7, 1]
    assert printed == written
    line = '{"error": "invalid-params", "message": "record_every must be a positive integer"}\n'
    for value in ("0", "-5"):
        for flags in ([], ["--trajectory-out", traj]):
            assert run(capsys, *CULTURE_ARGS, "--record-every", value, *flags) == (2, "", line)


def test_simulate_culture_ends_when_g_bar_passes_float_resolution(capsys):
    """g_bar lies past 10^7 here, where adjacent floats are further apart
    than the bisection tolerance.  The bisection ends on two adjacent
    floats whose midpoint rounds to the lower end (g_hat 2) or to the
    upper end (g_hat 3)."""
    for g_hat, g_bar in (("2", 1.1966838812903833e7), ("3", 1.035102341401106e9)):
        code, out, _ = run(capsys, "simulate-culture", "--beta", "1.1", "--g-hat", g_hat,
                           "--v-hat", "1", "--lambda-r", "1", "--g", "1", "--q0", "0.5",
                           "--horizon", "1")
        assert code == 0
        assert json.loads(out)["g_bar"] == pytest.approx(g_bar)


def test_simulate_culture_with_beta_near_one_exits_cleanly(capsys):
    """The interior effort overflows a float here; the budget corner binds."""
    code, out, err = run(capsys, "simulate-culture", "--beta", "1.0000001", "--g-hat", "2",
                         "--v-hat", "2", "--lambda-r", "1.5", "--g", "3", "--q0", "0.3")
    assert (code, err) == (0, "")
    assert json.loads(out)["q_end"] == 0.3


def test_sweep_point_budget_rejects_before_any_point_is_evaluated(capsys, monkeypatch):
    monkeypatch.setattr(cli, "media_sweep", _must_not_run, raising=False)
    monkeypatch.setattr(cli, "media_menu_choice", _must_not_run)
    monkeypatch.setattr(cli, "steady_state", _must_not_run)
    over = str(MAX_SWEEP_POINTS + 1)
    for argv in (
        ["sweep", "media", "--p-range", f"0.1:0.4:{over}"],
        ["sweep", "media", "--lambda-range", f"0.6:0.7:{over}", "--samples", "5"],
        ["sweep", "media", "--lambda-range", "0.6:0.7:1001", "--p-range", "0.1:0.4:1000"],
        ["sweep", "media", "--samples", over],
        ["sweep", "culture", "--g-range", f"1:6:{over}"],
        ["sweep", "culture", "--g-range", "1:6:1001", "--lambda-r-range", "1:2:1000"],
    ):
        _assert_one_coded_error(*run(capsys, *argv), "too-many-points")


@pytest.mark.parametrize(
    "ranges, line",
    [
        (
            ["--lambda-range", "0.6:0.8:3", "--p-range", "0.2:0.8:4"],
            '{"error": "invalid-params", "message": "prior p must lie in (0, 1/2), got 0.6000000000000001"}',
        ),
        (
            ["--lambda-range", "0.6:0.8:3", "--p-range", "0.1:0.4:4"],
            '{"error": "invalid-params", "message": "moderate precision lambda must lie in (1/2, 3/4), got 0.8"}',
        ),
        (
            ["--p-range", "nan:nan:2"],
            '{"error": "invalid-params", "message": "prior p must lie in (0, 1/2), got nan"}',
        ),
    ],
)
def test_invalid_media_grid_point_reports_the_recorded_line(capsys, ranges, line):
    """The stderr lines were recorded from the point-by-point sweep."""
    code, out, err = run(capsys, "sweep", "media", *ranges)
    assert (code, out, err) == (2, "", line + "\n")
