"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``check-axioms``,
``reveal``, ``synthesize``, ``welfare``, ``freedom``, ``simulate-media``,
``simulate-culture``, ``sweep`` and ``enumerate``.  All reports are plain
JSON or CSV on stdout (or ``--out``); given the same inputs and seed the
bytes are identical across runs.

Exit status: 0 on success, 1 when an axiom check ran and found violations,
2 on input or parameter errors.  Errors print one JSON object per line to
stderr with a stable machine-readable ``error`` code.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass, field

from .axioms import AxiomViolationError, check_all
from .core import (
    ChoiceFunction,
    ChoiceModelError,
    GroundSet,
    enumerate_choice_functions,
    parse_choice_function,
    parse_structure_json,
    serialize_choice_function,
)
from .culture import (
    CultureParams,
    culture_dynamics,
    culture_rsc_consistency,
    steady_state,
)
from .media import MediaParams, media_menu_choice, media_pstar
from .normative import freedom_model, freedom_table_csv, welfare_report
from .revealed import reaction_crosscheck, reveal
from .structure import certify_single_peaked, synthesis_report_json, synthesize_rs

SEED_ENV_VAR = "RSCHOICE_SEED"


class InvalidRangeError(ChoiceModelError):
    code = "invalid-range"


@dataclass
class RunConfig:
    """Parsed invocation: subcommand, paths, seed and caps."""

    subcommand: str
    input_path: str | None = None
    out_path: str | None = None
    seed: int = 0
    violation_cap: int = 16
    options: dict = field(default_factory=dict)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_choice(config: RunConfig) -> ChoiceFunction:
    fmt = config.options.get("format", "json")
    return parse_choice_function(_read_input(config.input_path), fmt)


def _parse_range(spec: str) -> list[float]:
    """LO:HI:N inclusive grid; N >= 1."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidRangeError(f"range must be LO:HI:N, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidRangeError(f"range must be numeric, got {spec!r}") from exc
    if count < 1 or hi < lo:
        raise InvalidRangeError(f"empty range {spec!r}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def cmd_check_axioms(config: RunConfig) -> int:
    if config.violation_cap < 0:
        raise InvalidRangeError(f"--cap must be nonnegative, got {config.violation_cap}")
    cf = _load_choice(config)
    verdicts = check_all(cf, cap=config.violation_cap)
    _emit(json.dumps([v.to_dict() for v in verdicts], indent=2) + "\n", config.out_path)
    core = {"Exp", "NRS", "IR", "SPR"}
    return 1 if any(not v.holds for v in verdicts if v.axiom in core) else 0


def cmd_reveal(config: RunConfig) -> int:
    cf = _load_choice(config)
    report = reveal(cf)
    if config.options.get("cross_check"):
        doc = json.loads(report.to_json())
        doc["definition_cross_check"] = {
            k: [list(p) for p in v] for k, v in reaction_crosscheck(cf).items()
        }
        _emit(json.dumps(doc, indent=2) + "\n", config.out_path)
    else:
        _emit(report.to_json(), config.out_path)
    return 0


def cmd_synthesize(config: RunConfig) -> int:
    cf = _load_choice(config)
    try:
        structure, trace = synthesize_rs(cf)
    except AxiomViolationError as exc:
        doc = {
            "error": exc.code,
            "message": str(exc),
            "verdicts": [v.to_dict() for v in exc.verdicts],
        }
        _emit(json.dumps(doc, indent=2) + "\n", config.out_path)
        return 1
    certificate = certify_single_peaked(structure)
    _emit(synthesis_report_json(structure, certificate, trace), config.out_path)
    return 0


def cmd_welfare(config: RunConfig) -> int:
    cf = _load_choice(config)
    report = welfare_report(cf, transitive_closure=config.options.get("transitive_closure", False))
    _emit(report.to_json(), config.out_path)
    return 0


def cmd_freedom(config: RunConfig) -> int:
    structure = parse_structure_json(_read_input(config.input_path))
    model = freedom_model(structure)
    _emit(freedom_table_csv(model), config.out_path)
    return 0


def cmd_simulate_media(config: RunConfig) -> int:
    params = MediaParams(p=config.options["p"], lam=config.options["lam"])
    outcome = media_menu_choice(
        params, config.options["menu"], no_reactance=config.options.get("no_reactance", False)
    )
    _emit(outcome.to_json(), config.out_path)
    return 0


def cmd_simulate_culture(config: RunConfig) -> int:
    params = CultureParams(
        beta=config.options["beta"],
        g_hat=config.options["g_hat"],
        v_hat=config.options["v_hat"],
        lambda_r=config.options["lambda_r"],
        g=config.options["g"],
        q0=config.options["q0"],
        dt=config.options.get("dt", 0.01),
        horizon=config.options.get("horizon", 200.0),
    )
    outcome = culture_dynamics(params, record_every=config.options.get("record_every", 100))
    trajectory_out = config.options.get("trajectory_out")
    if trajectory_out:
        with open(trajectory_out, "w", encoding="utf-8", newline="") as fh:
            fh.write(outcome.trajectory_csv())
    doc = json.loads(outcome.summary_json())
    grid_n = config.options.get("consistency_grid")
    if grid_n:
        doc["consistency"] = json.loads(culture_rsc_consistency(params, grid_n).to_json())
    _emit(json.dumps(doc, indent=2) + "\n", config.out_path)
    return 0


def cmd_sweep(config: RunConfig) -> int:
    domain = config.options["domain"]
    rng = random.Random(config.seed)
    lines: list[str] = []
    if domain == "media":
        lam_values = _parse_range(config.options["lambda_range"])
        p_values = (
            _parse_range(config.options["p_range"])
            if config.options.get("p_range")
            else None
        )
        samples = config.options.get("samples")
        lines.append("p,lambda,menu,chosen,u_own_moderate,v_opposite_extreme,pstar")
        grid = []
        if samples:
            for _ in range(samples):
                lam = rng.uniform(0.5 + 1e-9, 0.75 - 1e-9)
                p = rng.uniform(1e-9, 0.5 - 1e-9)
                grid.append((p, lam))
        else:
            if p_values is None:
                raise InvalidRangeError("media sweep needs --p-range or --samples")
            grid = [(p, lam) for lam in lam_values for p in p_values]
        menu = config.options.get("menu", "N")
        for p, lam in grid:
            out = media_menu_choice(MediaParams(p=p, lam=lam), menu)
            u_l = out.expected_payoffs["sigmaL"][0]
            v_rr = out.expected_payoffs["sigmaRR"][1]
            lines.append(
                f"{p:.10f},{lam:.10f},{menu},{out.chosen_source},"
                f"{u_l:.12f},{v_rr:.12f},{media_pstar(lam):.12f}"
            )
    elif domain == "culture":
        g_values = _parse_range(config.options["g_range"])
        lr_values = (
            _parse_range(config.options["lambda_r_range"])
            if config.options.get("lambda_r_range")
            else [config.options["lambda_r"]]
        )
        lines.append("g,lambda_r,q_star")
        for lr in lr_values:
            for g in g_values:
                params = CultureParams(
                    beta=config.options["beta"],
                    g_hat=config.options["g_hat"],
                    v_hat=config.options["v_hat"],
                    lambda_r=lr,
                    g=g,
                    q0=config.options["q0"],
                )
                lines.append(f"{g:.10f},{lr:.10f},{steady_state(params):.12f}")
    else:
        raise InvalidRangeError(f"unknown sweep domain {domain!r}")
    _emit("\n".join(lines) + "\n", config.out_path)
    return 0


def cmd_enumerate(config: RunConfig) -> int:
    ground = GroundSet(tuple(config.options["options"].split(",")))
    limit = config.options.get("limit")
    if config.options.get("count_only"):
        count = sum(1 for _ in enumerate_choice_functions(ground))
        _emit(json.dumps({"count": count}) + "\n", config.out_path)
        return 0
    chunks = []
    for k, cf in enumerate(enumerate_choice_functions(ground)):
        if limit is not None and k >= limit:
            break
        chunks.append(json.dumps(json.loads(serialize_choice_function(cf))))
    _emit("\n".join(chunks) + ("\n" if chunks else ""), config.out_path)
    return 0


_COMMANDS = {
    "check-axioms": cmd_check_axioms,
    "reveal": cmd_reveal,
    "synthesize": cmd_synthesize,
    "welfare": cmd_welfare,
    "freedom": cmd_freedom,
    "simulate-media": cmd_simulate_media,
    "simulate-culture": cmd_simulate_culture,
    "sweep": cmd_sweep,
    "enumerate": cmd_enumerate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rschoice",
        description="Analyze finite choice functions for restriction-sensitive behavior.",
    )
    default_seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    parser.add_argument("--seed", type=int, default=default_seed,
                        help=f"seed for randomized sweeps (default: ${SEED_ENV_VAR} or 0)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_cf_input(p):
        p.add_argument("input", help="choice-function file (or - for stdin)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("check-axioms", help="axiom verdicts for a choice function")
    add_cf_input(p)
    p.add_argument("--cap", type=int, default=16, help="max violations listed per axiom")

    p = sub.add_parser("reveal", help="revealed relations and similarity classes")
    add_cf_input(p)
    p.add_argument("--cross-check", action="store_true",
                   help="also compare the triple and arbitrary-menu reaction definitions")

    p = sub.add_parser("synthesize", help="construct a rationalizing structure")
    add_cf_input(p)

    p = sub.add_parser("welfare", help="welfare relations and containment report")
    add_cf_input(p)
    p.add_argument("--transitive-closure", action="store_true")

    p = sub.add_parser("freedom", help="satisfied-freedom counts per menu (CSV)")
    p.add_argument("input", help="structure JSON file")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate-media", help="one media attention decision")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--menu", choices=("M", "N"), required=True)
    p.add_argument("--no-reactance", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate-culture", help="cultural transmission dynamics")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--g-hat", type=float, required=True)
    p.add_argument("--v-hat", type=float, required=True)
    p.add_argument("--lambda-r", type=float, required=True)
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--q0", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=200.0)
    p.add_argument("--record-every", type=int, default=100)
    p.add_argument("--trajectory-out", default=None, help="write tau,q CSV here")
    p.add_argument("--consistency-grid", type=int, default=None,
                   help="also run the discretized two-stage consistency check")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="parameter sweeps (tidy CSV)")
    p.add_argument("domain", choices=("media", "culture"))
    p.add_argument("--menu", choices=("M", "N"), default="N")
    p.add_argument("--p-range", default=None, help="LO:HI:N")
    p.add_argument("--lambda-range", default="0.7:0.7:1", help="LO:HI:N")
    p.add_argument("--samples", type=int, default=None, help="random (p, lambda) draws instead of a grid")
    p.add_argument("--g-range", default=None, help="LO:HI:N")
    p.add_argument("--lambda-r-range", default=None, help="LO:HI:N")
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--g-hat", type=float, default=2.0)
    p.add_argument("--v-hat", type=float, default=2.0)
    p.add_argument("--lambda-r", type=float, default=1.5)
    p.add_argument("--q0", type=float, default=0.3)
    p.add_argument("--out", default=None)

    p = sub.add_parser("enumerate", help="stream all choice functions (small ground sets)")
    p.add_argument("--options", required=True, help="comma-separated option labels")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", default=None)
    return parser


def dispatch(config: RunConfig) -> int:
    """Route a parsed invocation; exceptions become coded stderr lines."""
    handler = _COMMANDS[config.subcommand]
    try:
        return handler(config)
    except ChoiceModelError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(json.dumps({"error": "file-not-found", "message": str(exc)}) + "\n")
        return 2


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    subcommand = options.pop("subcommand")
    seed = options.pop("seed", 0)
    input_path = options.pop("input", None)
    out_path = options.pop("out", None)
    cap = options.pop("cap", 16)
    return RunConfig(
        subcommand=subcommand,
        input_path=input_path,
        out_path=out_path,
        seed=seed,
        violation_cap=cap,
        options={k: v for k, v in options.items() if v is not None},
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return dispatch(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
