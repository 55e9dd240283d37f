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
import functools
import json
import os
import random
import sys

from .axioms import DEFAULT_VIOLATION_CAP, AxiomViolationError, check_all
from .core import (
    ChoiceFunction,
    ChoiceModelError,
    GroundSet,
    MalformedKeyError,
    choice_function_doc,
    enumerate_tables,
    parse_choice_function,
    parse_structure_json,
)
from .culture import (
    CultureParams,
    check_consistency_grid,
    culture_dynamics,
    culture_rsc_consistency,
    steady_state,
)
from .media import (
    SOURCES,
    InvalidParamsError,
    MediaParams,
    media_menu_choice,
    media_pstar,
    media_sweep,
)
from .normative import freedom_model, freedom_table_csv, welfare_report
from .revealed import reaction_crosscheck, reveal
from .structure import certify_single_peaked, synthesis_report_json, synthesize_rs

SEED_ENV_VAR = "RSCHOICE_SEED"
#: Most points one sweep may evaluate: any single ``LO:HI:N`` count, a
#: grid's product of counts, or ``--samples``.
MAX_SWEEP_POINTS = 1_000_000


class InvalidRangeError(ChoiceModelError):
    code = "invalid-range"


class PointBudgetError(ChoiceModelError):
    code = "too-many-points"


class OutputPathError(ChoiceModelError):
    code = "invalid-output-path"


class InvalidSeedError(ChoiceModelError):
    code = "invalid-seed"


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except IsADirectoryError as exc:
        raise MalformedKeyError(f"input {path!r} is a directory, not a file") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise OutputPathError(f"cannot write output {path!r}: {exc.strerror}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def _load_choice(args: argparse.Namespace) -> ChoiceFunction:
    return parse_choice_function(_read_input(args.input), args.format)


def _check_points(count: int, what: str) -> None:
    if count > MAX_SWEEP_POINTS:
        raise PointBudgetError(f"{what} has {count} points, over the budget of {MAX_SWEEP_POINTS}")


def _parse_range(spec: str) -> list[float]:
    """LO:HI:N inclusive grid; 1 <= N <= MAX_SWEEP_POINTS."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidRangeError(f"range must be LO:HI:N, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidRangeError(f"range must be numeric, got {spec!r}") from exc
    if count < 1 or hi < lo:
        raise InvalidRangeError(f"empty range {spec!r}")
    _check_points(count, f"range {spec!r}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def cmd_check_axioms(args: argparse.Namespace) -> int:
    if args.cap < 0:
        raise InvalidRangeError(f"--cap must be nonnegative, got {args.cap}")
    cf = _load_choice(args)
    verdicts = check_all(cf, cap=args.cap)
    _emit(json.dumps([v.to_dict() for v in verdicts], indent=2) + "\n", args.out)
    core = {"Exp", "NRS", "IR", "SPR"}
    return 1 if any(not v.holds for v in verdicts if v.axiom in core) else 0


def cmd_reveal(args: argparse.Namespace) -> int:
    cf = _load_choice(args)
    report = reveal(cf)
    if args.cross_check:
        doc = json.loads(report.to_json())
        doc["definition_cross_check"] = {
            k: [list(p) for p in v] for k, v in reaction_crosscheck(cf).items()
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(report.to_json(), args.out)
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    cf = _load_choice(args)
    try:
        structure, trace = synthesize_rs(cf)
    except AxiomViolationError as exc:
        doc = {
            "error": exc.code,
            "message": str(exc),
            "verdicts": [v.to_dict() for v in exc.verdicts],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 1
    certificate = certify_single_peaked(structure)
    _emit(synthesis_report_json(structure, certificate, trace), args.out)
    return 0


def cmd_welfare(args: argparse.Namespace) -> int:
    cf = _load_choice(args)
    report = welfare_report(cf, transitive_closure=args.transitive_closure)
    _emit(report.to_json(), args.out)
    return 0


def cmd_freedom(args: argparse.Namespace) -> int:
    structure = parse_structure_json(_read_input(args.input))
    model = freedom_model(structure)
    _emit(freedom_table_csv(model), args.out)
    return 0


def cmd_simulate_media(args: argparse.Namespace) -> int:
    params = MediaParams(p=args.p, lam=args.lam)
    outcome = media_menu_choice(params, args.menu, no_reactance=args.no_reactance)
    _emit(outcome.to_json(), args.out)
    return 0


def cmd_simulate_culture(args: argparse.Namespace) -> int:
    params = CultureParams(
        beta=args.beta,
        g_hat=args.g_hat,
        v_hat=args.v_hat,
        lambda_r=args.lambda_r,
        g=args.g,
        q0=args.q0,
        dt=args.dt,
        horizon=args.horizon,
    )
    if args.consistency_grid is not None:
        check_consistency_grid(args.consistency_grid)
    # Only q_end is printed; an invalid --record-every still fails below.
    record_every = args.record_every
    if not args.trajectory_out and record_every >= 1:
        record_every = max(params.steps, 1)
    outcome = culture_dynamics(params, record_every=record_every)
    if args.trajectory_out:
        _write(args.trajectory_out, outcome.trajectory_csv())
    doc = outcome.to_dict()
    if args.consistency_grid is not None:
        doc["consistency"] = culture_rsc_consistency(params, args.consistency_grid).to_dict()
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _sweep_seed(args: argparse.Namespace) -> int:
    """``--seed``, else ``$RSCHOICE_SEED``, else 0; read only by ``sweep``."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidSeedError(f"${SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def cmd_sweep(args: argparse.Namespace) -> int:
    rng = random.Random(_sweep_seed(args))
    lines: list[str] = []
    if args.domain == "media":
        lam_values = _parse_range(args.lambda_range)
        p_values = _parse_range(args.p_range) if args.p_range else None
        lines.append("p,lambda,menu,chosen,u_own_moderate,v_opposite_extreme,pstar")
        ps: list[float] = []
        lams: list[float] = []
        if args.samples is not None and args.samples < 0:
            raise InvalidRangeError(f"--samples must be nonnegative, got {args.samples}")
        if args.samples:
            _check_points(args.samples, "--samples")
            for _ in range(args.samples):
                lams.append(rng.uniform(0.5 + 1e-9, 0.75 - 1e-9))
                ps.append(rng.uniform(1e-9, 0.5 - 1e-9))
        else:
            if p_values is None:
                raise InvalidRangeError("media sweep needs --p-range or --samples")
            _check_points(len(lam_values) * len(p_values), "the --lambda-range x --p-range grid")
            ps = p_values * len(lam_values)
            lams = [lam for lam in lam_values for _ in p_values]
        chosen, u_l, v_rr = media_sweep(ps, lams, args.menu)
        for p, lam, c, u, v in zip(ps, lams, chosen.tolist(), u_l.tolist(), v_rr.tolist()):
            lines.append(
                f"{p:.10f},{lam:.10f},{args.menu},{SOURCES[c]},"
                f"{u:.12f},{v:.12f},{media_pstar(lam):.12f}"
            )
    else:
        if args.g_range is None:
            raise InvalidRangeError("culture sweep needs --g-range")
        g_values = _parse_range(args.g_range)
        lr_values = _parse_range(args.lambda_r_range) if args.lambda_r_range else [args.lambda_r]
        _check_points(len(lr_values) * len(g_values), "the --lambda-r-range x --g-range grid")
        lines.append("g,lambda_r,q_star")
        for lr in lr_values:
            for g in g_values:
                params = CultureParams(
                    beta=args.beta,
                    g_hat=args.g_hat,
                    v_hat=args.v_hat,
                    lambda_r=lr,
                    g=g,
                    q0=args.q0,
                )
                try:
                    q_star = steady_state(params)
                except InvalidParamsError as exc:
                    raise InvalidRangeError(f"sweep grid leaves the float range: {exc}") from exc
                lines.append(f"{g:.10f},{lr:.10f},{q_star:.12f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise InvalidRangeError(f"--limit must be nonnegative, got {args.limit}")
    ground = GroundSet(tuple(args.options.split(",")))
    tables = enumerate_tables(ground)
    if args.count_only:
        _emit(json.dumps({"count": len(tables)}) + "\n", args.out)
        return 0
    chunks = [json.dumps(choice_function_doc(ground, table)) for table in tables[:args.limit]]
    _emit("\n".join(chunks) + ("\n" if chunks else ""), args.out)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: ``parse_args``
    keeps no state between calls, so in-process callers of ``main`` pay only
    for their own arguments."""
    parser = argparse.ArgumentParser(
        prog="rschoice",
        description="Analyze finite choice functions for restriction-sensitive behavior.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help=f"seed for randomized sweeps (default: ${SEED_ENV_VAR} or 0)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_cf_input(p):
        p.add_argument("input", help="choice-function file (or - for stdin)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("check-axioms", help="axiom verdicts for a choice function")
    add_cf_input(p)
    p.add_argument("--cap", type=int, default=DEFAULT_VIOLATION_CAP,
                   help="max violations listed per axiom")

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


def main(argv: list[str] | None = None) -> int:
    """Parse and route one invocation; exceptions become coded stderr lines."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except ChoiceModelError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(json.dumps({"error": "file-not-found", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
