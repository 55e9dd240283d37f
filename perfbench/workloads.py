"""The four benchmark workloads.

Each workload builds a pool of inputs from the seed and writes them to
files (``build``), takes one pool item through its sequence of calls
(``job``), and checks the outputs against answers known by construction
(``check``).  For the traced run it repeats the set-up (``replay_setup``)
and each job (``replay``) as the public library calls the CLI makes, with
a span and counters around each call; nothing inside the library is
patched.  Jobs drive ``rschoice.cli.main`` in-process.  ``check``,
``replay`` and ``replay_setup`` return failure messages, none when correct.

Work counters are computed from inputs and outputs (menus in a parsed
file, Expansion candidate pairs, composition pairs, RK4 steps, media
evaluations), so they repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

from rschoice import cli
from rschoice.axioms import (
    AxiomViolationError,
    check_all,
    check_exp,
    check_iia,
    check_ir,
    check_nrs,
    check_spr,
)
from rschoice.core import (
    ChoiceFunction,
    GroundSet,
    enumerate_choice_functions,
    parse_choice_function,
    parse_structure_json,
    serialize_choice_function,
)
from rschoice.culture import CultureParams, culture_dynamics, culture_rsc_consistency
from rschoice.media import MediaParams, media_menu_choice
from rschoice.normative import (
    WelfareReport,
    bernheim_rangel_pstar,
    check_menu_axioms,
    freedom_model,
    freedom_ranking,
    freedom_table_csv,
    improving_from_structure,
    masatlioglu_pr,
)
from rschoice.revealed import reaction_crosscheck, reveal
from rschoice.structure import (
    certify_single_peaked,
    evaluate,
    minimal_structure,
    synthesis_report_json,
    synthesize_rs,
)

import gen

CORE_AXIOMS = ("Exp", "NRS", "IR", "SPR")
ALL_AXIOMS = CORE_AXIOMS + ("IIA",)
#: The CLI's default ``--cap`` and the library's default verdict cap.
VIOLATION_CAP = 16
#: ``check_menu_axioms`` samples composition pairs beyond this many.
COMPOSITION_SAMPLE_LIMIT = 200_000


@dataclass
class Call:
    """One in-process CLI invocation."""

    code: int
    out: str
    err: str
    seconds: float


def call_cli(argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return Call(code, out.getvalue(), err.getvalue(), perf_counter() - start)


@dataclass
class Outcome:
    """A job's CLI calls, in order, and library results its oracle needs."""

    calls: dict[str, Call] = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    @property
    def stdout(self) -> str:
        return "".join(c.out for c in self.calls.values())


@dataclass
class ChoiceItem:
    """A generated choice function: its size, file and choice table."""

    n: int
    path: str
    table: list[int]

    @property
    def structure_path(self) -> str:
        return self.path[: -len(".json")] + ".structure.json"


def option_names(n: int) -> tuple[str, ...]:
    return tuple(f"o{i}" for i in range(n))


def positions(names) -> list[int]:
    return [int(name[1:]) for name in names]


def write_choice(path: str, n: int, table: list[int], tr) -> None:
    cf = ChoiceFunction(GroundSet(option_names(n)), tuple(table))
    with tr.span("core.serialize"):
        text = serialize_choice_function(cf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def expect_codes(outcome: Outcome, want: dict[str, int]) -> list[str]:
    got = {sub: outcome.calls[sub].code for sub in want if sub in outcome.calls}
    if got == want:
        return []
    return [f"exit codes {got}, expected {want}"]


# ---------------------------------------------------------------------------
# Oracles shared by the choice-function workloads
# ---------------------------------------------------------------------------


def witness_replays(table: list[int], axiom: str, witness: list,
                    reaction: set[tuple[str, str]], block: dict[str, int]) -> bool:
    """True when a reported violation really occurs in the input table.

    ``reaction`` and ``block`` (option -> similarity class) come from the
    same job's ``reveal`` output; the choice conditions are read from the
    generated table.
    """
    pos = {name: i for i, name in enumerate(option_names(len(block)))}

    def c(*names) -> int:
        return table[sum(1 << pos[x] for x in names)]

    def menu(key: str) -> int:
        return sum(1 << pos[x] for x in key.split(","))

    if axiom == "Exp":
        a, b, x, got = witness
        ma, mb = menu(a), menu(b)
        return table[ma] == table[mb] == pos[x] and table[ma | mb] == pos[got] != pos[x]
    if axiom == "NRS":
        x, y, z = witness
        return (block[x] == block[y] == block[z]
                and c(x, y) == pos[x] and c(y, z) == pos[y] and c(x, z) != pos[x])
    if axiom == "IR":
        x, y, z, t = witness
        return (block[x] == block[y] != block[z] and block[t] != block[x]
                and c(x, z) == pos[x] and c(y, z) == pos[z]
                and c(y, t) == pos[y] and c(x, t) != pos[x])
    if axiom == "SPR":
        x, y, z, u = witness
        return (block[x] == block[y] == block[z] != block[u]
                and any(a == x for a, _ in reaction) and (z, y) in reaction
                and c(x, y) == pos[x] and c(y, z) == pos[y]
                and c(x, u) == pos[x] and c(y, u) != pos[y])
    if axiom == "IIA":
        a, b = witness
        ma, mb = menu(a), menu(b)
        return (mb & ~ma == 0 and mb != ma and (mb >> table[ma]) & 1 == 1
                and table[mb] != table[ma])
    return False


def revealed_relations(reveal_doc: dict, n: int) -> tuple[set, dict[str, int]] | None:
    """(reaction pairs, option -> class) from a ``reveal`` report, or None
    when its classes do not partition the options."""
    classes = reveal_doc["similarity_classes"]
    if sorted(name for block in classes for name in block) != sorted(option_names(n)):
        return None
    block = {name: b for b, names in enumerate(classes) for name in names}
    return {tuple(p) for p in reveal_doc["reaction"]}, block


def certificate_holds(s: gen.Structure, thresholds: dict[str, str],
                      peaks: dict[str, str]) -> bool:
    """Independent check of a single-peaked certificate.

    Per type, the reaction order must agree with welfare weakly above the
    threshold and be single-peaked in welfare weakly below it, with the
    peak its reaction-best option.
    """
    welfare_rank = {o: r for r, o in enumerate(s.welfare)}
    reaction_rank = {o: r for r, o in enumerate(s.reaction)}
    for block in s.types:
        key = ",".join(f"o{i}" for i in sorted(block))
        if key not in thresholds or key not in peaks:
            return False
        line = sorted(block, key=welfare_rank.__getitem__)
        split = line.index(int(thresholds[key][1:]))
        upper = [reaction_rank[o] for o in line[: split + 1]]
        lower = [reaction_rank[o] for o in line[split:]]
        top = lower.index(min(lower))
        if (upper != sorted(upper)
                or lower[: top + 1] != sorted(lower[: top + 1], reverse=True)
                or lower[top:] != sorted(lower[top:])
                or line[split + top] != int(peaks[key][1:])):
            return False
    return True


def structure_from_doc(doc: dict) -> gen.Structure:
    return gen.Structure([positions(b) for b in doc["types"]],
                         positions(doc["welfare"]), positions(doc["reaction"]))


# ---------------------------------------------------------------------------
# Traced library calls shared by the replays
# ---------------------------------------------------------------------------


def traced_parse(tr, path: str, n: int) -> ChoiceFunction:
    with open(path, "rb") as fh:
        data = fh.read()
    with tr.span("core.parse"):
        cf = parse_choice_function(data)
    tr.count("core.parse_calls")
    tr.count("core.menus_parsed", (1 << n) - 1)
    return cf


def traced_reveal(tr, cf: ChoiceFunction):
    with tr.span("revealed.reveal"):
        report = reveal(cf)
    tr.count("revealed.reaction_pairs", sum(bin(row).count("1") for row in report.reaction.rows))
    return report


_CHECKS = {
    "Exp": lambda cf, rep, cap: check_exp(cf, cap),
    "NRS": lambda cf, rep, cap: check_nrs(cf, rep.similarity_classes, cap),
    "IR": lambda cf, rep, cap: check_ir(cf, rep.similarity_classes, cap),
    "SPR": lambda cf, rep, cap: check_spr(cf, rep, cap),
    "IIA": lambda cf, rep, cap: check_iia(cf, cap),
}


def traced_checks(tr, cf, report, axioms, cap: int, exp_pairs: int) -> list:
    verdicts = []
    for axiom in axioms:
        with tr.span("axioms." + axiom.lower()):
            verdict = _CHECKS[axiom](cf, report, cap)
        if axiom == "Exp":
            tr.count("axioms.exp_pairs", exp_pairs)
        tr.count("axioms.verdicts")
        tr.count("axioms.violations", len(verdict.violations))
        tr.count("axioms.capped", int(verdict.truncated))
        verdicts.append(verdict)
    return verdicts


def composition_pairs(structure) -> int:
    """(C, D) pairs the composition check faces: (sum over types of
    2^|T| - 1) squared."""
    within = sum((1 << len(block)) - 1 for block in structure.types.blocks)
    return within * within


def traced_menu_axioms(tr, model):
    with tr.span("normative.freedom_ranking"):
        ranking = freedom_ranking(model)
    pairs = composition_pairs(model.structure)
    with tr.span("normative.menu_axioms", composition_pairs=pairs,
                 exhaustive=pairs <= COMPOSITION_SAMPLE_LIMIT):
        verdicts = check_menu_axioms(model, ranking)
    tr.count("normative.menu_checks")
    tr.count("normative.menu_sampled", int(pairs > COMPOSITION_SAMPLE_LIMIT))
    tr.count("normative.composition_pairs", min(pairs, COMPOSITION_SAMPLE_LIMIT))
    return verdicts


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads.

    ``LAYERS`` names the per-layer metrics a workload's traced run
    reports: ``<span>_s`` sums a span's durations, ``cli.<subcommand>_s``
    the untraced calls of a subcommand, other names are counters or
    ratios.  Only layers the workload exercises are listed.
    """

    #: CLI calls made once during set-up, and the stdout they produced.
    setup_calls: dict[str, Call] = {}
    setup_stdout = ""

    def counts(self, o: Outcome) -> dict[str, int]:
        """Per-job tallies reported beside the metrics."""
        return {}

    def replay_setup(self, seed: int, workdir: str, tr) -> list[str]:
        """Traced repeat of the set-up: rebuild the inputs."""
        self.build(seed, workdir, tr)
        return []


def interleave(classes: list[list[tuple[int, int]]], pattern: list[int]) -> list[tuple[int, int]]:
    """Pool order that repeats ``pattern`` (class indices), so any prefix of
    the job sequence keeps the class shares of the whole pool."""
    queues = [list(c) for c in classes]
    out = []
    while any(queues):
        for c in pattern:
            if queues[c]:
                out.append(queues[c].pop(0))
    return out


class AnalyzeRSC(Workload):
    """Axiom-clean single-peaked choice at n = 10 and 11.

    Every axiom holds, so each Expansion scan runs to the end (three per
    job), and the menu-axiom scan covers every menu.  One job in five is
    at n = 11, so p50 falls inside the n = 10 class and p90 inside the
    n = 11 class.  At n = 11 two types of 6 and 5 options make one
    composition check take about a second, so n = 11 uses 3 to 5 types.

    The structures come from a fixed catalogue and the seed renames their
    options: every seed writes different files but asks for the same
    work.  With structures drawn per seed, the menu-axiom time of a pool
    of 30 varied by a quartile spread of 28 % between seeds, more than
    any regression bound could absorb.
    """

    CATALOGUE_SEED = 0

    name = "analyze-rsc"
    SIZE_CLASSES = [
        [(10, k) for k in (2, 3, 4, 5) * 6],
        [(11, k) for k in (3, 4, 5) * 2],
    ]
    PATTERN = [0, 0, 0, 0, 1]
    SUBCOMMANDS = ("check-axioms", "reveal", "synthesize", "welfare")
    LAYERS = (
        "axioms.exp_s", "axioms.nrs_s", "axioms.ir_s", "axioms.spr_s", "axioms.iia_s",
        "axioms.exp_pairs", "axioms.violations", "axioms.capped_ratio",
        "structure.synthesize_s", "structure.construct_s", "structure.minimal_s",
        "structure.evaluate_s", "structure.certify_s",
        "revealed.reveal_s", "revealed.reaction_pairs",
        "normative.welfare_s", "normative.pr_s", "normative.pstar_s",
        "normative.menu_axioms_s", "normative.freedom_ranking_s",
        "normative.composition_pairs", "normative.composition_sampled_ratio",
        "core.parse_s", "core.parse_calls", "core.menus_parsed", "core.serialize_s",
        "cli.check-axioms_s", "cli.reveal_s", "cli.synthesize_s", "cli.welfare_s",
        "cli.freedom_s", "trace.overhead_ratio",
    )

    def build(self, seed: int, workdir: str, tr) -> list[ChoiceItem]:
        catalogue, rng = random.Random(self.CATALOGUE_SEED), random.Random(seed)
        items = []
        for i, (n, k) in enumerate(interleave(self.SIZE_CLASSES, self.PATTERN)):
            structure = gen.single_peaked_structure(catalogue, n, k)
            table = gen.two_stage_table(n, gen.relabel(structure, rng.sample(range(n), n)))
            path = os.path.join(workdir, f"choice{i:03d}.json")
            write_choice(path, n, table, tr)
            items.append(ChoiceItem(n, path, table))
        return items

    def job(self, item: ChoiceItem) -> Outcome:
        o = Outcome()
        for sub in self.SUBCOMMANDS:
            o.calls[sub] = call_cli([sub, item.path])
        if o.calls["synthesize"].code != 0:
            return o
        structure_text = json.dumps(json.loads(o.calls["synthesize"].out)["structure"])
        with open(item.structure_path, "w", encoding="utf-8") as fh:
            fh.write(structure_text)
        o.calls["freedom"] = call_cli(["freedom", item.structure_path])
        model = freedom_model(parse_structure_json(structure_text))
        ranking = freedom_ranking(model)
        o.values["menu_axioms"] = check_menu_axioms(model, ranking)
        o.values["scores"] = ranking.scores
        o.values["composition_pairs"] = composition_pairs(model.structure)
        return o

    def check(self, item: ChoiceItem, o: Outcome) -> list[str]:
        fails = expect_codes(o, dict.fromkeys(self.SUBCOMMANDS + ("freedom",), 0))
        if fails:
            return fails
        verdicts = {v["axiom"]: v for v in json.loads(o.calls["check-axioms"].out)}
        fails += [f"{a} reported failing on an axiom-clean input"
                  for a in CORE_AXIOMS if not verdicts[a]["holds"]]
        if revealed_relations(json.loads(o.calls["reveal"].out), item.n) is None:
            fails.append("similarity classes do not partition the options")
        doc = json.loads(o.calls["synthesize"].out)
        structure = structure_from_doc(doc["structure"])
        if gen.two_stage_table(item.n, structure) != item.table:
            fails.append("emitted structure does not regenerate the input")
        cert = doc["certificate"]
        if not (cert["verified"] and certificate_holds(structure, cert["thresholds"], cert["peaks"])):
            fails.append("certificate does not verify")
        welfare = json.loads(o.calls["welfare"].out)
        if not {"welfare_improving", "pstar", "pr", "comparisons"} <= set(welfare):
            fails.append("welfare report is missing relations")
        rows = o.calls["freedom"].out.splitlines()
        counts = [int(row.rsplit(",", 1)[1]) for row in rows[1:]]
        if rows[:1] != ["menu,n"] or counts != list(o.values["scores"][1:]):
            fails.append("freedom table disagrees with the freedom ranking")
        fails += [f"{v.axiom} fails on the freedom ranking"
                  for v in o.values["menu_axioms"] if not v.holds]
        return fails

    def counts(self, o: Outcome) -> dict[str, int]:
        sampled = o.values.get("composition_pairs", 0) > COMPOSITION_SAMPLE_LIMIT
        return {"menu_checks_sampled" if sampled else "menu_checks_exhaustive": 1}

    def replay(self, item: ChoiceItem, tr) -> list[str]:
        fails = []
        exp_pairs = gen.exp_candidate_pairs(item.table, item.n)

        cf = traced_parse(tr, item.path, item.n)  # check-axioms
        report = traced_reveal(tr, cf)
        verdicts = traced_checks(tr, cf, report, ALL_AXIOMS, VIOLATION_CAP, exp_pairs)
        json.dumps([v.to_dict() for v in verdicts], indent=2)
        fails += [f"{v.axiom} fails on an axiom-clean input" for v in verdicts[:4] if not v.holds]

        cf = traced_parse(tr, item.path, item.n)  # reveal
        traced_reveal(tr, cf).to_json()

        cf = traced_parse(tr, item.path, item.n)  # synthesize
        with tr.span("structure.synthesize"):
            report = traced_reveal(tr, cf)
            traced_checks(tr, cf, report, ("Exp", "NRS", "IR"), VIOLATION_CAP, exp_pairs)
            with tr.span("structure.construct"):
                structure, trace = synthesize_rs(cf, validate=False, report=report)
        with tr.span("structure.certify"):
            certificate = certify_single_peaked(structure)
        synthesis_report_json(structure, certificate, trace)
        with tr.span("structure.evaluate"):
            regenerated = evaluate(structure)
        if list(regenerated.choices) != item.table:
            fails.append("synthesized structure does not regenerate the input")

        cf = traced_parse(tr, item.path, item.n)  # welfare
        with tr.span("normative.welfare"):
            with tr.span("structure.minimal"):
                minimal, minimal_cert = minimal_structure(cf)
            improving = improving_from_structure(minimal, minimal_cert)
            with tr.span("normative.pstar"):
                pstar = bernheim_rangel_pstar(cf)
            with tr.span("normative.pr"):
                pr = masatlioglu_pr(cf)
            WelfareReport(improving, pstar, pr, {}).to_json()

        model = freedom_model(structure, certificate)  # freedom, then the menu axioms
        freedom_table_csv(model)
        fails += [f"{v.axiom} fails on the freedom ranking"
                  for v in traced_menu_axioms(tr, model) if not v.holds]
        return fails


class ScreenNoisy(Workload):
    """Near-single-peaked choice at n = 12 and 13 with 1 % of menus
    reassigned and one planted Expansion violation.

    The axiom checks stop at the cap within milliseconds, so parsing the
    2^n menus of each file does most of the work.  One job in five is at
    n = 13, so p50 falls inside the n = 12 class and p90 inside the n = 13
    class.  (A job at n = 14 takes about 0.5 s, too few for 100 jobs in a
    25-second run.)
    """

    name = "screen-noisy"
    SIZE_CLASSES = [
        [(12, k) for k in (2, 3, 4, 5, 6) * 3 + (4,)],
        [(13, k) for k in (3, 4, 5, 6)],
    ]
    PATTERN = [0, 0, 0, 0, 1]
    NOISE = 0.01
    EXPECTED_CODES = {"check-axioms": 1, "reveal": 0, "synthesize": 1, "welfare": 2}
    LAYERS = (
        "axioms.exp_s", "axioms.nrs_s", "axioms.ir_s", "axioms.spr_s", "axioms.iia_s",
        "axioms.exp_pairs", "axioms.violations", "axioms.capped_ratio",
        "structure.synthesize_s", "structure.minimal_s", "normative.welfare_s",
        "revealed.reveal_s", "revealed.reaction_pairs", "revealed.crosscheck_s",
        "core.parse_s", "core.parse_calls", "core.menus_parsed", "core.serialize_s",
        "cli.check-axioms_s", "cli.reveal_s", "cli.synthesize_s", "cli.welfare_s",
        "trace.overhead_ratio",
    )

    def build(self, seed: int, workdir: str, tr) -> list[ChoiceItem]:
        rng = random.Random(seed)
        items = []
        for i, (n, k) in enumerate(interleave(self.SIZE_CLASSES, self.PATTERN)):
            table = gen.two_stage_table(n, gen.single_peaked_structure(rng, n, k))
            gen.reassign_menus(rng, table, n, self.NOISE)
            gen.plant_exp_violation(rng, table, n)
            path = os.path.join(workdir, f"noisy{i:03d}.json")
            write_choice(path, n, table, tr)
            items.append(ChoiceItem(n, path, table))
        return items

    def job(self, item: ChoiceItem) -> Outcome:
        o = Outcome()
        o.calls["check-axioms"] = call_cli(["check-axioms", item.path])
        o.calls["reveal"] = call_cli(["reveal", item.path, "--cross-check"])
        o.calls["synthesize"] = call_cli(["synthesize", item.path])
        o.calls["welfare"] = call_cli(["welfare", item.path])
        return o

    def check(self, item: ChoiceItem, o: Outcome) -> list[str]:
        fails = expect_codes(o, self.EXPECTED_CODES)
        if fails:
            return fails
        welfare = o.calls["welfare"]
        lines = welfare.err.splitlines()
        if (welfare.out or len(lines) != 1
                or json.loads(lines[0]).get("error") != "not-single-peaked-rsc"):
            fails.append("welfare did not report one coded error line")
        reveal_doc = json.loads(o.calls["reveal"].out)
        if reveal_doc["definition_cross_check"]["only_in_triple_scan"]:
            fails.append("a triple reaction is missing from the menu scan")
        relations = revealed_relations(reveal_doc, item.n)
        if relations is None:
            return fails + ["similarity classes do not partition the options"]
        synthesize = json.loads(o.calls["synthesize"].out)
        if synthesize.get("error") != "axiom-violation":
            fails.append("synthesize did not report an axiom violation")
        for verdicts in (json.loads(o.calls["check-axioms"].out), synthesize["verdicts"]):
            exp = [v for v in verdicts if v["axiom"] == "Exp"]
            if not exp or exp[0]["holds"]:
                fails.append("Expansion reported holding despite the planted violation")
            for v in verdicts:
                bad = [w for w in v["violations"]
                       if not witness_replays(item.table, v["axiom"], w, *relations)]
                if bad:
                    fails.append(f"{v['axiom']} witness {bad[0]} does not replay")
        return fails

    def replay(self, item: ChoiceItem, tr) -> list[str]:
        fails = []
        exp_pairs = gen.exp_candidate_pairs(item.table, item.n)

        cf = traced_parse(tr, item.path, item.n)  # check-axioms
        report = traced_reveal(tr, cf)
        verdicts = traced_checks(tr, cf, report, ALL_AXIOMS, VIOLATION_CAP, exp_pairs)
        json.dumps([v.to_dict() for v in verdicts], indent=2)
        if verdicts[0].holds:
            fails.append("Expansion reported holding despite the planted violation")

        cf = traced_parse(tr, item.path, item.n)  # reveal --cross-check
        traced_reveal(tr, cf).to_json()
        with tr.span("revealed.crosscheck"):
            cross = reaction_crosscheck(cf)
        if cross["only_in_triple_scan"]:
            fails.append("a triple reaction is missing from the menu scan")

        cf = traced_parse(tr, item.path, item.n)  # synthesize: validation fails
        with tr.span("structure.synthesize"):
            report = traced_reveal(tr, cf)
            traced_checks(tr, cf, report, ("Exp", "NRS", "IR"), VIOLATION_CAP, exp_pairs)

        cf = traced_parse(tr, item.path, item.n)  # welfare: not single-peaked
        with tr.span("normative.welfare"):
            try:
                with tr.span("structure.minimal"):
                    minimal_structure(cf)
                fails.append("minimal structure built despite an Expansion violation")
            except AxiomViolationError:
                pass
        return fails


@dataclass
class CensusResult:
    """One function's verdicts, and its structure when the core axioms hold."""

    cf: ChoiceFunction
    verdicts: list
    structure: object = None
    certificate: object = None


class Census4(Workload):
    """Every choice function on four options, streamed from ``enumerate``.

    Inputs are tiny, so fixed per-call cost dominates.  Each function is
    parsed, revealed and given all verdicts with cap 1, then synthesized
    and certified when Exp, NRS and IR hold.  A job takes a block of 64
    functions, a seeded random sample of the enumeration: the cost of one
    function is bimodal (about 60 % take 110-150 us, 35 % take 180-240 us
    on a shared 2-core machine), so a per-function p50 sat on the shoulder
    between the two and moved by a third between runs, while a random
    block costs about the same every time.  Every full pass over the 324
    blocks must see the pinned counts: 20 736 functions, 168 passing the
    core axioms, 168 synthesized structures regenerating their function.
    """

    name = "census-4"
    OPTIONS = ("a", "b", "c", "d")
    PINNED = (20736, 168, 168)
    BLOCK = 64
    LAYERS = (
        "axioms.exp_s", "axioms.nrs_s", "axioms.ir_s", "axioms.spr_s", "axioms.iia_s",
        "axioms.exp_pairs", "axioms.violations", "axioms.capped_ratio",
        "structure.construct_s", "structure.certify_s", "structure.evaluate_s",
        "revealed.reveal_s", "revealed.reaction_pairs",
        "core.parse_s", "core.parse_calls", "core.menus_parsed",
        "core.enumerate_s", "core.serialize_s", "cli.enumerate_s", "trace.overhead_ratio",
    )

    def __init__(self):
        self._tally = [0, 0, 0]

    def build(self, seed: int, workdir: str, tr) -> list[list[str]]:
        call = call_cli(["enumerate", "--options", ",".join(self.OPTIONS)])
        if call.code != 0:
            raise RuntimeError(f"enumerate exited {call.code}: {call.err.strip()}")
        self.setup_calls = {"enumerate": call}
        self.setup_stdout = call.out
        path = os.path.join(workdir, "census4.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(call.out)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        random.Random(seed).shuffle(lines)
        return [lines[i:i + self.BLOCK] for i in range(0, len(lines), self.BLOCK)]

    def job(self, block: list[str]) -> Outcome:
        o = Outcome()
        results = o.values["results"] = []
        for line in block:
            cf = parse_choice_function(line)
            report = reveal(cf)
            result = CensusResult(cf, check_all(cf, report=report, cap=1))
            if all(v.holds for v in result.verdicts[:3]):
                result.structure, _ = synthesize_rs(cf, validate=False, report=report)
                result.certificate = certify_single_peaked(result.structure)
            results.append(result)
        return o

    def _count(self, core_ok: bool, regenerates: bool) -> list[str]:
        """Tally one function; at the end of each full pass compare the
        tallies with the pinned counts."""
        t = self._tally
        t[0] += 1
        t[1] += core_ok
        t[2] += regenerates
        if t[0] < self.PINNED[0]:
            return []
        counts, self._tally = tuple(t), [0, 0, 0]
        return [] if counts == self.PINNED else [f"pass counts {counts}, pinned {self.PINNED}"]

    def check(self, block: list[str], o: Outcome) -> list[str]:
        fails = []
        for r in o.values["results"]:
            regenerates = False
            if r.structure is not None:
                s = r.structure
                orders = s.welfare.ranking, s.reaction_pref.ranking
                mine = gen.Structure([[self.OPTIONS.index(x) for x in b] for b in s.types.blocks],
                                     *[[self.OPTIONS.index(x) for x in order] for order in orders])
                regenerates = gen.two_stage_table(len(self.OPTIONS), mine) == list(r.cf.choices)
                if r.certificate.verified != r.verdicts[3].holds:
                    fails.append("certificate and SPR verdict disagree")
            fails += self._count(r.structure is not None, regenerates)
        return fails

    def replay_setup(self, seed: int, workdir: str, tr) -> list[str]:
        ground = GroundSet(self.OPTIONS)
        with tr.span("core.enumerate"):
            functions = list(enumerate_choice_functions(ground))
        with tr.span("core.serialize"):
            lines = [json.dumps(json.loads(serialize_choice_function(cf))) for cf in functions]
        if "\n".join(lines) + "\n" != self.setup_stdout:
            return ["library enumeration differs from the enumerate output"]
        return []

    def replay(self, block: list[str], tr) -> list[str]:
        fails = []
        for line in block:
            with tr.span("core.parse"):
                cf = parse_choice_function(line)
            tr.count("core.parse_calls")
            tr.count("core.menus_parsed", (1 << len(self.OPTIONS)) - 1)
            report = traced_reveal(tr, cf)
            exp_pairs = gen.exp_candidate_pairs(list(cf.choices), len(self.OPTIONS))
            verdicts = traced_checks(tr, cf, report, ALL_AXIOMS, 1, exp_pairs)
            core_ok = all(v.holds for v in verdicts[:3])
            regenerates = False
            if core_ok:
                with tr.span("structure.construct"):
                    structure, _ = synthesize_rs(cf, validate=False, report=report)
                with tr.span("structure.certify"):
                    certify_single_peaked(structure)
                with tr.span("structure.evaluate"):
                    regenerates = evaluate(structure).choices == cf.choices
            fails += self._count(core_ok, regenerates)
        return fails


@dataclass
class AppItem:
    media_grid: int  # the sweep covers media_grid x media_grid (prior, lambda) points
    culture: dict
    lam_range: tuple[float, float]
    p_range: tuple[float, float]


class Applications(Workload):
    """Culture dynamics with the consistency check, beside media sweeps.

    The only workload that uses the media and culture modules; it should
    not move when the choice-function layers change.  One job in five
    sweeps an 80 x 80 media grid instead of 30 x 30, so p90 falls inside
    that class instead of on the machine's slowest moments.
    """

    name = "applications"
    SIZE_CLASSES = [[(30,)] * 20, [(80,)] * 5]
    PATTERN = [0, 0, 0, 0, 1]
    CONSISTENCY_GRID = 200
    DT = 0.02
    HORIZON = 200.0
    LAYERS = (
        "media.choice_s", "media.choices", "culture.dynamics_s", "culture.rk4_steps",
        "culture.consistency_s", "cli.simulate-culture_s", "cli.sweep_s",
        "trace.overhead_ratio",
    )

    def build(self, seed: int, workdir: str, tr) -> list[AppItem]:
        rng = random.Random(seed)
        return [AppItem(grid, gen.culture_params(rng), *gen.media_ranges(rng))
                for (grid,) in interleave(self.SIZE_CLASSES, self.PATTERN)]

    def _culture_argv(self, p: dict) -> list[str]:
        argv = ["simulate-culture"]
        for key in ("beta", "g_hat", "v_hat", "lambda_r", "g", "q0"):
            argv += ["--" + key.replace("_", "-"), repr(p[key])]
        return argv + ["--dt", repr(self.DT), "--horizon", repr(self.HORIZON),
                       "--consistency-grid", str(self.CONSISTENCY_GRID)]

    @staticmethod
    def _spec(lo_hi: tuple[float, float], count: int) -> str:
        return f"{lo_hi[0]!r}:{lo_hi[1]!r}:{count}"

    def job(self, item: AppItem) -> Outcome:
        o = Outcome()
        o.calls["simulate-culture"] = call_cli(self._culture_argv(item.culture))
        o.calls["sweep"] = call_cli(["sweep", "media", "--menu", "N",
                                     "--lambda-range", self._spec(item.lam_range, item.media_grid),
                                     "--p-range", self._spec(item.p_range, item.media_grid)])
        return o

    def _check_culture(self, item: AppItem, q_end: float, deviation: float, cell: float) -> list[str]:
        fails = []
        if abs(q_end - gen.culture_rest_point(item.culture)) > 1e-6:
            fails.append(f"q_end {q_end} is not within 1e-6 of the rest point")
        if deviation > cell:
            fails.append(f"two-stage choice deviates {deviation} > one cell {cell}")
        return fails

    @staticmethod
    def _flip_error(p: float, lam: float, chosen: str) -> bool:
        """The extreme opposite source is chosen iff p >= p*(lambda);
        priors within 1e-9 of the crossing may go either way."""
        pstar = gen.media_pstar(lam)
        return chosen != ("sigmaRR" if p >= pstar else "sigmaL") and abs(p - pstar) > 1e-9

    def check(self, item: AppItem, o: Outcome) -> list[str]:
        fails = expect_codes(o, {"simulate-culture": 0, "sweep": 0})
        if fails:
            return fails
        doc = json.loads(o.calls["simulate-culture"].out)
        fails += self._check_culture(item, doc["q_end"], doc["consistency"]["max_deviation_direct"],
                                     doc["consistency"]["cell"])
        rows = [line.split(",") for line in o.calls["sweep"].out.splitlines()]
        if len(rows) != 1 + item.media_grid ** 2:
            return fails + [f"media sweep has {len(rows) - 1} rows"]
        for p, lam, _, chosen, _, _, pstar in rows[1:]:
            if abs(float(pstar) - gen.media_pstar(float(lam))) > 1e-9:
                fails.append(f"pstar {pstar} at lambda {lam} is off the closed form")
                break
            if self._flip_error(float(p), float(lam), chosen):
                fails.append(f"media flip misplaced at p={p}, lambda={lam}: {chosen}")
                break
        return fails

    def replay(self, item: AppItem, tr) -> list[str]:
        params = CultureParams(**item.culture, dt=self.DT, horizon=self.HORIZON)
        with tr.span("culture.dynamics"):
            outcome = culture_dynamics(params, record_every=100)
        tr.count("culture.rk4_steps", int(round(self.HORIZON / self.DT)))
        with tr.span("culture.consistency"):
            report = culture_rsc_consistency(params, self.CONSISTENCY_GRID)
        fails = self._check_culture(item, outcome.q_end, report.max_deviation_direct, report.cell)

        lams = gen.grid(*item.lam_range, item.media_grid)
        ps = gen.grid(*item.p_range, item.media_grid)
        with tr.span("media.choice"):
            chosen = [[media_menu_choice(MediaParams(p=p, lam=lam), "N").chosen_source
                       for p in ps] for lam in lams]
        tr.count("media.choices", len(lams) * len(ps))
        if any(self._flip_error(p, lam, c) for lam, row in zip(lams, chosen) for p, c in zip(ps, row)):
            fails.append("media flip misplaced")
        return fails


WORKLOADS = {w.name: w for w in (AnalyzeRSC, ScreenNoisy, Census4, Applications)}
