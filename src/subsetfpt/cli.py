"""Command-line front end.

Subcommands: solve, approx, branch, dual, check-intersective, gen,
experiment.  Reports are line-delimited JSON records (or a key=value text
table) on stdout in a stable field order; diagnostics go to stderr.  Exit
codes: 0 success, 1 infeasible / NO outcome, 2 input error, 3 budget or
node-cap exceeded.

Solutions are reported in the input's original 1-based numbering.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional

from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EvaluatedSolution,
    InfeasibleInstance,
    SubsetProblem,
    brute_force_optimum,
    check_budget,
    dualize,
)
from .approx import DEFAULT_ORACLE, ORACLES, ApproxOracle, InfeasibleOutput, run_checked
from .dualschema import SchemaConfig, SchemaPath, dual_approx
from .intersective import (
    DEFAULT_NODE_CAP,
    BranchConfig,
    BranchOutcome,
    Verdict,
    branch_solve_max,
    branch_solve_min,
    check_branchable,
    verify_intersective,
)
from .io import (
    ParseError,
    generate_gnp,
    generate_setsystem,
    parse_graph,
    parse_setsystem,
    render_graph,
    render_setsystem,
)
from .problems import GOALS, SET_KINDS, Goal, ProblemKind, make_problem

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

BRANCH_EXIT = {BranchOutcome.FOUND: EXIT_OK, BranchOutcome.NO_INSTANCE: EXIT_NO,
               BranchOutcome.NODE_CAP_EXCEEDED: EXIT_BUDGET}
VERDICT_EXIT = {Verdict.INTERSECTIVE: EXIT_OK, Verdict.NOT_INTERSECTIVE: EXIT_NO,
                Verdict.INCONCLUSIVE: EXIT_BUDGET}


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(
            "\t".join(f"{k}={v}" for k, v in record.items()) + "\n"
        )


def _solution_1based(sol) -> Optional[list[int]]:
    if sol is None:
        return None
    return [i + 1 for i in sorted(sol)]


def _read_instance(path: str, kind: ProblemKind):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    if kind in SET_KINDS:
        return parse_setsystem(text)
    parsed = parse_graph(text)
    if parsed.dropped_duplicates or parsed.dropped_self_loops:
        print(
            f"warning: dropped {parsed.dropped_duplicates} duplicate edge(s), "
            f"{parsed.dropped_self_loops} self-loop(s)",
            file=sys.stderr,
        )
    return parsed.graph


def _generate(args, set_system: bool, seed: int):
    if set_system:
        return generate_setsystem(args.ground, args.sets, args.max_size, seed)
    return generate_gnp(args.n, args.p, seed)


def _oracle(args, kind: ProblemKind) -> ApproxOracle:
    if args.oracle:
        if args.oracle not in ORACLES:
            raise ParseError(f"unknown oracle {args.oracle!r}; choose from {sorted(ORACLES)}")
        return ORACLES[args.oracle]
    if kind not in DEFAULT_ORACLE:
        raise ParseError(f"no default oracle for problem kind {kind.value!r}")
    return DEFAULT_ORACLE[kind]


def _branch_solver(p: SubsetProblem):
    return branch_solve_min if p.goal is Goal.MINIMIZE else branch_solve_max


def _epsilon(text: str) -> Fraction:
    """epsilon as Fraction reads it, once the text shows that its numerator and
    denominator as written fit the digits an int may print, as the record does:
    Fraction would first build 10**-exponent, most of a minute for 1e-20000000."""
    limit = sys.get_int_max_str_digits()
    for part in text.split("/", 1):
        try:  # Decimal keeps the exponent as written (a letter for nan and inf)
            _, digits, exp = Decimal(part).as_tuple()
        except InvalidOperation:  # no number, or an exponent past 10**18
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        if limit and isinstance(exp, int) and max(len(digits) + exp, len(digits), 1 - exp) > limit:
            raise ValueError(f"epsilon {text!r} has over {limit} digits in its numerator or denominator")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {text!r} has a zero denominator")


def run_instance_command(body, args, kind: ProblemKind, fmt: str) -> int:
    """The steps every instance subcommand shares: read the instance, build
    the problem, resolve and record the oracle (subcommands with --oracle), then
    let `body(args, p, oracle, rec)` add its fields to the base record and return
    the exit code.  An infeasible instance ends the record with
    `outcome: infeasible` and exit 1.  Exactly one record is emitted."""
    p = make_problem(kind, _read_instance(args.instance, kind))
    oracle = _oracle(args, kind) if "oracle" in args else None
    rec = {"command": args.cmd, "problem": kind.value, "n": p.universe_size}
    if kind in SET_KINDS:
        rec.update(n_ground=p.data.n_ground, m=p.data.m)
    if oracle is not None:
        rec["oracle"] = oracle.name
    try:
        code = body(args, p, oracle, rec)
    except InfeasibleInstance:
        rec["outcome"] = "infeasible"
        code = EXIT_NO
    _emit(rec, fmt)
    return code


def cmd_solve(args, p, oracle, rec) -> int:
    res = brute_force_optimum(p, budget=args.budget)
    if isinstance(res, BudgetExceeded):
        rec.update(outcome="budget-exceeded", budget=args.budget)
        return EXIT_BUDGET
    rec.update(outcome="optimal", value=res.value, solution=_solution_1based(res.members))
    return EXIT_OK


def cmd_approx(args, p, oracle, rec) -> int:
    sol = run_checked(oracle, p)
    rec.update(
        outcome="solution",
        value=len(sol),
        ratio=str(oracle.ratio(p)),
        solution=_solution_1based(sol),
    )
    return EXIT_OK


def cmd_branch(args, p, oracle, rec) -> int:
    cfg = BranchConfig(budget_k=args.k, node_cap=args.node_cap)
    rec["k"] = args.k
    report = _branch_solver(p)(p, oracle, cfg)
    rec.update(
        outcome=report.outcome.value,
        value=report.value,
        solution=_solution_1based(report.solution),
        nodes_expanded=report.nodes_expanded,
        max_depth=report.max_depth,
        max_arity=report.max_arity,
    )
    return BRANCH_EXIT[report.outcome]


def cmd_dual(args, p, oracle, rec) -> int:
    cfg = SchemaConfig(
        epsilon=_epsilon(args.epsilon),
        brute_cap=args.brute_cap,
        force_brute=args.force_brute,
    )
    out = dual_approx(p, oracle, cfg)
    rec.update(
        epsilon=str(cfg.epsilon),
        path=out.path.value,
        dual_value=out.dual_value,
        dual_solution=_solution_1based(out.dual_solution),
        guarantee=None if out.guarantee is None else str(out.guarantee),
        exact=out.exact,
    )
    rec.update(out.diagnostics)
    return EXIT_OK if out.path is not SchemaPath.BUDGET_EXCEEDED else EXIT_BUDGET


def cmd_check_intersective(args, p, oracle, rec) -> int:
    report = verify_intersective(p, oracle, budget=args.budget)
    rec.update(
        verdict=report.verdict.value,
        oracle_solution=_solution_1based(report.oracle_solution),
        optima_checked=report.optima_checked,
        intersecting_optimum=_solution_1based(report.intersecting_optimum),
    )
    return VERDICT_EXIT[report.verdict]


INSTANCE_COMMANDS = {
    "solve": cmd_solve,
    "approx": cmd_approx,
    "branch": cmd_branch,
    "dual": cmd_dual,
    "check-intersective": cmd_check_intersective,
}


def cmd_gen(args, seed: int) -> int:
    set_system = args.model == "setsystem"
    data = _generate(args, set_system, seed)
    sys.stdout.write(render_setsystem(data) if set_system else render_graph(data))
    return EXIT_OK


def cmd_experiment(args, kind, fmt, seed: int) -> int:
    """One record per (instance, run); aggregate row at the end.  The flags,
    the oracle's kind included, are checked once, before any row and even
    with --count 0, by the checks of the command a row runs, on the first
    instance; only an infeasible instance or oracle output is a row error."""
    if args.count < 0:
        raise ValueError(f"count must be >= 0, got {args.count}")
    ratios: list[Fraction] = []
    verdicts: dict[str, int] = {}
    agree = 0
    rows = 0
    errors = 0
    oracle = None if args.run == "solve" else _oracle(args, kind)
    p = make_problem(kind, _generate(args, kind in SET_KINDS, seed))
    if args.run == "dual":
        cfg = SchemaConfig(epsilon=_epsilon(args.epsilon), brute_cap=args.brute_cap)
    else:  # the other runs take brute force's --budget
        check_budget(args.budget)
    if args.run == "branch":
        cfg = BranchConfig(budget_k=0, node_cap=args.node_cap)
        check_branchable(p, oracle)
    if args.run in ("dual", "check-intersective"):
        oracle.check_goal(p)
    for i in range(args.count):
        if i:
            p = make_problem(kind, _generate(args, kind in SET_KINDS, seed + i))
        rec = {"command": f"experiment/{args.run}", "problem": kind.value,
               "index": i, "seed": seed + i, "n": p.universe_size}
        rows += 1
        try:
            if args.run == "dual":
                out = dual_approx(p, oracle, cfg)
                rec.update(path=out.path.value, dual_value=out.dual_value)
                if out.exact:  # the brute path: its answer is the dual optimum
                    opt = out.dual_value
                else:
                    res = brute_force_optimum(dualize(p), budget=args.brute_cap)
                    opt = res.value if isinstance(res, EvaluatedSolution) else None
                if opt is not None:
                    if opt == 0:
                        achieved = Fraction(1) if out.dual_value == 0 else None
                    else:
                        achieved = Fraction(out.dual_value, opt)
                    rec.update(opt=opt, achieved_ratio=None if achieved is None else str(achieved))
                    if achieved is not None:
                        ratios.append(achieved)
            elif args.run == "check-intersective":
                rep = verify_intersective(p, oracle, budget=args.budget)
                rec.update(verdict=rep.verdict.value)
                verdicts[rep.verdict.value] = verdicts.get(rep.verdict.value, 0) + 1
            elif args.run == "branch":
                opt = brute_force_optimum(p, budget=args.budget)
                if not isinstance(opt, EvaluatedSolution):
                    rec.update(outcome="no-reference")
                else:
                    rep = _branch_solver(p)(p, oracle, replace(cfg, budget_k=opt.value))
                    match = rep.outcome is BranchOutcome.FOUND and rep.value == opt.value
                    agree += int(match)
                    rec.update(opt=opt.value, outcome=rep.outcome.value,
                               value=rep.value, agrees=match)
            else:  # solve
                res = brute_force_optimum(p, budget=args.budget)
                if isinstance(res, EvaluatedSolution):
                    rec.update(outcome="optimal", value=res.value)
                else:
                    rec.update(outcome="budget-exceeded")
        except (InfeasibleInstance, InfeasibleOutput) as exc:
            rec.update(outcome="error", error=str(exc))
            errors += 1
        _emit(rec, fmt)
    agg = {"command": f"experiment/{args.run}", "record": "aggregate",
           "rows": rows, "errors": errors}
    if ratios:
        # The worst row for the dual's goal: the least ratio of a maximized
        # dual (min_ratio), the greatest of a minimized one (max_ratio).
        worst = min if GOALS[kind] is Goal.MINIMIZE else max
        agg[f"{worst.__name__}_ratio"] = str(worst(ratios))
        agg["mean_ratio"] = str(sum(ratios) / len(ratios))
    if verdicts:
        agg["verdicts"] = dict(sorted(verdicts.items()))
    if args.run == "branch":
        agg["agreements"] = agree
    _emit(agg, fmt)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Global flags live on a parent parser so they are accepted both before
    # and after the subcommand name.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--problem",
        default=argparse.SUPPRESS,
        choices=[k.value for k in ProblemKind],
        help="problem kind (default: vertex-cover)",
    )
    common.add_argument("--format", default=argparse.SUPPRESS, choices=["json", "text"])
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="subsetfpt",
        description="Parameterized approximation engines for subset problems.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, help, instance=True):
        sp = sub.add_parser(name, parents=[common], help=help)
        if instance:
            sp.add_argument("instance", help="instance file, or - for stdin")
        return sp

    def add_oracle(sp):
        sp.add_argument("--oracle")

    def add_generator(sp):
        sp.add_argument("--n", type=int, default=10)
        sp.add_argument("--p", type=float, default=0.5)
        sp.add_argument("--ground", type=int, default=8)
        sp.add_argument("--sets", type=int, default=8)
        sp.add_argument("--max-size", type=int, default=4)

    sp = add_parser("solve", "exact optimum by exhaustive search")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    add_oracle(add_parser("approx", "run one approximation oracle"))

    sp = add_parser("branch", "oracle-driven branching solver")
    sp.add_argument("--k", type=int, required=True)
    add_oracle(sp)
    sp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)

    sp = add_parser("dual", "dual-parameter approximation schema")
    sp.add_argument("--epsilon", required=True, help="rational or decimal in (0,1]")
    add_oracle(sp)
    sp.add_argument("--brute-cap", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--force-brute", action="store_true")

    sp = add_parser("check-intersective", "verify oracle intersectivity")
    add_oracle(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = add_parser("gen", "generate a random instance", instance=False)
    sp.add_argument("--model", required=True, choices=["gnp", "setsystem"])
    add_generator(sp)

    sp = add_parser("experiment", "run a command over generated instances", instance=False)
    sp.add_argument("--run", required=True,
                    choices=["solve", "branch", "dual", "check-intersective"])
    sp.add_argument("--count", type=int, default=10)
    add_generator(sp)
    add_oracle(sp)
    sp.add_argument("--epsilon", default="1/4")
    sp.add_argument("--brute-cap", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    kind = ProblemKind(getattr(args, "problem", ProblemKind.VERTEX_COVER.value))
    fmt = getattr(args, "format", "json")
    seed = getattr(args, "seed", 0)
    started = time.monotonic()
    try:
        if args.cmd == "gen":
            code = cmd_gen(args, seed)
        elif args.cmd == "experiment":
            code = cmd_experiment(args, kind, fmt, seed)
        else:
            code = run_instance_command(INSTANCE_COMMANDS[args.cmd], args, kind, fmt)
    except (ParseError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # as from a declared size that no list can hold
        print("error: out of memory for the instance's declared size", file=sys.stderr)
        return EXIT_INPUT
    # Timing stays on stderr so stdout is byte-identical for a fixed seed.
    print(f"elapsed_ms={int((time.monotonic() - started) * 1000)}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
