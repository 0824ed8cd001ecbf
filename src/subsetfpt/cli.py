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
from fractions import Fraction
from typing import Optional

from .core import (
    BudgetExceeded,
    EvaluatedSolution,
    Infeasible,
    InfeasibleInstance,
    SubsetProblem,
    UnsupportedRestriction,
    brute_force_optimum,
    dualize,
    is_feasible,
)
from .approx import DEFAULT_ORACLE, ORACLES, ApproxOracle
from .dualschema import SchemaConfig, SchemaOutcome, SchemaPath, dual_approx
from .intersective import (
    BranchConfig,
    BranchOutcome,
    Verdict,
    branch_solve_max,
    branch_solve_min,
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
from .problems import GOALS, RESTRICTABLE, Goal, Graph, ProblemKind, SetSystem, make_problem

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

GRAPH_KINDS = {
    k for k in ProblemKind if k not in (ProblemKind.SET_COVER, ProblemKind.SET_PACKING)
}


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
    text = sys.stdin.read() if path == "-" else open(path).read()
    if kind in GRAPH_KINDS:
        parsed = parse_graph(text)
        if parsed.dropped_duplicates or parsed.dropped_self_loops:
            print(
                f"warning: dropped {parsed.dropped_duplicates} duplicate edge(s), "
                f"{parsed.dropped_self_loops} self-loop(s)",
                file=sys.stderr,
            )
        return parsed.graph
    return parse_setsystem(text)


def _oracle(args, kind: ProblemKind) -> ApproxOracle:
    if getattr(args, "oracle", None):
        if args.oracle not in ORACLES:
            raise ParseError(f"unknown oracle {args.oracle!r}; choose from {sorted(ORACLES)}")
        return ORACLES[args.oracle]
    if kind not in DEFAULT_ORACLE:
        raise ParseError(f"no default oracle for problem kind {kind.value!r}")
    return DEFAULT_ORACLE[kind]


def _epsilon(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {text!r} has a zero denominator")


def _infeasible(rec: dict, fmt: str) -> int:
    rec.update(outcome="infeasible")
    _emit(rec, fmt)
    return EXIT_NO


def _base_record(args, kind: ProblemKind, p: SubsetProblem, command: str) -> dict:
    rec = {"command": command, "problem": kind.value, "n": p.universe_size}
    data = p.data
    if isinstance(data, SetSystem):
        rec["n_ground"] = data.n_ground
        rec["m"] = data.m
    return rec


def cmd_solve(args, kind, fmt) -> int:
    data = _read_instance(args.instance, kind)
    p = make_problem(kind, data)
    rec = _base_record(args, kind, p, "solve")
    res = brute_force_optimum(p, budget=args.budget)
    if isinstance(res, BudgetExceeded):
        rec.update(outcome="budget-exceeded", budget=args.budget)
        _emit(rec, fmt)
        return EXIT_BUDGET
    if isinstance(res, Infeasible):
        return _infeasible(rec, fmt)
    rec.update(outcome="optimal", value=res.value, solution=_solution_1based(res.members))
    _emit(rec, fmt)
    return EXIT_OK


def cmd_approx(args, kind, fmt) -> int:
    data = _read_instance(args.instance, kind)
    p = make_problem(kind, data)
    oracle = _oracle(args, kind)
    rec = _base_record(args, kind, p, "approx")
    rec["oracle"] = oracle.name
    try:
        sol = oracle.run(p)
    except InfeasibleInstance:
        return _infeasible(rec, fmt)
    rec.update(
        outcome="solution",
        value=len(sol),
        ratio=str(oracle.ratio(p)),
        solution=_solution_1based(sol),
    )
    _emit(rec, fmt)
    return EXIT_OK


def cmd_branch(args, kind, fmt) -> int:
    data = _read_instance(args.instance, kind)
    p = make_problem(kind, data)
    oracle = _oracle(args, kind)
    cfg = BranchConfig(
        budget_k=args.k, node_cap=args.node_cap, prune_enabled=not args.no_prune
    )
    solver = branch_solve_min if p.goal is Goal.MINIMIZE else branch_solve_max
    rec = _base_record(args, kind, p, "branch")
    rec.update(oracle=oracle.name, k=args.k)
    try:
        report = solver(p, oracle, cfg)
    except InfeasibleInstance:
        return _infeasible(rec, fmt)
    rec.update(
        outcome=report.outcome.value,
        value=report.value,
        solution=_solution_1based(report.solution),
        nodes_expanded=report.nodes_expanded,
        max_depth=report.max_depth,
        max_arity=report.max_arity,
    )
    _emit(rec, fmt)
    if report.outcome is BranchOutcome.FOUND:
        return EXIT_OK
    if report.outcome is BranchOutcome.NO_INSTANCE:
        return EXIT_NO
    return EXIT_BUDGET


def cmd_dual(args, kind, fmt) -> int:
    data = _read_instance(args.instance, kind)
    p = make_problem(kind, data)
    oracle = _oracle(args, kind)
    cfg = SchemaConfig(
        epsilon=_epsilon(args.epsilon),
        brute_cap=args.brute_cap,
        force_brute=args.force_brute,
    )
    rec = _base_record(args, kind, p, "dual")
    try:
        out = dual_approx(p, oracle, cfg)
    except InfeasibleInstance:
        return _infeasible(rec, fmt)
    rec.update(
        oracle=oracle.name,
        epsilon=str(cfg.epsilon),
        path=out.path.value,
        dual_value=out.dual_value,
        dual_solution=_solution_1based(out.dual_solution),
        guarantee=None if out.guarantee is None else str(out.guarantee),
        exact=out.exact,
    )
    rec.update(out.diagnostics)
    _emit(rec, fmt)
    return EXIT_OK if out.path is not SchemaPath.BUDGET_EXCEEDED else EXIT_BUDGET


def cmd_check_intersective(args, kind, fmt) -> int:
    data = _read_instance(args.instance, kind)
    p = make_problem(kind, data)
    oracle = _oracle(args, kind)
    rec = _base_record(args, kind, p, "check-intersective")
    rec["oracle"] = oracle.name
    try:
        report = verify_intersective(p, oracle, budget=args.budget)
    except InfeasibleInstance:
        return _infeasible(rec, fmt)
    rec.update(
        verdict=report.verdict.value,
        oracle_solution=_solution_1based(report.oracle_solution),
        optima_checked=report.optima_checked,
        intersecting_optimum=_solution_1based(report.intersecting_optimum),
    )
    _emit(rec, fmt)
    if report.verdict is Verdict.INTERSECTIVE:
        return EXIT_OK
    if report.verdict is Verdict.NOT_INTERSECTIVE:
        return EXIT_NO
    return EXIT_BUDGET


def cmd_gen(args, seed: int) -> int:
    if args.model == "gnp":
        g = generate_gnp(args.n, args.p, seed)
        sys.stdout.write(render_graph(g))
    else:
        s = generate_setsystem(args.ground, args.sets, args.max_size, seed)
        sys.stdout.write(render_setsystem(s))
    return EXIT_OK


def _gen_instance(args, kind: ProblemKind, seed: int):
    if kind in GRAPH_KINDS:
        return generate_gnp(args.n, args.p, seed)
    return generate_setsystem(args.ground, args.sets, args.max_size, seed)


def cmd_experiment(args, kind, fmt, seed: int) -> int:
    """One record per (instance, run); aggregate row at the end.  The flags
    are checked once, before the first instance; only an infeasible instance
    is a row error.  Any other error depends on the flags alone and is
    raised by the first instance before its row is written."""
    ratios: list[Fraction] = []
    verdicts: dict[str, int] = {}
    agree = 0
    rows = 0
    errors = 0
    oracle = None if args.run == "solve" else _oracle(args, kind)
    if args.run in ("dual", "branch") and oracle.goal is not GOALS[kind]:
        raise ValueError("oracle goal must match the problem's goal")
    if args.run == "branch" and kind not in RESTRICTABLE:
        raise UnsupportedRestriction(f"{kind.value} has no restriction operator")
    if args.run == "dual":
        cfg = SchemaConfig(epsilon=_epsilon(args.epsilon), brute_cap=args.brute_cap)
    elif args.run == "branch":
        cfg = BranchConfig(budget_k=0, node_cap=args.node_cap)
    for i in range(args.count):
        inst_seed = seed + i
        data = _gen_instance(args, kind, inst_seed)
        p = make_problem(kind, data)
        rec = {"command": f"experiment/{args.run}", "problem": kind.value,
               "index": i, "seed": inst_seed, "n": p.universe_size}
        rows += 1
        try:
            if args.run == "dual":
                out = dual_approx(p, oracle, cfg)
                rec.update(path=out.path.value, dual_value=out.dual_value)
                opt = brute_force_optimum(dualize(p), budget=args.brute_cap)
                if isinstance(opt, EvaluatedSolution) and out.dual_value is not None:
                    if opt.value == 0:
                        achieved = Fraction(1) if out.dual_value == 0 else None
                    else:
                        achieved = Fraction(out.dual_value, opt.value)
                    rec.update(opt=opt.value, achieved_ratio=None if achieved is None else str(achieved))
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
                    solver = branch_solve_min if p.goal is Goal.MINIMIZE else branch_solve_max
                    rep = solver(p, oracle, replace(cfg, budget_k=opt.value))
                    match = rep.outcome is BranchOutcome.FOUND and rep.value == opt.value
                    agree += int(match)
                    rec.update(opt=opt.value, outcome=rep.outcome.value,
                               value=rep.value, agrees=match)
            else:  # solve
                res = brute_force_optimum(p, budget=args.budget)
                if isinstance(res, EvaluatedSolution):
                    rec.update(outcome="optimal", value=res.value)
                elif isinstance(res, Infeasible):
                    rec.update(outcome="infeasible")
                else:
                    rec.update(outcome="budget-exceeded")
        except InfeasibleInstance as exc:
            rec.update(outcome="error", error=str(exc))
            errors += 1
        _emit(rec, fmt)
    agg = {"command": f"experiment/{args.run}", "record": "aggregate",
           "rows": rows, "errors": errors}
    if ratios:
        agg["min_ratio"] = str(min(ratios))
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

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def add_instance(sp):
        sp.add_argument("instance", help="instance file, or - for stdin")

    sp = add_parser("solve", help="exact optimum by exhaustive search")
    add_instance(sp)
    sp.add_argument("--budget", type=int, default=20)

    sp = add_parser("approx", help="run one approximation oracle")
    add_instance(sp)
    sp.add_argument("--oracle")

    sp = add_parser("branch", help="oracle-driven branching solver")
    add_instance(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--oracle")
    sp.add_argument("--no-prune", action="store_true")
    sp.add_argument("--node-cap", type=int, default=1_000_000)

    sp = add_parser("dual", help="dual-parameter approximation schema")
    add_instance(sp)
    sp.add_argument("--epsilon", required=True, help="rational or decimal in (0,1]")
    sp.add_argument("--oracle")
    sp.add_argument("--brute-cap", type=int, default=20)
    sp.add_argument("--force-brute", action="store_true")

    sp = add_parser("check-intersective", help="verify oracle intersectivity")
    add_instance(sp)
    sp.add_argument("--oracle")
    sp.add_argument("--budget", type=int, default=20)

    sp = add_parser("gen", help="generate a random instance")
    sp.add_argument("--model", required=True, choices=["gnp", "setsystem"])
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--ground", type=int, default=8)
    sp.add_argument("--sets", type=int, default=8)
    sp.add_argument("--max-size", type=int, default=4)

    sp = add_parser("experiment", help="run a command over generated instances")
    sp.add_argument("--run", required=True,
                    choices=["solve", "branch", "dual", "check-intersective"])
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--ground", type=int, default=8)
    sp.add_argument("--sets", type=int, default=8)
    sp.add_argument("--max-size", type=int, default=4)
    sp.add_argument("--oracle")
    sp.add_argument("--epsilon", default="1/4")
    sp.add_argument("--brute-cap", type=int, default=20)
    sp.add_argument("--budget", type=int, default=20)
    sp.add_argument("--node-cap", type=int, default=1_000_000)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kind = ProblemKind(getattr(args, "problem", ProblemKind.VERTEX_COVER.value))
    fmt = getattr(args, "format", "json")
    seed = getattr(args, "seed", 0)
    started = time.monotonic()
    try:
        if args.cmd == "solve":
            code = cmd_solve(args, kind, fmt)
        elif args.cmd == "approx":
            code = cmd_approx(args, kind, fmt)
        elif args.cmd == "branch":
            code = cmd_branch(args, kind, fmt)
        elif args.cmd == "dual":
            code = cmd_dual(args, kind, fmt)
        elif args.cmd == "check-intersective":
            code = cmd_check_intersective(args, kind, fmt)
        elif args.cmd == "gen":
            code = cmd_gen(args, seed)
        elif args.cmd == "experiment":
            code = cmd_experiment(args, kind, fmt, seed)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.cmd}")
    except (ParseError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # Timing stays on stderr so stdout is byte-identical for a fixed seed.
    print(f"elapsed_ms={int((time.monotonic() - started) * 1000)}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
