"""The four workloads: seeded instances, the operations a user would run on
them, reference answers, and the check that judges each answer.

One operation is one call a user would make.  Every workload is a closed
loop: one caller, one process, the next operation starts when the last one
returns.  Instances, references and checks live in the parent process; the
measured process only receives instances and operations.

Status of a judged operation:
  ok      the answer agrees with the reference
  raised  the call raised
  cap     the branching engine hit its node cap
  budget  brute force or the dual schema ran out of budget
  exit    the CLI exited with a code the reference does not expect
  wrong   the answer disagrees with the reference
Every status but ok is a failed operation; wrong is also a wrong answer.
A wrong answer that breaks a guarantee the program states without
conditions (a returned solution is feasible, brute force is exact, the dual
schema meets its ratio) is a violation and makes the run incorrect.  A NO
verdict of the branching engine is exact only if its oracle is intersective,
so a wrong NO verdict is a wrong answer but not a violation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import instances as gen
import reference as ref

NODE_CAP = 2_000
BRANCH_ROUNDS = 96
# Small sizes weigh double: most decisions take a few nodes, where per-node
# cost shows, and the median lands among many similar ones.
BRANCH_SIZES = (8, 8, 9, 9, 10, 10, 11, 12, 13, 14, 15, 16)
BRUTE_ROUNDS = 6
BRUTE_SIZES = (12, 13, 14, 15, 16, 17)
DUAL_LARGE = 24
DUAL_SMALL_ROUNDS = 6
CLI_ROUNDS = 4
EPSILONS = ("1/10", "1/4", "1/2")
BRUTE_CAP = 20
WITH_ORACLE = ("vertex-cover", "set-cover", "dominating-set", "independent-set",
               "min-independent-dominating-set", "clique")
ALL_KINDS = tuple(gen.GOAL)


class Workload:
    def __init__(self, name: str):
        self.name = name
        self.instances: dict[str, dict] = {}
        self.refs: dict[str, dict] = {}
        self.ops: list[dict] = []
        self.files: dict[str, str] = {}

    def add(self, inst: dict) -> str:
        iid = f"i{len(self.instances)}"
        self.instances[iid] = inst
        return iid

    def spec(self) -> dict:
        """What the measured process receives: instances and operations."""
        return {"workload": self.name, "instances": self.instances, "ops": self.ops}


def _opt(w: Workload, iid: str) -> int:
    if iid not in w.refs:
        w.refs[iid] = {"opt": ref.optimum(w.instances[iid])}
    return w.refs[iid]["opt"]


def _no_budget(kind: str, opt: int) -> int:
    """The adjacent budget at which the answer is NO."""
    return opt - 1 if gen.GOAL[kind] == "min" else opt + 1


# ---------------------------------------------------------- workload lists

def build_branch(seed: int) -> Workload:
    """Oracle-driven branching with each kind's default oracle and one fixed
    NODE_CAP, at k = opt and at the adjacent NO budget: small random
    instances, most decided in a few nodes, plus the fixed G(50, 0.1)
    instance at k = 29 and 28, which hits the cap today."""
    w = Workload("branch")
    rng = random.Random(seed)
    for r in range(BRANCH_ROUNDS):
        n = BRANCH_SIZES[r % len(BRANCH_SIZES)]
        for kind, p in (("vertex-cover", 0.2), ("dominating-set", 0.3),
                        ("independent-set", 0.3), ("clique", 0.5)):
            w.add(gen.gnm(kind, n, p, rng))
        w.add(gen.set_system("set-cover", n, n, 4, rng))
    w.add(gen.roadmap_graph())
    for iid, inst in w.instances.items():
        opt = _opt(w, iid)
        for k in (opt, _no_budget(inst["kind"], opt)):
            if k >= 0:
                w.ops.append({"call": "branch", "inst": iid, "k": k, "node_cap": NODE_CAP})
    return w


def build_brute(seed: int) -> Workload:
    """Brute force on every kind and its dual, plus the intersectivity
    verifier, on both dispatch paths: the scalar sweep (n < 14, and feedback
    vertex set, which has no batch predicate) and the numpy batch path."""
    w = Workload("brute")
    rng = random.Random(seed)
    for _ in range(BRUTE_ROUNDS):
        for kind in ALL_KINDS:
            if kind == "set-cover":
                # Ground sizes on both sides of 63, on both paths; the batch
                # path overflows int64 lanes at ground >= 63 today.
                for ground, m in ((40, 12), (40, 15), (80, 13), (80, 15)):
                    w.add(gen.set_system(kind, ground, m, ground // 5, rng))
            elif kind == "set-packing":
                for m in BRUTE_SIZES:
                    w.add(gen.set_system(kind, 20, m, 4, rng))
            elif kind == "feedback-vertex-set":
                for n in BRUTE_SIZES[:4]:
                    w.add(gen.gnm(kind, n, 0.2, rng))
            else:
                for n in BRUTE_SIZES:
                    w.add(gen.gnm(kind, n, 0.5 if kind == "clique" else 0.3, rng))
    for iid, inst in w.instances.items():
        _opt(w, iid)
        w.ops.append({"call": "brute", "inst": iid, "dual": False})
        w.ops.append({"call": "brute", "inst": iid, "dual": True})
        if inst["kind"] in WITH_ORACLE:
            w.ops.append({"call": "verify", "inst": iid})
    return w


def build_dual(seed: int) -> Workload:
    """The dual schema with each kind's default oracle: large set-cover and
    dominating-set instances where the approximation path fires, and small
    ones (n <= 16) where it falls back to brute force."""
    w = Workload("dual")
    rng = random.Random(seed)
    for r in range(DUAL_LARGE):
        m = 300 + r * 1700 // (DUAL_LARGE - 1)
        iid = w.add(gen.set_system("set-cover", rng.randint(30, 40), m, 8, rng))
        w.refs[iid] = {"lb": ref.set_cover_lower_bound(w.instances[iid])}
        centers = 1 + r * 11 // (DUAL_LARGE - 1)
        _opt(w, w.add(gen.planted_stars("dominating-set", centers, (45, 55), 1.0, rng)))
    for _ in range(DUAL_SMALL_ROUNDS):
        for kind in WITH_ORACLE:
            for n in range(10, 17):
                if kind == "set-cover":
                    inst = gen.set_system(kind, rng.randint(12, 20), n, 5, rng)
                else:
                    inst = gen.gnm(kind, n, 0.5 if kind == "clique" else 0.3, rng)
                _opt(w, w.add(inst))
    for iid in w.instances:
        for eps in EPSILONS:
            w.ops.append({"call": "dual", "inst": iid, "eps": eps, "brute_cap": BRUTE_CAP})
    return w


def build_cli(seed: int, workdir: str) -> Workload:
    """Every CLI subcommand as a fresh subprocess, on instance files written
    under `workdir` (relative to the checkout), CLI_ROUNDS times over."""
    w = Workload("cli")
    rng = random.Random(seed)

    def op(sub: str, iid: str | None, *extra: str, **check) -> None:
        argv = [sub]
        if iid is not None:
            argv += ["--problem", w.instances[iid]["kind"], w.files[iid]]
        w.ops.append({"call": "cli", "argv": argv + list(extra), "sub": sub,
                      "inst": iid, **check})

    def instance(inst: dict) -> str:
        iid = w.add(inst)
        w.files[iid] = f"{workdir}/{iid}.txt"
        _opt(w, iid)
        return iid

    for _ in range(CLI_ROUNDS):
        g = {kind: instance(gen.gnm(kind, n, p, rng))
             for kind, n, p in (("vertex-cover", 12, 0.3), ("dominating-set", 12, 0.3),
                                ("independent-set", 14, 0.3), ("clique", 12, 0.5),
                                ("min-independent-dominating-set", 12, 0.3))}
        small_vc = instance(gen.gnm("vertex-cover", 10, 0.3, rng))
        sc = instance(gen.set_system("set-cover", 20, 14, 5, rng))
        sc80 = instance(gen.set_system("set-cover", 80, 16, 10, rng))
        for iid in (g["vertex-cover"], g["dominating-set"], sc, sc80):
            op("solve", iid)
        for iid in (g["vertex-cover"], g["dominating-set"], sc):
            op("approx", iid)
        opt = _opt(w, small_vc)
        for k in (opt, opt - 1):
            op("branch", small_vc, "--k", str(k), "--node-cap", str(NODE_CAP), k=k)
        for iid, eps in ((g["vertex-cover"], "1/4"), (sc, "1/2"),
                         (g["min-independent-dominating-set"], "1/4")):
            op("dual", iid, "--epsilon", eps, eps=eps)
        for kind in ("vertex-cover", "independent-set", "clique"):
            op("check-intersective", g[kind])
        gen_seed = rng.randrange(1 << 30)
        op("gen", None, "--model", "gnp", "--n", "30", "--p", "0.2", "--seed", str(gen_seed),
           n=30, p=0.2, seed=gen_seed)
        op("gen", None, "--model", "setsystem", "--ground", "20", "--sets", "12",
           "--max-size", "5", "--seed", str(gen_seed), ground=20, sets=12)
        # `experiment` draws its own instances with io.generate_gnp; the
        # reference redraws them with this module's G(n, p), the same model.
        opts = [_opt(w, w.add(gen.gnp("vertex-cover", 10, 0.3, random.Random(gen_seed + i))))
                for i in range(3)]
        op("experiment", None, "--run", "solve", "--count", "3", "--n", "10", "--p", "0.3",
           "--seed", str(gen_seed), seed=gen_seed, opts=opts)
    return w


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "cli":
        w = build_cli(seed, workdir)
    else:
        w = {"branch": build_branch, "brute": build_brute, "dual": build_dual}[name](seed)
    # A fixed, seeded order: the closed loop runs the list front to back.
    random.Random(seed ^ 0x5EED).shuffle(w.ops)
    for i, op in enumerate(w.ops):
        op["id"] = i
    return w


WORKLOADS = ("branch", "brute", "dual", "cli")


# -------------------------------------------------------------------- checks

def _members(sol) -> set[int]:
    return set(sol or ())


def judge(w: Workload, op: dict, ans: dict) -> tuple[str, bool]:
    """(status, violation) of one answer."""
    if "error" in ans:
        return "raised", False
    return {"branch": _judge_branch, "brute": _judge_brute, "verify": _judge_verify,
            "dual": _judge_dual, "cli": _judge_cli}[op["call"]](w, op, ans)


def _judge_branch(w, op, ans):
    inst = w.instances[op["inst"]]
    opt, k = w.refs[op["inst"]]["opt"], op["k"]
    minimize = gen.GOAL[inst["kind"]] == "min"
    yes = k >= opt if minimize else k <= opt
    if ans["outcome"] == "node-cap-exceeded":
        return "cap", False
    if ans["outcome"] == "found":
        sol = _members(ans["solution"])
        size_ok = (len(sol) <= k) if minimize else (len(sol) == k)
        if not (ref.feasible(inst, sol) and size_ok and yes):
            return "wrong", True
        if minimize and len(sol) != opt:
            return "wrong", len(sol) < opt
        return "ok", False
    if ans["outcome"] == "no-instance":
        return ("wrong", False) if yes else ("ok", False)
    return "wrong", True


def _judge_brute(w, op, ans):
    inst = w.instances[op["inst"]]
    opt = w.refs[op["inst"]]["opt"]
    if ans["result"] == "BudgetExceeded":
        return "budget", False
    if ans["result"] != "optimal":
        return "wrong", True
    sol = _members(ans["solution"])
    want = gen.universe_size(inst) - opt if op["dual"] else opt
    ok = (ref.dual_feasible if op["dual"] else ref.feasible)(inst, sol)
    ok = ok and ans["value"] == len(sol) == want
    return ("ok", False) if ok else ("wrong", True)


def _judge_verify(w, op, ans):
    return _judge_intersective(w, op["inst"], ans["verdict"], ans["oracle_solution"],
                               ans["intersecting_optimum"])


def _judge_intersective(w, iid, verdict, oracle_solution, intersecting):
    inst = w.instances[iid]
    opt = w.refs[iid]["opt"]
    sol = _members(oracle_solution)
    if verdict == "inconclusive":
        return "budget", False
    if verdict == "intersective":
        io = _members(intersecting)
        ok = ref.feasible(inst, io) and len(io) == opt and bool(io & sol)
        return ("ok", False) if ok else ("wrong", True)
    if verdict == "not-intersective":
        meets = ref.optimum(inst, must_meet=sol) == opt
        return ("wrong", True) if meets else ("ok", False)
    return "wrong", True


def _judge_dual(w, op, ans):
    return _judge_dual_answer(w, op["inst"], Fraction(op["eps"]), ans["path"],
                              ans["dual_value"], ans["dual_solution"], ans["guarantee"])


def _judge_dual_answer(w, iid, eps, path, value, solution, guarantee):
    inst = w.instances[iid]
    n = gen.universe_size(inst)
    if path == "budget-exceeded":
        return "budget", False
    sol = _members(solution)
    if not (ref.dual_feasible(inst, sol) and value == len(sol)):
        return "wrong", True
    r = w.refs[iid]
    minimize = gen.GOAL[inst["kind"]] == "min"
    if path == "brute":
        ok = value == n - r["opt"] and Fraction(guarantee) == 1
        return ("ok", False) if ok else ("wrong", True)
    if path == "approx":
        if minimize:
            # The dual maximizes; a primal lower bound gives a dual upper bound.
            dual_ub = n - r.get("opt", r.get("lb"))
            ok = value >= (1 - eps) * dual_ub or value >= (1 - eps) * (n - ref.optimum(inst))
            ok = ok and Fraction(guarantee) == 1 - eps
        else:
            ok = value <= (1 + eps) * (n - r["opt"]) and Fraction(guarantee) == 1 + eps
        return ("ok", False) if ok else ("wrong", True)
    return "wrong", True


def _judge_cli(w, op, ans):
    code, out = ans["code"], ans["stdout"]
    sub = op["sub"]
    try:
        recs = [json.loads(line) for line in out.splitlines() if line.strip()]
    except json.JSONDecodeError:
        recs = []
    rec = recs[-1] if recs else {}
    if sub == "gen":
        return _judge_gen(op, code, out)
    if sub == "experiment":
        return _judge_experiment(op, code, recs)
    iid = op["inst"]
    inst = w.instances.get(iid)
    if code == 3:
        return ("cap" if sub == "branch" else "budget"), False
    if code not in (0, 1) or not rec:
        return "exit", False  # an input error or a crash: no record on stdout

    def zero_based(key):
        return None if rec.get(key) is None else [i - 1 for i in rec[key]]

    if sub == "solve":
        sol = zero_based("solution")
        ok = code == 0 and rec.get("outcome") == "optimal" and sol is not None
        ok = ok and ref.feasible(inst, sol) and rec["value"] == len(sol) == w.refs[iid]["opt"]
        return ("ok", False) if ok else ("wrong", True)
    if sub == "approx":
        sol = zero_based("solution")
        ok = code == 0 and sol is not None and ref.feasible(inst, sol)
        ok = ok and rec.get("value") == len(sol)
        return ("ok", False) if ok else ("wrong", True)
    if sub == "branch":
        outcome = {0: "found", 1: "no-instance"}[code]
        if rec.get("outcome") != outcome:
            return "wrong", True
        return _judge_branch(w, {"inst": iid, "k": op["k"]},
                             {"outcome": outcome, "solution": zero_based("solution")})
    if sub == "dual":
        if code != 0 or "path" not in rec:
            return "wrong", True
        return _judge_dual_answer(w, iid, Fraction(op["eps"]), rec["path"], rec["dual_value"],
                                  zero_based("dual_solution"), rec["guarantee"])
    if sub == "check-intersective":
        verdict = rec.get("verdict")
        if code != {"intersective": 0, "not-intersective": 1}.get(verdict):
            return "wrong", True
        return _judge_intersective(w, iid, verdict, zero_based("oracle_solution"),
                                   zero_based("intersecting_optimum"))
    return "wrong", True


def _judge_gen(op, code, out):
    if code != 0:
        return "exit", False
    if "n" in op:
        inst = gen.gnp("vertex-cover", op["n"], op["p"], random.Random(op["seed"]))
        return ("ok", False) if out == gen.render_dimacs(inst) else ("wrong", True)
    lines = out.splitlines()
    try:
        ground, m = map(int, lines[0].split())
        sets = [[int(t) - 1 for t in line.split()] for line in lines[1:]]
    except (ValueError, IndexError):
        return "wrong", True
    ok = (ground, m) == (op["ground"], op["sets"]) and len(sets) == m
    ok = ok and all(s and all(0 <= e < ground for e in s) for s in sets)
    ok = ok and set().union(*map(set, sets)) == set(range(ground))
    return ("ok", False) if ok else ("wrong", True)


def _judge_experiment(op, code, recs):
    if code != 0:
        return "exit", False
    rows, agg = recs[:-1], (recs[-1] if recs else {})
    ok = len(rows) == len(op["opts"]) and agg.get("rows") == len(rows) and agg.get("errors") == 0
    for i, (row, opt) in enumerate(zip(rows, op["opts"])):
        ok = ok and row.get("seed") == op["seed"] + i and row.get("outcome") == "optimal"
        ok = ok and row.get("value") == opt
    return ("ok", False) if ok else ("wrong", True)


def write_files(w: Workload, root: Path) -> None:
    for iid, rel in w.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(gen.render(w.instances[iid]))
