"""Command-line interface: gen, solve, bench, verify.

Exit codes: 0 success, 1 usage, invalid argument or out of memory, 2 I/O or
parse error, 3 numeric failure, which includes an instance whose sum |h| +
sum |w| overflows: every command rejects it on loading.  CSV uses UTF-8,
'\n' line endings, repr() floats (the shortest string that round-trips the
exact float64), so equal runs produce byte-identical files.

Output conventions: `solve` prints its summary JSON to stdout (or to
--summary) and writes the checkpoint CSV only when --csv is given; `bench`
writes its comparison CSV to --csv or stdout; `gen` prints one line with
n, nnz and seed; `verify` prints a JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .anneal import RunTrace, geometric_schedule
from .generate import gen_er_graph, maxcut_to_qubo, mis_to_qubo, random_sparse_qubo
from .ibp import ibp_run
from .oracle import brute_force_min, tree_dp_min
from .qubo import ParseError, QuboInstance, load_instance, save_instance
from .sa import sa_run
from .treebp import ConvergenceError, NumericError


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the CLI contract wants 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qubokit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[], help="generate a benchmark instance")
    gen.add_argument("--class", dest="cls", required=True,
                     choices=("maxcut", "mis", "random"))
    gen.add_argument("--n", type=int, required=True, help="number of variables")
    gen.add_argument("--p", type=float, required=True, help="edge density")
    gen.add_argument("--penalty", type=float, default=2.0,
                     help="MIS edge penalty (finite, > 1)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="instance file path")
    gen.set_defaults(func=_cmd_gen)

    def solver_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance file path")
        p.add_argument("-R", "--replicas", type=int, default=64)
        p.add_argument("--beta-start", type=float, default=0.1)
        p.add_argument("--beta-end", type=float, default=10.0)
        p.add_argument("--steps", type=int, default=100,
                       help="schedule length (number of beta values)")
        p.add_argument("--budget", type=int, default=None,
                       help="per-replica spin updates (default: steps * n)")
        p.add_argument("--checkpoints", type=int, default=100,
                       help="target number of checkpoints over the budget")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility (>= 1); both solvers run on "
                            "one thread and results do not depend on it")
        p.add_argument("--csv", help="checkpoint CSV path")

    solve = sub.add_parser("solve", help="run one solver on an instance")
    solver_flags(solve)
    solve.add_argument("--algo", choices=("ibp", "sa"), default="ibp")
    solve.add_argument("--summary", help="summary JSON path (default: stdout)")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run IBP and SA head to head")
    solver_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", help="exact check of a small instance")
    verify.add_argument("instance", help="instance file path")
    verify.set_defaults(func=_cmd_verify)
    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    ss = np.random.SeedSequence(args.seed)
    graph_seed, coef_seed = ss.spawn(2)
    g = gen_er_graph(args.n, args.p, graph_seed)
    if args.cls == "maxcut":
        q = maxcut_to_qubo(g)
    elif args.cls == "mis":
        q = mis_to_qubo(g, penalty=args.penalty)
    else:
        q = random_sparse_qubo(g, coef_seed)
    Path(args.output).write_text(save_instance(q), encoding="utf-8")
    nnz = int(np.count_nonzero(q.h)) + q.num_couplings
    print(f"n={q.n} nnz={nnz} seed={args.seed}")
    return 0


def _load(path: str) -> QuboInstance:
    q = load_instance(Path(path).read_text(encoding="utf-8"))
    # sum |h| + sum |w| bounds |E(x)| and its partial sums for every x, so
    # an instance whose bound is finite has no energy that overflows.
    with np.errstate(over="ignore"):
        bound = np.abs(q.h).sum() + np.abs(q.pair_w).sum()
    if not np.isfinite(bound):
        raise NumericError("sum of absolute coefficients overflows")
    return q


def _run_config(args: argparse.Namespace, q: QuboInstance):
    """(schedule, budget, checkpoint_every) shared by solve and bench."""
    schedule = geometric_schedule(args.beta_start, args.beta_end, args.steps)
    budget = args.budget if args.budget is not None else args.steps * q.n
    if args.checkpoints < 1:
        raise ValueError(f"checkpoints must be >= 1, got {args.checkpoints}")
    ce = max(1, budget // args.checkpoints) if budget > 0 else None
    return schedule, budget, ce


def _csv_lines(trace: RunTrace, algo: str | None = None) -> list[str]:
    head = "spin_updates,best,median,p01"
    lines = [f"algo,{head}" if algo is not None else head]
    for cp in trace.checkpoints:
        row = f"{cp.spin_updates},{cp.best!r},{cp.median!r},{cp.p01!r}"
        lines.append(f"{algo},{row}" if algo is not None else row)
    return lines


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cmd_solve(args: argparse.Namespace) -> int:
    q = _load(args.instance)
    schedule, budget, ce = _run_config(args, q)
    run = ibp_run if args.algo == "ibp" else sa_run
    t0 = time.perf_counter()
    trace = run(q, args.replicas, schedule, args.seed, ce,
                budget=budget, threads=args.threads)
    wall = time.perf_counter() - t0
    if args.csv is not None:
        _write_text(args.csv, "\n".join(_csv_lines(trace)) + "\n")
    summary = {
        "algo": args.algo,
        "instance": args.instance,
        "n": q.n,
        "replicas": args.replicas,
        "beta_start": args.beta_start,
        "beta_end": args.beta_end,
        "steps": args.steps,
        "budget": budget,
        "seed": args.seed,
        "threads": args.threads,
        "spin_updates": trace.checkpoints[-1].spin_updates,
        "best_energy": trace.best_energy,
        "best_assignment": "".join(str(int(b)) for b in trace.best_state),
        "wall_time_s": round(wall, 6),
    }
    _write_text(args.summary, json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    q = _load(args.instance)
    schedule, budget, ce = _run_config(args, q)
    lines: list[str] = []
    for algo, run in (("ibp", ibp_run), ("sa", sa_run)):
        trace = run(q, args.replicas, schedule, args.seed, ce,
                    budget=budget, threads=args.threads)
        cur = _csv_lines(trace, algo=algo)
        lines.extend(cur if not lines else cur[1:])
    _write_text(args.csv, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    q = _load(args.instance)
    x, e = brute_force_min(q)
    try:
        forest_min = tree_dp_min(q)
    except ValueError:
        forest_min = None
    report = {
        "n": q.n,
        "nnz": int(np.count_nonzero(q.h)) + q.num_couplings,
        "min_energy": e,
        "argmin": "".join(str(int(b)) for b in x),
        "forest_min": forest_min,
    }
    print(json.dumps(report, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"qubokit: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qubokit: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ConvergenceError) as exc:
        print(f"qubokit: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"qubokit: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"qubokit: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
