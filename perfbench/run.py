#!/usr/bin/env python3
"""qubokit benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload mis500-anneal --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; qubokit is imported from its
src/ directory.  The workload (perfbench/workloads.json) fixes the
instance family, the replica count, the schedule and the per-replica
spin-update budget.  From --seed the benchmark derives K instance seeds
and K solver seeds.  Job i runs ibp_run and then sa_run on instance
i mod K with solver seed i mod K; jobs go on until --seconds have
passed, with at least K + 1 jobs, so every run repeats one job and checks
that the repeat is identical.  Several instances per run keep a run's
figures from depending on one random graph.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced and untraced jobs (at least K of each) and reports the
per-layer metrics; the traced run's spans go to perfbench/out/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with seeds, context and
every solver run, is written to perfbench/out/ as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qubokit  # noqa: E402
from qubokit import anneal as q_anneal  # noqa: E402
from qubokit import ibp as q_ibp  # noqa: E402
from qubokit import sa as q_sa  # noqa: E402
from qubokit import (  # noqa: E402
    boltzmann_distribution,
    brute_force_min,
    energy,
    energy_batch,
    gen_er_graph,
    geometric_schedule,
    ibp_run,
    load_instance,
    mis_to_qubo,
    random_sparse_qubo,
    sa_run,
    save_instance,
)

from spans import Tracer, patch, self_times  # noqa: E402

SOLVERS = {"ibp": ibp_run, "sa": sa_run}
# Relative tolerance on energies, scaled by sum|h| + sum|w|.  Cached
# energies drift from recomputed ones by float rounding only (about 4e-13
# after 200n updates on ER(300, 0.05), where that scale is about 1300).
ENERGY_RTOL = 1e-9
# Time-averaged energy at fixed beta must match the exact Boltzmann mean
# within this many batch-means standard errors.
SAMPLE_Z = 5.0
SAMPLE_BATCHES = 20
SAMPLE_BURN_IN = 0.1

# Host-speed probe: a fixed kernel of small numpy operations, independent
# of qubokit, timed before and after every solver run and instance build.
# On the 2-CPU reference host (a KVM guest shared with other tenants) the
# solver steps alternate between a normal phase and slow phases of 1.6-2x,
# lasting from seconds to minutes, in CPU time as much as in wall time.
# Every time the benchmark reports is scaled by PROBE_REF_S / probe, the
# probe's time in the normal phase over its time around the measurement,
# i.e. it is given in seconds at the reference host's normal speed.  Over
# five seeds this cut the IQR of IBP throughput from 0.20 to 0.11 of the
# median on mis500-anneal and from 0.11 to 0.02 on rand300-sample-r1.
PROBE_REF_S = 1.1e-3
# Per checkpoint interval, the repeats of a job are summarised by their
# lower tertile rather than their median: slow phases only ever add time.
# Over three sets of ten seeds, this cut the spread of throughput and
# time-to-target on mis500-anneal and mis2000-anneal-t2 by about a third
# and left rand300-sample-r1 unchanged.
INTERVAL_QUANTILE = 100.0 / 3.0
_PROBE_X = np.random.default_rng(0).random((64, 256))
_PROBE_COLS = np.random.default_rng(1).integers(0, 256, (128, 8))


def host_probe() -> float:
    """Shortest of three timings of the probe kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = np.zeros(64)
        for cols in _PROBE_COLS:
            a = _PROBE_X[:, cols].sum(axis=1)
            acc += np.logaddexp(0.0, a - 0.5) - np.logaddexp(0.0, a)
            acc = np.where(acc > 8.0, 0.0, acc)
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Probe timings around a measured stretch; scale() is the factor
    that converts its seconds to reference-speed seconds."""

    def __enter__(self) -> "HostSpeed":
        self.before = host_probe()
        return self

    def __exit__(self, *exc) -> None:
        self.after = host_probe()

    def scale(self) -> float:
        return 2.0 * PROBE_REF_S / (self.before + self.after)


# ----------------------------------------------------------------------
# Workload, seeds and instances
# ----------------------------------------------------------------------


def derive_seeds(seed: int, k: int) -> dict:
    """K (graph, coefficient) instance seeds, K solver seeds, and the
    oracle instance's graph, coefficient and solver seeds."""
    inst, solver, oracle = np.random.SeedSequence(seed).spawn(3)
    pairs = inst.generate_state(2 * k).reshape(k, 2)
    return {
        "workload_seed": seed,
        "instances": [[int(g), int(c)] for g, c in pairs],
        "solvers": [int(v) for v in solver.generate_state(k)],
        "oracle": [int(v) for v in oracle.generate_state(3)],
    }


def make_instance(w: dict, n: int, p: float, graph_seed: int, coef_seed: int, tracer: Tracer):
    """Generate, encode and round-trip one instance through the text
    format, each stage in its own span."""
    g = tracer.wrap("generate.graph", gen_er_graph)(n, p, graph_seed)
    if w["problem"] == "mis":
        q = tracer.wrap("generate.encode", mis_to_qubo)(g, w["penalty"])
    else:
        q = tracer.wrap("generate.encode", random_sparse_qubo)(g, coef_seed)
    roundtrip = tracer.wrap("qubo.roundtrip", lambda: load_instance(save_instance(q)))()
    if roundtrip != q:
        raise RuntimeError("save_instance/load_instance round trip changed the instance")
    return roundtrip


def energy_tol(q) -> float:
    return ENERGY_RTOL * (float(np.abs(q.h).sum()) + float(np.abs(q.pair_w).sum())) + 1e-12


# ----------------------------------------------------------------------
# Solver runs and their output checks
# ----------------------------------------------------------------------


class Stamps:
    """Wall-clock time of every checkpoint, taken by wrapping the
    anneal.Checkpoint constructor the run driver calls in record()."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.original = q_anneal.Checkpoint

    def __call__(self, *args):
        self.times.append(time.perf_counter())
        return self.original(*args)


def crossing(trace, target: float) -> tuple[int, float] | None:
    """(k, frac) where checkpoint k is the first whose ensemble median
    reaches target, and the crossing lies a fraction frac into the interval
    that ends at checkpoint k, interpolated linearly in energy.  The
    interpolation keeps time-to-target from jumping by a whole sweep when
    the crossing moves by one checkpoint."""
    cps = trace.checkpoints
    for k, cp in enumerate(cps):
        if cp.median <= target:
            if k == 0:
                return 0, 1.0
            prev = cps[k - 1].median
            return k, (prev - target) / (prev - cp.median)
    return None


def times_of(intervals, tail: float, cross) -> tuple[float, float]:
    """(wall, time to target) from the durations of the checkpoint
    intervals (the first runs from the solver call to checkpoint 0) and of
    the tail after the last checkpoint."""
    iv = np.asarray(intervals)
    k, frac = cross
    return float(iv.sum() + tail), float(iv[:k].sum() + frac * iv[k])


def job_times(runs: list[dict]) -> tuple[float, float]:
    """times_of() over the repeats of one deterministic job: every run's
    intervals at reference speed, then each interval at its lower tertile
    over the repeats, which all do identical work in it."""
    scaled = [np.asarray(r["intervals"]) * r["scale"] for r in runs]
    iv = np.percentile(scaled, INTERVAL_QUANTILE, axis=0)
    tail = float(np.percentile([r["tail"] * r["scale"] for r in runs], INTERVAL_QUANTILE))
    return times_of(iv, tail, runs[0]["crossing"])


def fingerprint(trace) -> str:
    h = hashlib.sha256()
    h.update(repr([tuple(cp) for cp in trace.checkpoints]).encode())
    h.update(trace.final_states.tobytes())
    h.update(trace.best_state.tobytes())
    h.update(repr(trace.best_energy).encode())
    return h.hexdigest()[:16]


def check_trace(q, trace, budget: int, max_move: int, tol: float) -> list[str]:
    """Output checks of one solver run; returns the failures found."""
    bad = []
    cps = trace.checkpoints
    values = np.array([list(cp) for cp in cps], dtype=np.float64)
    if not np.isfinite(values).all() or not np.isfinite(trace.best_energy):
        bad.append("non-finite checkpoint or best energy")
    for name, x in (("final_states", trace.final_states), ("best_state", trace.best_state)):
        if x.dtype != np.uint8 or (x > 1).any():
            bad.append(f"{name} is not binary")
    if bad:
        return bad
    e_best = energy(q, trace.best_state)
    if abs(e_best - trace.best_energy) > tol:
        bad.append(f"energy(best_state)={e_best!r} != best_energy={trace.best_energy!r}")
    e_final = float(np.median(energy_batch(q, trace.final_states)))
    if abs(e_final - cps[-1].median) > tol:
        bad.append(f"recomputed final median {e_final!r} != checkpoint {cps[-1].median!r}")
    u = cps[-1].spin_updates
    if not budget <= u < budget + max_move:
        bad.append(f"final spin_updates {u} outside [{budget}, {budget + max_move})")
    return bad


class Runner:
    """Runs solver jobs on the workload's instances, checks them and
    keeps the records."""

    def __init__(self, w: dict, qs: list, seeds: list[int], stamps: Stamps) -> None:
        self.w, self.qs, self.seeds, self.stamps = w, qs, seeds, stamps
        sch = w["schedule"]
        self.schedule = geometric_schedule(sch["beta_start"], sch["beta_end"], sch["steps"])
        self.budget = w["budget_per_var"] * w["n"]
        self.ce = self.budget // w["checkpoints"] if w["checkpoints"] else None
        self.runs: list[dict] = []
        self.seen: dict[tuple, str] = {}

    def solve(self, algo: str, i: int, label: str, instrument=None) -> dict:
        """One checked run on instance i with solver seed i; with an
        Instrument, the run is traced under the root span "<algo>.run"."""
        w, q, seed = self.w, self.qs[i], self.seeds[i]
        rec = {"algo": algo, "instance": i, "seed": seed, "label": label, "failures": []}
        run = SOLVERS[algo]
        if instrument is not None:
            run = instrument.tracer.wrap(f"{algo}.run", run)
        self.stamps.times.clear()
        try:
            with HostSpeed() as speed:
                t0 = time.perf_counter()
                trace = run(q, w["replicas"], self.schedule, seed, self.ce,
                            budget=self.budget, threads=w["threads"])
                wall = time.perf_counter() - t0
        except Exception as exc:  # a crashing solver is a failed run, not a crashed benchmark
            rec["failures"].append(f"{type(exc).__name__}: {exc}")
            self.runs.append(rec)
            return rec
        if len(self.stamps.times) != len(trace.checkpoints):
            # The interval times rest on one anneal.Checkpoint call per
            # checkpoint; without that they cannot be told apart.
            rec["failures"].append(f"{len(self.stamps.times)} checkpoint time stamps for "
                                   f"{len(trace.checkpoints)} checkpoints")
            self.runs.append(rec)
            return rec
        u = trace.checkpoints[-1].spin_updates
        # The final move started below the budget; its size is known only
        # when traced, otherwise bounded by n.
        max_move = instrument.counts["last_move"] + 1 if instrument is not None else q.n
        rec["failures"] += check_trace(q, trace, self.budget, max_move, energy_tol(q))
        cross = crossing(trace, w["tts_target"])
        if cross is None:
            rec["failures"].append(f"median never reached target {w['tts_target']}")
            cross = (len(trace.checkpoints) - 1, 1.0)
        stamps = np.array(self.stamps.times) - t0
        intervals = np.diff(stamps, prepend=0.0).tolist()
        tail = wall - float(stamps[-1])
        fp = fingerprint(trace)
        key = (algo, i)
        if key in self.seen and self.seen[key] != fp:
            rec["failures"].append("repeat of a seed gave a different trajectory")
        self.seen.setdefault(key, fp)
        rec.update(
            wall_s=wall, scale=speed.scale(), spin_updates=u,
            updates_to_target=trace.checkpoints[cross[0]].spin_updates,
            final_median=trace.checkpoints[-1].median, best_energy=trace.best_energy,
            checkpoints=len(trace.checkpoints), fingerprint=fp,
            crossing=cross, intervals=intervals, tail=tail,
        )
        self.runs.append(rec)
        return rec


def oracle_check(w: dict, seeds: dict, tracer: Tracer) -> tuple[list[dict], float]:
    """Both solvers on a small instance from the workload's generator: the
    best energy found must be the exact minimum, and with sample_check the
    time-averaged energy at fixed beta must match the exact Boltzmann mean.
    Returns the run records and the brute-force seconds at reference speed."""
    o = w["oracle"]
    q = make_instance(w, o["n"], o["p"], seeds["oracle"][0], seeds["oracle"][1], tracer)
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        _, e_min = brute_force_min(q)
        brute_s = time.perf_counter() - t0
    brute_s *= speed.scale()
    sch = w["schedule"]
    schedule = geometric_schedule(sch["beta_start"], sch["beta_end"], sch["steps"])
    budget = o["budget_per_var"] * q.n
    tol = energy_tol(q)
    exact_mean = None
    if o["sample_check"]:
        exact = boltzmann_distribution(q, sch["beta_start"])
        exact_mean = float(exact.energies @ exact.probabilities)
    records = []
    for algo, run in SOLVERS.items():
        rec = {"algo": algo, "seed": seeds["oracle"][2], "label": "oracle", "failures": []}
        try:
            trace = run(q, w["replicas"], schedule, rec["seed"], None,
                        budget=budget, threads=w["threads"])
        except Exception as exc:
            rec["failures"].append(f"{type(exc).__name__}: {exc}")
            records.append(rec)
            continue
        rec["failures"] += check_trace(q, trace, budget, q.n, tol)
        rec["best_energy"], rec["exact_min"] = trace.best_energy, e_min
        if abs(trace.best_energy - e_min) > tol:
            rec["failures"].append(f"best energy {trace.best_energy!r} != exact minimum {e_min!r}")
        if exact_mean is not None:
            series = np.array([cp.median for cp in trace.checkpoints[1:]])
            series = series[int(SAMPLE_BURN_IN * series.size):]
            usable = series.size - series.size % SAMPLE_BATCHES
            batches = series[:usable].reshape(SAMPLE_BATCHES, -1).mean(axis=1)
            se = float(batches.std(ddof=1) / np.sqrt(SAMPLE_BATCHES))
            mean = float(series.mean())
            rec.update(time_avg_energy=mean, exact_mean_energy=exact_mean, std_err=se,
                       samples=int(series.size))
            if not abs(mean - exact_mean) <= SAMPLE_Z * se + tol:
                rec["failures"].append(
                    f"time-averaged energy {mean:.4f} differs from exact {exact_mean:.4f} "
                    f"by more than {SAMPLE_Z} x {se:.4f}")
        records.append(rec)
    return records, brute_s


# ----------------------------------------------------------------------
# Tracing: wrappers around qubokit's module attributes
# ----------------------------------------------------------------------


class Instrument:
    """Spans and counters for the traced run.

    Wraps select_subtree, frozen_neighbor_arrays, ensemble_upward and
    ensemble_sample as ibp.py sees them, run_schedule in ibp.py and sa.py
    together with the make_step callback it is passed and the chunk
    runner that callback gets, and ReplicaEnsemble.initialize.  Each
    replica chunk is a "<algo>.chunk" span on the thread that runs it, so
    work outside the wrapped functions on one pool thread is not booked
    to a sibling thread's open span.  State snapshots for the
    changed-bit counts are taken in trace.bookkeeping spans outside the
    step spans.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: dict = {}
        self.new_run()

    def new_run(self) -> dict:
        self.counts = {"trees": [], "gathers": [], "changed": 0, "resampled": 0,
                       "last_move": 0}
        return self.counts

    def patches(self) -> list:
        t = self.tracer

        timed_select = t.wrap("subtree.select", q_ibp.select_subtree)
        timed_gather = t.wrap("subtree.gather", q_ibp.frozen_neighbor_arrays)

        def select(q, rng):
            tree = timed_select(q, rng)
            self.counts["trees"].append(tree.parent_pos)
            return tree

        def gather(q, tree):
            idx, wmat = timed_gather(q, tree)
            self.counts["gathers"].append(idx.shape)
            return idx, wmat

        init = q_anneal.ReplicaEnsemble.initialize.__func__

        return [
            (q_ibp, "select_subtree", select),
            (q_ibp, "frozen_neighbor_arrays", gather),
            (q_ibp, "ensemble_upward", t.wrap("treebp.upward", q_ibp.ensemble_upward)),
            (q_ibp, "ensemble_sample", t.wrap("treebp.sample", q_ibp.ensemble_sample)),
            (q_ibp, "run_schedule", self._run_schedule("ibp", q_ibp.run_schedule)),
            (q_sa, "run_schedule", self._run_schedule("sa", q_sa.run_schedule)),
            (q_anneal.ReplicaEnsemble, "initialize",
             classmethod(lambda cls, *a: t.wrap("anneal.init", init)(cls, *a))),
        ]

    def _run_schedule(self, algo: str, original):
        t = self.tracer

        def traced_make(make_step):
            def make(q, ens, chain_rng, run_chunks):
                step = make_step(q, ens, chain_rng,
                                 lambda fn: run_chunks(t.wrap(f"{algo}.chunk", fn)))

                def traced_step(beta):
                    span = t.begin("trace.bookkeeping")
                    before = ens.states.copy()
                    t.end(span)
                    span = t.begin(f"{algo}.step")
                    try:
                        m = step(beta)
                    finally:
                        t.end(span)
                    span = t.begin("trace.bookkeeping")
                    self.counts["changed"] += int(np.count_nonzero(ens.states != before))
                    self.counts["resampled"] += ens.r * m
                    self.counts["last_move"] = m
                    t.end(span)
                    return m

                return traced_step

            return make

        def run_schedule(q, r, schedule, seed, ce, make_step, **kw):
            return t.wrap("anneal.run_schedule", original)(
                q, r, schedule, seed, ce, traced_make(make_step), **kw)

        return run_schedule


def tree_levels(parent_pos: np.ndarray) -> int:
    """Number of levels of a tree given in selection (topological) order."""
    depth = [0] * parent_pos.size
    for p, par in enumerate(parent_pos.tolist()[1:], start=1):
        depth[p] = depth[par] + 1
    return max(depth) + 1


# ----------------------------------------------------------------------
# The timed window
# ----------------------------------------------------------------------


def run_window(seconds: float, min_jobs: int, job) -> int:
    """Call job(i) for i = 0, 1, ... while the next job is expected to end
    inside the window, and at least min_jobs times."""
    start = time.perf_counter()
    durations: list[float] = []
    i = 0
    while i < min_jobs or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        job(i)
        durations.append(time.perf_counter() - t0)
        i += 1
    return i


def context(argv: list[str]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qubokit": qubokit.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "command": [sys.executable.rsplit("/", 1)[-1], "perfbench/run.py", *argv],
        "unix_time": time.time(),
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metric_defs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = spec["workloads"][args.workload]
    k = w["instances"]
    seeds = derive_seeds(args.seed, k)

    # Each job builds its instance again and checks that it is unchanged,
    # so that set-up times are sampled across the whole window rather than
    # in one stretch at its start; setup_s is the median build.
    setup_tracer = Tracer()
    setup_s: list[float] = []
    setup_scale: dict[str, float] = {}
    setup_failures: list[str] = []

    def build(i: int, label: str):
        setup_tracer.run = label
        with HostSpeed() as speed:
            span = setup_tracer.begin("setup")
            q = make_instance(w, w["n"], w["p"], *seeds["instances"][i], setup_tracer)
            setup_tracer.end(span)
        setup_scale[label] = speed.scale()
        setup_s.append((span[5] - span[4]) * setup_scale[label])
        return q

    qs = [build(i, f"setup{i}") for i in range(k)]

    def rebuild(i: int) -> None:
        if build(i % k, f"setup-j{i}") != qs[i % k]:
            setup_failures.append(f"instance {i % k} differs when built again from its seed")

    stamps = Stamps()
    runner = Runner(w, qs, seeds["solvers"], stamps)
    tracer = Tracer()
    instrument = Instrument(tracer)
    job_counts: list[dict] = []
    pairs: list[tuple[float, float]] = []

    def ref_wall(rec: dict) -> float:
        return rec.get("wall_s", 0.0) * rec.get("scale", 1.0)

    def untraced_job(i: int) -> float:
        rebuild(i)
        return sum(ref_wall(runner.solve(a, i % k, f"j{i}")) for a in SOLVERS)

    def traced_job(i: int) -> float:
        walls, counts = 0.0, {}
        for a in SOLVERS:
            tracer.run = f"t{i}-{a}"
            counts[a] = instrument.new_run()
            walls += ref_wall(runner.solve(a, i % k, tracer.run, instrument))
        job_counts.append(counts)
        return walls

    def paired_job(i: int) -> None:
        with patch(instrument.patches()):
            traced = traced_job(i)
        pairs.append((traced, untraced_job(i)))

    with patch([(q_anneal, "Checkpoint", stamps)]):
        if args.trace:
            run_window(args.seconds, k, paired_job)
        else:
            run_window(args.seconds, k + 1, untraced_job)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_tracer.run = "oracle"
    oracle_runs, brute_s = oracle_check(w, seeds, setup_tracer)

    main_runs = runner.runs
    all_runs = main_runs + oracle_runs
    failed = sum(1 for r in all_runs if r["failures"]) + len(setup_failures)
    attempted = len(all_runs) + len(setup_failures)
    for msg in setup_failures:
        print(f"set-up check failed: {msg}", file=sys.stderr)

    def runs_of(algo, first_pass=False):
        rs = [r for r in main_runs if r["algo"] == algo and "wall_s" in r]
        if args.trace:
            rs = [r for r in rs if r["label"].startswith("t")]
        return rs[:k] if first_pass else rs

    if args.trace:
        metrics, trace_failures, step_samples = layer_metrics(
            tracer, job_counts, runs_of, pairs, setup_tracer, setup_scale, brute_s, k)
        for msg in trace_failures:
            print(f"trace check failed: {msg}", file=sys.stderr)
        failed += len(trace_failures)
        attempted += len(trace_failures)
        defs = metric_defs["per_layer"]
    else:
        metrics = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb}
        for a in SOLVERS:
            rs = runs_of(a)
            jobs = [[r for r in rs if r["fingerprint"] == first["fingerprint"]]
                    for first in runs_of(a, first_pass=True)]
            fast = [job_times(j) for j in jobs]
            updates = sum(j[0]["spin_updates"] for j in jobs)
            metrics[f"{a}.updates_per_s"] = w["replicas"] * updates / sum(f[0] for f in fast)
            metrics[f"{a}.tts_s"] = statistics.fmean(f[1] for f in fast)
            metrics[f"{a}.final_median_neg"] = -statistics.fmean(
                r["final_median"] for r in runs_of(a, first_pass=True))
        defs = metric_defs["end_to_end"]

    out = {}
    for d in defs:
        value = float(metrics[d["name"]])
        out[d["name"]] = {"value": value, "unit": d["unit"]}
        print(f"{d['name']:28s} {value:14.6g} {d['unit']:8s} ({d['better']} is better)")
    for r in all_runs:
        for msg in r["failures"]:
            print(f"failed {r['algo']} {r['label']} seed {r['seed']}: {msg}", file=sys.stderr)
    print(f"solver runs attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / attempted:.4g}")

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "context": context(argv),
        "trajectory_file": spec["trajectory_file"],
        "workload": {"name": args.workload, **w},
        "seeds": seeds,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": out,
        "setup_s": setup_s,
        "runs": all_runs,
    }
    if args.trace:
        record["step_samples"] = step_samples
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.write(outdir / f"{stem}-spans.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def layer_metrics(tracer, job_counts, runs_of, pairs, setup_tracer, setup_scale, brute_s, k):
    """Per-layer metrics of the traced jobs, the failures of the trace
    consistency checks, and the number of step spans per solver.  Times
    are at reference speed, like the end-to-end times."""
    failures = []
    scale = {r["label"]: r["scale"] for r in runs_of("ibp") + runs_of("sa")}
    by_run: dict[str, list] = {}
    for s in tracer.spans:
        by_run.setdefault(s[2], []).append(s)
    per_job: list[dict] = []
    durations: dict[str, list[float]] = {"ibp.step": [], "sa.step": []}
    for i in range(len(job_counts)):
        tot: dict[str, float] = {}
        for algo in SOLVERS:
            spans = by_run.get(f"t{i}-{algo}", [])
            f = scale.get(f"t{i}-{algo}", 1.0)
            selfs = self_times(spans)
            roots = [s for s in spans if s[3] is None]
            wall = sum(s[5] - s[4] for s in roots)
            if len(roots) != 1 or abs(sum(selfs.values()) - wall) > 1e-6 * wall + 1e-9:
                failures.append(f"self times of t{i}-{algo} do not add up to its wall time")
            for s in spans:
                # A chunk's own work is its step's work, done on a pool thread.
                name = s[1].replace(".chunk", ".step").replace("anneal.run_schedule",
                                                               "anneal.driver")
                tot[name + ".self"] = tot.get(name + ".self", 0.0) + f * selfs[s[0]]
                if not s[1].endswith(".chunk"):
                    tot[name + ".incl"] = tot.get(name + ".incl", 0.0) + f * (s[5] - s[4])
                if s[1] in durations:
                    durations[s[1]].append(f * (s[5] - s[4]))
            tot[f"{algo}.wall"] = f * wall
        per_job.append(tot)

    def job_seconds(key):
        """Mean over instances of the median per-job total over the
        instance's traced repeats."""
        return statistics.fmean(statistics.median([t.get(key, 0.0) for t in per_job[i::k]])
                                for i in range(min(k, len(per_job))))

    first = job_counts[:k]
    trees = [p for c in first for p in c["ibp"]["trees"]]
    sizes = np.array([p.size for p in trees], dtype=np.float64)
    levels = np.array([tree_levels(p) for p in trees], dtype=np.float64)
    gathers = np.array([g for c in first for g in c["ibp"]["gathers"]], dtype=np.float64)
    ibp_c = [c["ibp"] for c in first]
    sa_c = [c["sa"] for c in first]

    # Counts must repeat exactly for a repeated seed.
    for i in range(k, len(job_counts)):
        a, b = job_counts[i]["ibp"], job_counts[i - k]["ibp"]
        same = (len(a["trees"]) == len(b["trees"])
                and all(np.array_equal(x, y) for x, y in zip(a["trees"], b["trees"]))
                and a["changed"] == b["changed"]
                and job_counts[i]["sa"]["changed"] == job_counts[i - k]["sa"]["changed"])
        if not same:
            failures.append(f"traced job {i} counts differ from job {i - k} at the same seed")

    setup_by_name: dict[str, list[float]] = {}
    for s in setup_tracer.spans:
        if s[2] in setup_scale:
            setup_by_name.setdefault(s[1], []).append((s[5] - s[4]) * setup_scale[s[2]])

    traced = sum(statistics.median([p[0] for p in pairs[i::k]]) for i in range(k))
    untraced = sum(statistics.median([p[1] for p in pairs[i::k]]) for i in range(k))
    ibp_first, sa_first = runs_of("ibp", True), runs_of("sa", True)
    return {
        "subtree.select.s": job_seconds("subtree.select.self"),
        "subtree.select.calls": sizes.size / len(first),
        "subtree.tree_size.mean": float(sizes.mean()),
        "subtree.tree_size.p95": float(np.percentile(sizes, 95)),
        "subtree.tree_size.max": float(sizes.max()),
        "subtree.tree_depth.mean": float(levels.mean()),
        "subtree.tree_depth.max": float(levels.max()),
        "subtree.gather.s": job_seconds("subtree.gather.self"),
        "subtree.gather.width.mean": float(gathers[:, 1].mean()),
        "subtree.gather.bytes.mean": float((gathers[:, 0] * gathers[:, 1] * 16).mean()),
        "treebp.upward.s": job_seconds("treebp.upward.self"),
        "treebp.sample.s": job_seconds("treebp.sample.self"),
        "ibp.step.s": job_seconds("ibp.step.incl"),
        "ibp.step.self_s": job_seconds("ibp.step.self"),
        "ibp.step.p50_ms": 1e3 * float(np.percentile(durations["ibp.step"], 50)),
        "ibp.step.p99_ms": 1e3 * float(np.percentile(durations["ibp.step"], 99)),
        "ibp.bits_changed_frac": sum(c["changed"] for c in ibp_c) / sum(c["resampled"] for c in ibp_c),
        "ibp.updates_to_target": statistics.fmean(r["updates_to_target"] for r in ibp_first),
        "ibp.wall_s": job_seconds("ibp.wall"),
        "sa.step.s": job_seconds("sa.step.incl"),
        "sa.step.p50_ms": 1e3 * float(np.percentile(durations["sa.step"], 50)),
        "sa.step.p99_ms": 1e3 * float(np.percentile(durations["sa.step"], 99)),
        "sa.accept_rate": sum(c["changed"] for c in sa_c) / sum(c["resampled"] for c in sa_c),
        "sa.updates_to_target": statistics.fmean(r["updates_to_target"] for r in sa_first),
        "sa.wall_s": job_seconds("sa.wall"),
        "anneal.init.s": job_seconds("anneal.init.self"),
        "anneal.driver.self_s": job_seconds("anneal.driver.self") + job_seconds("ibp.run.self") + job_seconds("sa.run.self"),
        "anneal.checkpoints": sum(statistics.fmean(r["checkpoints"] for r in rs)
                                  for rs in (ibp_first, sa_first)),
        "generate.graph.s": statistics.median(setup_by_name["generate.graph"]),
        "generate.encode.s": statistics.median(setup_by_name["generate.encode"]),
        "qubo.roundtrip.s": statistics.median(setup_by_name["qubo.roundtrip"]),
        "oracle.brute_force.s": brute_s,
        "trace.bookkeeping.s": job_seconds("trace.bookkeeping.self"),
        "trace.overhead_frac": traced / untraced - 1.0,
    }, failures, {name: len(d) for name, d in durations.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
