"""Run one sparselab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload study-mlp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, measured untraced; with --trace 1 they are the per-layer
ones, from spans recorded around the calls into each module. Every run
also writes bench_results/<run>/result.json with the environment it ran in.
The exit code is 0 only if every operation and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench_results")
PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_RUNS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workers):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "workers": workers}


def setup_samples(config_path):
    """Seconds from the start of a fresh process to the point where the
    study could run its first trial, and that process's dataset time."""
    walls, resolve_ms = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, PROBE, config_path], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        resolve_ms.append(json.loads(line)["resolve_dataset_ms"])
    return walls, resolve_ms


def peak_rss_mb():
    """Largest resident set so far of this process or any waited-for child
    (pool workers and set-up probes)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Runner:
    def __init__(self, args, run_dir):
        import workloads
        self.w = workloads
        self.args = args
        self.run_dir = run_dir
        self.config_path = workloads.write_config(
            args.workload, args.seed, os.path.join(run_dir, "config.json"))
        self.nproc = len(os.sched_getaffinity(0))
        self.study = args.workload != "trace-mlp"
        self.rounds = 0

    def setup(self):
        self.cfg = self.w.setup(self.config_path)

    def round(self, workers):
        self.rounds += 1
        if self.study:
            return self.w.study_round(
                self.cfg, os.path.join(self.run_dir, f"round{self.rounds}"), workers)
        return self.w.trace_round(self.cfg, self.args.seed)

    def measure(self, workers):
        """Whole rounds until --seconds have passed (at least one)."""
        done, t0 = [], time.perf_counter()
        while not done or time.perf_counter() - t0 < self.args.seconds:
            done.append(self.round(workers))
        return done

    def check(self, checks, rnd):
        import checks as c
        if self.study:
            c.check_study(checks, self.cfg, rnd.table, rnd.records)
        else:
            bx, by = self.w.beta_subset(self.cfg, self.args.seed)
            c.check_trace(checks, self.cfg, rnd, self.args.seed, self.w.TRACE_STRIDE,
                          self.w.TRACE_STEPS, self.w.TRACE_ETA, bx, by)

    @staticmethod
    def same(checks, rounds, ref, what):
        for i, rnd in enumerate(rounds):
            diff = sum(a != b for a, b in zip(rnd.outputs, ref.outputs))
            checks.expect(len(rnd.outputs) == len(ref.outputs) and diff == 0,
                          f"round {i + 1}: {diff} of {len(ref.outputs)} outputs differ from {what}")


def untraced(runner, checks, info):
    walls, _ = setup_samples(runner.config_path)
    runner.setup()
    # Timed in one process: at workers=nproc a round's wall spreads over 4x
    # under default BLAS threading (see README), too wide for any bound.
    measured = runner.measure(1)
    rounds = list(measured)
    if runner.study:
        # the records at workers=nproc must equal the single-process ones
        rounds.append(runner.round(runner.nproc))
        info.update(invariance_workers=runner.nproc, workers_nproc_wall_s=rounds[-1].wall_s)
    runner.same(checks, rounds, measured[0], "round 1")
    rss = peak_rss_mb()
    runner.check(checks, measured[0])
    info.update(workers=1, setup_walls=walls, round_walls=[r.wall_s for r in measured])
    metrics = {
        "setup_s": statistics.median(walls),
        "wall_s": statistics.median(r.wall_s for r in measured),
        "train_steps_per_s": statistics.median(r.train_steps / r.train_s for r in measured),
        "peak_rss_mb": rss,
    }
    return rounds, metrics


def traced(runner, checks, info):
    import tracer as tr
    _, resolve_ms = setup_samples(runner.config_path)
    runner.setup()
    workers = runner.nproc if runner.study else 1
    parallel = runner.round(workers) if runner.study else None
    # untraced and traced single-process rounds alternate, so that both see
    # the same warm-up and the same drift of the machine
    tracer = tr.Tracer()
    plain, traced_rounds, t0 = [], [], time.perf_counter()
    while not traced_rounds or time.perf_counter() - t0 < runner.args.seconds:
        plain.append(runner.round(1))
        tracer.install()
        try:
            traced_rounds.append(runner.round(1))
        finally:
            tracer.uninstall()
    single = plain[0]
    runner.same(checks, plain + traced_rounds + ([parallel] if parallel else []), single,
                "the first untraced workers=1 round")
    runner.check(checks, single)

    spans = tracer.arrays()
    grid = runner.cfg.batch_sizes
    m = tr.layer_metrics(spans, tracer.names, len(traced_rounds), grid)
    union = sorted({b for g in runner.w.GRIDS.values() for b in g["batch_sizes"]})
    for b in union:             # every workload reports the union of the grids
        for key in ("harness.train_step.us", "nn.forward.us", "nn.backward.us",
                    "nn.loss_and_error.us", "nn.step.unattributed.us"):
            m.setdefault(f"{key}.B{b}", 0.0)
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced_rounds)
    m["harness.resolve_dataset.ms"] = statistics.median(resolve_ms)
    m["harness.run_study.parallel_efficiency"] = (
        plain_wall / (workers * parallel.wall_s) if runner.study else 0.0)
    phases = {k: sum(r.phase_s.get(k, 0.0) for r in plain) for k in ("trace", "beta", "estimates")}
    m["analysis.lipschitz_estimates_per_s"] = (
        phases["estimates"] / phases["trace"] if phases["trace"] else 0.0)
    m["analysis.beta_samples_per_s"] = (
        runner.w.BETA_SAMPLES * len(single.betas) * len(plain) / phases["beta"]
        if phases["beta"] else 0.0)
    m["bench.untraced.workers1.s"] = plain_wall
    m["bench.untraced.workersN.s"] = parallel.wall_s if runner.study else plain_wall
    m["bench.traced.s"] = traced_wall
    m["bench.tracing_overhead"] = traced_wall / plain_wall

    tracer.save(os.path.join(runner.run_dir, "spans.npz"))
    with open(os.path.join(runner.run_dir, "self_times.json"), "w") as f:
        json.dump(tr.self_times(spans, tracer.names), f, indent=1, sort_keys=True)
    info.update(workers=workers, traced_rounds=len(traced_rounds),
                span_count=int(len(spans["name"])), grid=list(grid))
    rounds = plain + traced_rounds + ([parallel] if parallel else [])
    return rounds, m


def units(trace):
    """Each metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparselab", "__init__.py")):
        print(f"error: no sparselab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    import checks as c
    declared = units(args.trace)

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(args, run_dir)
    checks = c.Checks()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}
    rounds, metrics, raised = [], {}, 0
    try:
        rounds, metrics = (traced if args.trace else untraced)(runner, checks, info)
    except Exception:
        traceback.print_exc()
        raised = 1
    info["environment"] = environment(info.get("workers"))
    for name in os.listdir(run_dir):
        if name.startswith("round"):
            shutil.rmtree(os.path.join(run_dir, name))

    undeclared = sorted(set(metrics) ^ set(declared))
    checks.expect(not undeclared or raised,
                  f"metrics reported and declared in BENCHMARK.json differ: {undeclared}")
    failed = raised + len(checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.operations for r in rounds) + checks.attempted + raised,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared.get(k)} for k, v in metrics.items()},
    }
    info.update(failures=checks.failures, result=result)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(info, f, indent=1)
    for msg in checks.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
