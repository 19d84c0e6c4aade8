"""FedKEMF benchmark: end-to-end metrics of one workload, or per-layer metrics from traced runs.

Run from the repository root:

    python3 bench/run_bench.py --workload kemf-many --seed 1 --seconds 20 --trace 0

The process runs fedkemf runs of the workload back to back, in-process
through `fedkemf.cli.main`, within `--seconds`, and gates every run for
correctness.  With `--trace 0` it reports the end-to-end metrics of
untraced runs; with `--trace 1` it alternates untraced and traced runs and
reports the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details (environment, drift,
per-run figures, spans) go to `.bench_runs/<workload>/seed<n>-trace<t>/`.
See bench/README.md for every metric.
"""

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import METRICS, layer_values
from tracing import ALL_TARGETS, CLOCK_TARGETS, EMIT_SPAN, ROUND_SPAN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_runs"
MIN_ROUNDS = 100     # pooled rounds per result, so that ten lie beyond p90
MIN_RUNS = 3         # fedkemf runs per result, for the medians of per-run figures
MIN_TRACED = 2       # traced runs, so that exact counts can be compared
MAX_SECONDS = 120    # start no fedkemf run after this, so the process ends within 180 s
PROGRAM_MODULES = ("cli", "config", "runner", "server", "client", "nets", "checkpoint")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "round_s.p50": "s",
    "round_s.p90": "s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "final_acc": "fraction",
}


@dataclass
class Run:
    """One fedkemf run: its timings, its gate verdict and, if traced, its spans."""

    traced: bool
    run_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: float = None
    periods: list = field(default_factory=list)       # seconds per round
    round_samples: list = field(default_factory=list)
    final_acc: float = None
    failures: list = field(default_factory=list)
    layers: dict = None


def check_benchmark_json():
    """The metric tables here must match BENCHMARK.json, which declares the benchmark."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != END_TO_END or layered != {k: v[0] for k, v in METRICS.items()}:
        sys.exit("error: BENCHMARK.json metrics disagree with bench/run_bench.py, bench/layers.py")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        sys.exit("error: BENCHMARK.json workloads disagree with bench/workloads.py")


def load_program():
    src = ROOT / "src"
    if not (src / "fedkemf" / "cli.py").is_file():
        sys.exit(f"error: no fedkemf sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    os.environ.pop("FEDKEMF_SEED", None)  # the benchmark's seed is the experiment seed
    modules = {}
    for name in PROGRAM_MODULES:
        try:
            modules[name] = importlib.import_module(f"fedkemf.{name}")
        except ModuleNotFoundError:
            modules[name] = None
    package = sys.modules["fedkemf"]
    if Path(package.__file__).resolve().parent != (src / "fedkemf").resolve():
        sys.exit(f"error: imported fedkemf from {package.__file__}, not from {src}")
    return modules


def reference_kernel_ms():
    """A fixed numpy kernel, timed as a record of host drift; it scales no metric."""
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((32, 64)), rng.standard_normal((64, 64))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(300):
            np.maximum(a @ w, 0.0)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment(jobs):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "jobs": jobs,
    }


def gate(program, wl, cfg_path, out_dir, rc):
    """Correctness checks on one finished run; returns (failures, final_acc)."""
    if rc != 0:
        return [f"exit code {rc}"], None
    nets, checkpoint = program["nets"], program["checkpoint"]
    failures = []
    with open(out_dir / "metrics.csv", newline="") as f:
        rows = len(list(csv.reader(f))) - 1
    if rows != wl.rounds:
        failures.append(f"metrics.csv has {rows} rows, expected {wl.rounds}")
    summary = json.loads((out_dir / "metrics.json").read_text())
    arch = nets.ArchSpec(wl.keys["dataset.dim"], wl.knowledge_hidden, wl.keys["dataset.classes"])
    expected_bytes = wl.rounds * wl.sampled * checkpoint.checkpoint_nbytes(arch)
    if summary["total_bytes"] != expected_bytes:
        failures.append(f"total_bytes {summary['total_bytes']} != {expected_bytes}")
    final_acc = summary["final_acc"]
    net = checkpoint.load(out_dir / f"round_{wl.rounds}.fkmf")
    if net.arch != arch:
        failures.append(f"last checkpoint has arch {net.arch}, expected {arch}")
    _, test = program["runner"].build_datasets(program["config"].parse_config(cfg_path))
    reloaded_acc, _ = nets.evaluate(net, test.features, test.labels)
    if reloaded_acc != final_acc:
        failures.append(f"reloaded checkpoint scores {reloaded_acc}, metrics say {final_acc}")
    if final_acc < wl.keys["target_accuracy"]:
        failures.append(f"final_acc {final_acc} below target {wl.keys['target_accuracy']}")
    return failures, final_acc


def run_fedkemf(program, wl, seed, run_dir, traced):
    """One `fedkemf run` through cli.main, timed, gated and (optionally) traced."""
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    cfg_path = run_dir / "workload.cfg"
    cfg_path.write_text(wl.config_text(seed, out_dir))
    run = Run(traced)
    tracer = Tracer(program, ALL_TARGETS if traced else CLOCK_TARGETS, wl.keys["local_epochs"])
    log = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t_main, c_main = time.perf_counter(), time.process_time()
            try:
                rc = program["cli"].main(["run", str(cfg_path), "--jobs", str(wl.jobs)])
            except Exception:  # a crash is a failed run, recorded with its traceback
                rc = "exception"
                traceback.print_exc()
            run.run_s = time.perf_counter() - t_main
            run.cpu_s = time.process_time() - c_main
    finally:
        tracer.uninstall()
    (run_dir / "program.log").write_text(log.getvalue())

    starts = sorted(t0 for _, name, _, t0, _ in tracer.spans if name == ROUND_SPAN)
    emits = [t0 for _, name, _, t0, _ in tracer.spans if name == EMIT_SPAN]
    if starts and emits:
        run.setup_s = starts[0] - t_main
        run.periods = [b - a for a, b in zip(starts, starts[1:] + emits[:1])]
        run.round_samples = tracer.round_samples
    try:
        run.failures, run.final_acc = gate(program, wl, cfg_path, out_dir, rc)
    except Exception as e:  # a gate that cannot read the run's outputs fails the run
        run.failures = [f"gate raised {type(e).__name__}: {e}"]
    if run.failures:
        print(f"run {run_dir.name} failed: {'; '.join(run.failures)}\n{log.getvalue()}",
              file=sys.stderr)
    if traced:
        run.layers = layer_values(tracer.spans, tracer.counters, tracer.absent, wl.jobs)
        names = sorted({name for _, name, _, _, _ in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            run_dir / "spans.npz", run_id=f"{wl.name}-seed{seed}-{os.getpid()}-{run_dir.name}",
            names=np.array(names),
            spans=np.array([(sid, index[n], parent) for sid, n, parent, _, _ in tracer.spans],
                           dtype=np.int64).reshape(-1, 3),
            times=np.array([(t0, t1) for *_, t0, t1 in tracer.spans]).reshape(-1, 2),
        )
        if tracer.absent:
            print(f"absent targets (their metrics are left out): {tracer.absent}", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    return run


def enough(runs, trace, elapsed, seconds):
    """Stop once the minimums are met and the next run (pair, if traced) would overrun."""
    if elapsed >= MAX_SECONDS:
        return True
    if trace:
        traced = sum(r.traced for r in runs)
        minimum = traced >= MIN_TRACED and 2 * traced == len(runs)
    else:
        minimum = len(runs) >= MIN_RUNS and sum(len(r.periods) for r in runs) >= MIN_ROUNDS
    step = statistics.median(r.run_s for r in runs) * (2 if trace else 1)
    return minimum and elapsed + step > seconds


def end_to_end(runs):
    done = [r for r in runs if not r.traced and r.periods]
    if not done:
        return {}
    periods = [p for r in done for p in r.periods]
    rates = [s / p for r in done for s, p in zip(r.round_samples, r.periods)]
    values = {
        "setup_s": statistics.median(r.setup_s for r in done),
        "run_s": statistics.median(r.run_s for r in done),
        "cpu_s": statistics.median(r.cpu_s for r in done),
        "round_s.p50": statistics.median(periods),
        "round_s.p90": statistics.quantiles(periods, n=10)[8],
        "train_samples_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    accs = {r.final_acc for r in done if r.final_acc is not None}
    if len(accs) == 1:
        values["final_acc"] = accs.pop()
    return values


def per_layer(runs):
    """Median of each timing over traced runs; counts, which must repeat exactly."""
    traced = [r for r in runs if r.traced and r.layers is not None]
    untraced = [r for r in runs if not r.traced]
    if not traced:
        return {}, []
    values, mismatched = {}, []
    for name in traced[0].layers:
        seen = [r.layers.get(name) for r in traced]
        if METRICS[name][1]:
            if any(v != seen[0] for v in seen):
                mismatched.append(f"{name}: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    if untraced:
        values["trace.overhead_s"] = (statistics.median(r.run_s for r in traced)
                                      - statistics.median(r.run_s for r in untraced))
    return values, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_benchmark_json()
    program = load_program()
    wl = WORKLOADS[args.workload]
    result_dir = OUT / wl.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(result_dir, ignore_errors=True)
    result_dir.mkdir(parents=True)

    env = environment(wl.jobs)
    env["reference_kernel_ms_before"] = reference_kernel_ms()
    runs, t_start = [], time.perf_counter()
    while not runs or not enough(runs, args.trace, time.perf_counter() - t_start, args.seconds):
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_fedkemf(program, wl, args.seed, result_dir / f"run{len(runs)}", traced))
    env["reference_kernel_ms_after"] = reference_kernel_ms()

    failed = sum(bool(r.failures) for r in runs)
    problems = []
    accs = {r.final_acc for r in runs if r.final_acc is not None}
    if len(accs) > 1:
        problems.append(f"final_acc differs between runs at one seed: {sorted(accs)}")
    if args.trace:
        values, mismatched = per_layer(runs)
        units = {k: v[0] for k, v in METRICS.items()}
        problems += [f"count differs between traced runs: {m}" for m in mismatched]
    else:
        values, units = end_to_end(runs), END_TO_END
    for p in problems:
        print(p, file=sys.stderr)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {len(runs)} runs of {wl.rounds} rounds, "
          f"{sum(len(r.periods) for r in runs)} rounds timed, --jobs {wl.jobs}")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':44s} {failed / len(runs):.6g} ratio")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    (result_dir / "result.json").write_text(json.dumps({
        "result": result, "environment": env, "problems": problems,
        "runs": [{"traced": r.traced, "run_s": r.run_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s,
                  "round_s": r.periods, "round_samples": r.round_samples,
                  "final_acc": r.final_acc, "failures": r.failures, "layers": r.layers}
                 for r in runs],
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
