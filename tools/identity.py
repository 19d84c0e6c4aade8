"""Byte-identity check: run this tree and a git revision on the same configs, compare artifacts.

Run from anywhere in the repository:

    python3 tools/identity.py --against HEAD~1 [--workdir DIR]

The cases are the shipped configs/blobs_fedkemf.cfg and configs/blobs_fedavg.cfg;
blobs_fedkemf with `strategy = avg_logits`, with `strategy = majority_vote` and
with `server.init = warm_start`, the ensemble and init paths no other case takes;
blobs_fedkemf with `directions = up_and_down` and with `payload_mb = 2.1`, the
byte-ledger paths no other case takes; blobs_fedkemf with `local_epochs = 0`,
where the clients draw no batch orders but distillation does; blobs_fedkemf
with `batch_size = 100000`, where every client and the distillation split
score only a partial batch; both shipped configs with `lr = 1e12`,
which diverge (exit 4); and the benchmark workloads kemf-many and avg-small at
seeds 1-3, whose configs are generated from bench/workloads.py (read, never
edited).  Both trees run on the same config text, taken from this tree.  The
revision is exported with `git archive` into a temporary directory under DIR
(default: the system's temp directory), which is removed at the end; this tree
runs from its working files, uncommitted changes included.  Each run is a fresh
`fedkemf run` process with FEDKEMF_SEED unset.

Every case runs in two passes, since checkpoints differ between OpenBLAS cores:
first on the host's default core (OPENBLAS_CORETYPE unset), then with
OPENBLAS_CORETYPE=Nehalem, an SSE4.2 kernel every x86-64 host can run; the
Nehalem pass is skipped, and the summary says so, off x86-64 or without numpy's
OpenBLAS.  The two trees' runs of a case start together.

Compared per case: the exit status and, when a run fails, its last stderr line;
then metrics.csv without its wall_seconds column, metrics.json, partition.json
and every round_*.fkmf checkpoint the runs wrote.  A case fails when either run
fails and the two failures differ.  When both runs exit 0, each tree then runs
`fedkemf eval` on its own last checkpoint and config, the two evals at once, and
the case fails unless their exit statuses and stdout are equal; no `run` reaches
nets.evaluate, so this is the only check of it.  Every case also runs
`fedkemf partition` on each tree's config, the two at once, and fails unless
their exit statuses and stdout are equal; no `run` reaches
runner.partition_report.  One line per case names the first differing file,
then the eval's and the partition's verdicts.  The summary names, per pass, the
OpenBLAS core a child process reports and how many evals and partition outputs
matched, and ends with the line count of src/fedkemf/*.py in each tree.
Exit status 0 when every case is identical under every pass, 1 otherwise.
"""

import argparse
import csv
import ctypes
import importlib.util
import io
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("configs/blobs_fedkemf.cfg", "configs/blobs_fedavg.cfg")
# (shipped config, key, value): the config with one setting changed or added
VARIANTS = (("configs/blobs_fedkemf.cfg", "strategy", "avg_logits"),
            ("configs/blobs_fedkemf.cfg", "strategy", "majority_vote"),
            ("configs/blobs_fedkemf.cfg", "server.init", "warm_start"),
            ("configs/blobs_fedkemf.cfg", "directions", "up_and_down"),
            ("configs/blobs_fedkemf.cfg", "payload_mb", "2.1"),
            ("configs/blobs_fedkemf.cfg", "local_epochs", "0"),
            ("configs/blobs_fedkemf.cfg", "batch_size", "100000"),
            ("configs/blobs_fedkemf.cfg", "lr", "1e12"),
            ("configs/blobs_fedavg.cfg", "lr", "1e12"))
WORKLOADS = ("kemf-many", "avg-small")
SEEDS = (1, 2, 3)
TIMING_COLUMN = "wall_seconds"
CLI = ("import sys; sys.path.insert(0, sys.argv[1]); from fedkemf.cli import main; "
       "sys.exit(main(sys.argv[2:]))")
CORE = ("import sys; sys.path.insert(0, sys.argv[1]); from identity import blas_core_name; "
        "print(blas_core_name())")
NEHALEM = "Nehalem"


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _setting(text, key, value):
    """`text` with the value of its one `key = ...` line replaced, or with that line appended
    when it has none.  A mistyped key is appended too, and both trees reject it (exit 2)."""
    text, count = re.subn(rf"(?m)^{re.escape(key)}\s*=.*$", f"{key} = {value}", text)
    if count > 1:
        raise ValueError(f"expected at most one {key} line, found {count}")
    if count == 0:
        text = f"{text.rstrip()}\n{key} = {value}\n"
    return text


def cases():
    """[(name, config text for an out_dir)] in report order."""
    found = []
    shipped = [(Path(path).stem, (ROOT / path).read_text()) for path in SHIPPED]
    for path, key, value in VARIANTS:
        shipped.append((f"{Path(path).stem}-{value}",
                        _setting((ROOT / path).read_text(), key, value)))
    for name, text in shipped:
        found.append((name, lambda out_dir, text=text: _setting(text, "out_dir", out_dir)))
    workloads = _workloads()
    for name in WORKLOADS:
        for seed in SEEDS:
            found.append((f"{name}-seed{seed}", lambda out_dir, w=workloads[name], seed=seed:
                          w.config_text(seed, out_dir)))
    return found


def _metrics_rows(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    keep = [i for i, col in enumerate(rows[0]) if col != TIMING_COLUMN] if rows else []
    return [[row[i] for i in keep] for row in rows]


def _artifact_order(name):
    if name == "metrics.csv":
        return (0, 0)
    if name == "metrics.json":
        return (0, 1)
    if name == "partition.json":
        return (1, 0)
    match = re.fullmatch(r"round_(\d+)\.fkmf", name)
    return (2, int(match.group(1))) if match else None


def first_difference(a: Path, b: Path):
    """The first compared artifact that differs between out_dirs a and b (or is missing
    from one of them), or None when all are identical."""
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    for name in sorted((n for n in names if _artifact_order(n)), key=_artifact_order):
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            return name
        if name == "metrics.csv":
            same = _metrics_rows(pa) == _metrics_rows(pb)
        else:
            same = pa.read_bytes() == pb.read_bytes()
        if not same:
            return name
    return None


def verdict(results, a: Path, b: Path):
    """"identical", "DIFFERS ..." or "FAILED ..." for one case, from each tree's
    (exit status, last stderr line) in `results` and its out_dir, a and b."""
    failed = {tree: r for tree, r in results.items() if r[0] != 0}
    if failed and len(set(results.values())) > 1:
        return "FAILED  " + "; ".join(
            f"{tree} exit {code}: {err}" for tree, (code, err) in failed.items())
    diff = first_difference(a, b)
    return "identical" if diff is None else f"DIFFERS  first at {diff}"


def blas_core_name(libs=None):
    """The OpenBLAS core this interpreter's numpy runs on (e.g. SkylakeX), read through ctypes
    from the scipy-openblas library in `libs` (default: numpy's numpy.libs), or "unknown"."""
    if libs is None:
        import numpy
        libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(Path(libs).glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not a loadable library, or not this build
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        name = corename()
        if name:
            return name.decode("ascii", errors="replace")
    return "unknown"


def nehalem_runs():
    """Whether OPENBLAS_CORETYPE=Nehalem can be forced here: x86-64 with numpy's OpenBLAS."""
    return platform.machine().lower() in ("x86_64", "amd64") and blas_core_name() != "unknown"


def _env(coretype):
    """The environment of a child: FEDKEMF_SEED unset, and OPENBLAS_CORETYPE set to
    `coretype`, or unset for the host's default core when it is None."""
    env = {k: v for k, v in os.environ.items() if k not in ("FEDKEMF_SEED", "OPENBLAS_CORETYPE")}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def child_core(coretype=None):
    """The OpenBLAS core a child process runs on under `coretype` (None: the default)."""
    child = subprocess.run([sys.executable, "-c", CORE, str(Path(__file__).resolve().parent)],
                           env=_env(coretype), check=True, capture_output=True, text=True)
    return child.stdout.strip()


def size_line(trees, rev):
    """The summary's last line: the lines of each tree's fedkemf/*.py modules, as `wc -l`
    counts them, in this tree and in `rev`."""
    here, there = (sum(p.read_bytes().count(b"\n") for p in (trees[t] / "fedkemf").glob("*.py"))
                   for t in ("this", "against"))
    return f"src/fedkemf: {here:,} lines here, {there:,} at {rev}"


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev, dest: Path):
    """Extract the files of `rev` into dest; returns its abbreviated commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit[:12]


def _cli(trees, args, runs: Path, coretype):
    """Run `fedkemf <args[tree]>` on each tree's package at once, in `runs`, under the OpenBLAS
    `coretype` (None: the default); returns {tree: (exit status, stdout, stderr)}."""
    procs = {tree: subprocess.Popen(
        [sys.executable, "-c", CLI, str(src), *args[tree]], env=_env(coretype), cwd=runs,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for tree, src in trees.items()}
    results = {}
    for tree, proc in procs.items():
        out, err = proc.communicate()
        results[tree] = proc.returncode, out, err
    return results


def run(trees, config_text, runs: Path, coretype=None):
    """Run one config on each tree's package at once, tree t writing to runs/t with its config
    in runs/t.cfg; returns {tree: (exit status, last stderr line)}."""
    args = {}
    for tree in trees:
        out_dir = runs / tree
        out_dir.mkdir(parents=True)
        cfg = out_dir.with_suffix(".cfg")
        cfg.write_text(config_text(out_dir))
        args[tree] = ["run", str(cfg)]
    return {tree: (code, (err.strip().splitlines() or [""])[-1])
            for tree, (code, _, err) in _cli(trees, args, runs, coretype).items()}


def _printed_verdict(command, trees, args, runs: Path, coretype):
    """Run `fedkemf <args[tree]>` on each tree at once: "<command> identical" when both give
    the same exit status and stdout, else "<command> DIFFERS" and what each printed."""
    printed = {tree: (code, out)
               for tree, (code, out, _) in _cli(trees, args, runs, coretype).items()}
    if len(set(printed.values())) == 1:
        return f"{command} identical"
    return f"{command} DIFFERS  " + "; ".join(f"{tree} exit {code}: {out.strip()!r}"
                                              for tree, (code, out) in printed.items())


def eval_verdict(trees, runs: Path, coretype=None):
    """`fedkemf eval` of each tree's last checkpoint in runs/t on its config runs/t.cfg, the
    trees at once, compared by _printed_verdict."""
    args = {}
    for tree in trees:
        last = max((runs / tree).glob("round_*.fkmf"), key=lambda p: _artifact_order(p.name))
        args[tree] = ["eval", str(last), str((runs / tree).with_suffix(".cfg"))]
    return _printed_verdict("eval", trees, args, runs, coretype)


def partition_verdict(trees, runs: Path, coretype=None):
    """`fedkemf partition` of each tree's config runs/t.cfg, the trees at once, compared by
    _printed_verdict."""
    args = {tree: ["partition", str((runs / tree).with_suffix(".cfg"))] for tree in trees}
    return _printed_verdict("partition", trees, args, runs, coretype)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--workdir", default=None,
                        help="directory for the temporary trees and runs")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="fedkemf-identity-", dir=args.workdir) as tmp:
        tmp = Path(tmp)
        commit = export(args.against, tmp / "against")
        trees = {"this": ROOT / "src", "against": tmp / "against" / "src"}
        print(f"working tree against {args.against} ({commit})")
        summary, differing, forced = [], 0, nehalem_runs()
        for coretype in (None, NEHALEM) if forced else (None,):
            named = "default core" if coretype is None else f"OPENBLAS_CORETYPE={coretype}"
            core = child_core(coretype)
            print(f"-- {named}, OpenBLAS core {core}")
            same, total, evals, evals_same, partitions_same = 0, len(cases()), 0, 0, 0
            for name, config_text in cases():
                runs = tmp / "runs" / (coretype or "default") / name
                results = run(trees, config_text, runs, coretype)
                found = verdict(results, runs / "this", runs / "against")
                ok = found == "identical"
                if all(code == 0 for code, _ in results.values()):
                    evaluated = eval_verdict(trees, runs, coretype)
                    evals += 1
                    evals_same += evaluated == "eval identical"
                    ok = ok and evaluated == "eval identical"
                    found += f"; {evaluated}"
                partitioned = partition_verdict(trees, runs, coretype)
                partitions_same += partitioned == "partition identical"
                ok = ok and partitioned == "partition identical"
                same += ok
                print(f"{name:<27} {found}; {partitioned}", flush=True)
            differing += total - same
            summary.append(f"{same} of {total} cases byte-identical under {named} "
                           f"(OpenBLAS core {core}); eval output identical in "
                           f"{evals_same} of {evals}, partition output in "
                           f"{partitions_same} of {total}")
        if not forced:
            summary.append(f"{NEHALEM} pass skipped: needs x86-64 and numpy's OpenBLAS")
        summary.append(size_line(trees, args.against))
        print("\n".join(summary))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
