"""tools/identity.py's artifact comparison, on hand-made run directories."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)

HEADER = "round,global_test_acc,wall_seconds\n"


def write_run(path, wall="0.125", acc="0.5", best="0.5", rounds=(1, 2, 10), extra=None):
    path.mkdir()
    (path / "metrics.csv").write_text(HEADER + f"1,{acc},{wall}\n")
    (path / "metrics.json").write_text(f'{{"best_acc": {best}, "final_acc": {acc}}}\n')
    (path / "partition.json").write_text('{"clients": [[0, 1]]}\n')
    for r in rounds:
        (path / f"round_{r}.fkmf").write_bytes(bytes([r, 0, 7]))
    for name, text in (extra or {}).items():
        (path / name).write_text(text)
    return path


def test_identical_runs_differ_only_in_timing(tmp_path):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", wall="9.875", extra={"run.cfg": "other"})
    assert identity.first_difference(a, b) is None


@pytest.mark.parametrize("change, first", [
    ({"acc": "0.75"}, "metrics.csv"),
    ({"rounds": (1, 2)}, "round_10.fkmf"),
    ({"rounds": (1, 2, 3, 10)}, "round_3.fkmf"),
    ({"best": "0.75"}, "metrics.json"),
])
def test_names_the_first_differing_artifact(tmp_path, change, first):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", **change)
    assert identity.first_difference(a, b) == first


def test_checkpoints_are_compared_byte_for_byte_in_round_order(tmp_path):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b")
    (b / "round_10.fkmf").write_bytes(b"\x0a\x00\x08")
    (b / "round_2.fkmf").write_bytes(b"\x02\x00\x08")
    (b / "partition.json").write_text('{"clients": [[1, 0]]}\n')
    assert identity.first_difference(a, b) == "partition.json"
    (b / "partition.json").write_text((a / "partition.json").read_text())
    assert identity.first_difference(a, b) == "round_2.fkmf"


def test_size_line_counts_each_trees_package_modules(tmp_path):
    trees = {"this": tmp_path / "this", "against": tmp_path / "against"}
    for tree, modules in (("this", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                          ("against", {"a.py": "x = 1\n" * 1200, "c.py": "last = 1"})):
        package = trees[tree] / "fedkemf"
        (package / "sub").mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not\ncounted\n")
        (package / "sub" / "deep.py").write_text("not\ncounted\n")
    # a last line without a newline is not counted, as `wc -l` does not count it
    assert identity.size_line(trees, "HEAD~1") == "src/fedkemf: 3 lines here, 1,200 at HEAD~1"


def test_cases_cover_shipped_configs_and_both_workloads(tmp_path):
    names = [name for name, _ in identity.cases()]
    assert names == ["blobs_fedkemf", "blobs_fedavg", "blobs_fedkemf-avg_logits",
                     "blobs_fedkemf-majority_vote", "blobs_fedkemf-warm_start",
                     "blobs_fedkemf-up_and_down", "blobs_fedkemf-2.1", "blobs_fedkemf-0",
                     "blobs_fedkemf-100000", "blobs_fedkemf-1e12", "blobs_fedavg-1e12"] + [
        f"{w}-seed{s}" for w in ("kemf-many", "avg-small") for s in (1, 2, 3)]
    texts = {name: config_text(tmp_path / "out") for name, config_text in identity.cases()}
    for text in texts.values():
        assert f"out_dir = {tmp_path / 'out'}" in text.splitlines()
    for name, line in [("blobs_fedkemf-avg_logits", "strategy = avg_logits"),
                       ("blobs_fedkemf-majority_vote", "strategy = majority_vote"),
                       ("blobs_fedkemf-warm_start", "server.init = warm_start"),
                       ("blobs_fedkemf-up_and_down", "directions = up_and_down"),
                       ("blobs_fedkemf-2.1", "payload_mb = 2.1"),
                       ("blobs_fedkemf-0", "local_epochs = 0"),
                       ("blobs_fedkemf-100000", "batch_size = 100000"),
                       ("blobs_fedkemf-1e12", "lr = 1e12"),
                       ("blobs_fedavg-1e12", "lr = 1e12")]:
        shipped = texts[name.split("-")[0]].splitlines()
        variant = texts[name].splitlines()
        # the shipped config with exactly one line changed, or one line added at the end
        assert line in variant and line not in shipped
        if len(variant) == len(shipped):
            assert [a != b for a, b in zip(shipped, variant)].count(True) == 1
        else:
            assert variant == shipped + [line]


DIVERGED = (4, "error: non-finite logits (client_id=0, round_index=1, epoch=0, batch_index=0)")


@pytest.mark.parametrize("this, against, expected", [
    ((0, ""), (0, "a warning"), "identical"),
    (DIVERGED, DIVERGED, "identical"),
    (DIVERGED, (0, ""), "FAILED  this exit 4: error: non-finite logits"),
    ((0, ""), DIVERGED, "FAILED  against exit 4: error: non-finite logits"),
    (DIVERGED, (4, "error: non-finite gradient (client_id=1, round_index=1)"),
     "FAILED  this exit 4: error: non-finite logits"),
    (DIVERGED, (5, DIVERGED[1]), "FAILED  this exit 4: error: non-finite logits"),
], ids=["both_ok", "same_failure", "this_fails", "against_fails", "other_error",
        "other_exit"])
def test_verdict_needs_the_same_exit_and_error_line(tmp_path, this, against, expected):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b")
    found = identity.verdict({"this": this, "against": against}, a, b)
    assert found.startswith(expected)


def test_verdict_of_equal_failures_compares_their_artifacts(tmp_path):
    a = write_run(tmp_path / "a", rounds=(1,))
    b = write_run(tmp_path / "b", rounds=(1, 2))
    found = identity.verdict({"this": DIVERGED, "against": DIVERGED}, a, b)
    assert found == "DIFFERS  first at round_2.fkmf"


def test_blas_core_name_is_read_from_numpys_openblas():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    name = identity.blas_core_name()
    assert isinstance(name, str) and name
    if list(libs.glob("*openblas*")):
        assert name != "unknown"


def test_blas_core_name_without_a_library_is_unknown(tmp_path):
    assert identity.blas_core_name(tmp_path) == "unknown"
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    assert identity.blas_core_name(tmp_path) == "unknown"


# A stand-in for the package: each run marks its start, waits for the other tree's run to
# start, then reports the forced OpenBLAS core and FEDKEMF_SEED on stderr.
STUB_CLI = """import os, sys, time
from pathlib import Path

def main(argv):
    cfg = Path(argv[1])
    cfg.with_suffix(".started").touch()
    deadline = time.monotonic() + 30
    while len(list(cfg.parent.glob("*.started"))) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    print("together" if len(list(cfg.parent.glob("*.started"))) == 2 else "alone",
          os.environ.get("OPENBLAS_CORETYPE", "default"), os.environ.get("FEDKEMF_SEED"),
          file=sys.stderr)
    return 3
"""


def test_run_starts_both_trees_at_once_under_the_forced_core(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.setenv("FEDKEMF_SEED", "5")
    trees = {}
    for tree in ("this", "against"):
        (tmp_path / tree / "fedkemf").mkdir(parents=True)
        (tmp_path / tree / "fedkemf" / "__init__.py").write_text("")
        (tmp_path / tree / "fedkemf" / "cli.py").write_text(STUB_CLI)
        trees[tree] = tmp_path / tree
    for coretype, shown in [(None, "default"), (identity.NEHALEM, "Nehalem")]:
        runs = tmp_path / "runs" / shown
        results = identity.run(trees, lambda out_dir: f"out_dir = {out_dir}\n", runs, coretype)
        assert results == {tree: (3, f"together {shown} None") for tree in trees}
        for tree in trees:
            assert (runs / f"{tree}.cfg").read_text() == f"out_dir = {runs / tree}\n"
            assert (runs / tree).is_dir()


def test_child_core_reads_the_forced_core():
    default = identity.child_core()
    assert default
    if "OPENBLAS_CORETYPE" not in os.environ:  # else this process runs on the forced core
        assert default == identity.blas_core_name()
    if identity.nehalem_runs():
        assert identity.child_core(identity.NEHALEM) == identity.NEHALEM


# A stand-in for the package's eval: prints the checkpoint's name, the config's text and the
# MARK file beside its module, so that two trees can print alike or differently.
STUB_EVAL_CLI = """from pathlib import Path

def main(argv):
    mark = (Path(__file__).parent / "MARK").read_text()
    print(argv[0], Path(argv[1]).name, Path(argv[2]).read_text(), mark)
    return 0
"""


def stub_trees(tmp_path, cli_text):
    """Two trees, this and against, whose fedkemf.cli is `cli_text` beside a MARK file reading
    "same"; and an empty runs directory."""
    trees = {}
    for tree in ("this", "against"):
        package = tmp_path / tree / "fedkemf"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(cli_text)
        (package / "MARK").write_text("same")
        trees[tree] = tmp_path / tree
    (tmp_path / "runs").mkdir()
    return trees, tmp_path / "runs"


def test_eval_verdict_compares_each_trees_eval_of_its_last_checkpoint(tmp_path):
    trees, runs = stub_trees(tmp_path, STUB_EVAL_CLI)
    for tree in trees:
        write_run(runs / tree, rounds=(1, 2, 10, 9))
        (runs / f"{tree}.cfg").write_text("cfg")
    assert identity.eval_verdict(trees, runs) == "eval identical"
    (trees["against"] / "fedkemf" / "MARK").write_text("other")
    assert identity.eval_verdict(trees, runs) == (
        "eval DIFFERS  this exit 0: 'eval round_10.fkmf cfg same'; "
        "against exit 0: 'eval round_10.fkmf cfg other'")


# A stand-in for the package's partition: prints the command, the config's text and the
# MARK file beside its module, and exits with the status the config's text names.
STUB_PARTITION_CLI = """from pathlib import Path

def main(argv):
    text = Path(argv[1]).read_text()
    print(argv[0], text, (Path(__file__).parent / "MARK").read_text())
    return int(text.split()[-1])
"""


def test_partition_verdict_compares_each_trees_partition_of_its_config(tmp_path):
    trees, runs = stub_trees(tmp_path, STUB_PARTITION_CLI)
    for tree in trees:
        (runs / f"{tree}.cfg").write_text("cfg 0")
    assert identity.partition_verdict(trees, runs) == "partition identical"
    (runs / "against.cfg").write_text("cfg 2")
    assert identity.partition_verdict(trees, runs) == (
        "partition DIFFERS  this exit 0: 'partition cfg 0 same'; "
        "against exit 2: 'partition cfg 2 same'")
    (runs / "against.cfg").write_text("cfg 0")
    (trees["against"] / "fedkemf" / "MARK").write_text("other")
    assert identity.partition_verdict(trees, runs) == (
        "partition DIFFERS  this exit 0: 'partition cfg 0 same'; "
        "against exit 0: 'partition cfg 0 other'")
