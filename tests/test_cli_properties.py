"""Property: `fedkemf run` maps every tiny config to a documented exit code.

A config draws every key from small working values, then sets up to two
keys to one of their edge values (zero, negative, just inside or past a
bound, non-finite, huge), so each validation rule and each typed failure is
reachable while many runs still train.  Sizes stay tiny, so a run takes
milliseconds.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from fedkemf.cli import main

NAN, INF = math.nan, math.inf

# key -> working values; None leaves the key out of the config file
VALID = {
    "mode": ["fedkemf", "fedavg"],
    "num_clients": [1, 2, 4],
    "sample_ratio": [0.5, 1.0],
    "rounds": [1, 2],
    "alpha": [0.5, 100.0],
    "local_epochs": [None, 1, 2],
    "batch_size": [4, 16],
    "lr": [0.1],
    "knowledge_arch": ["-", "4", "3,2"],
    "client_archs": [None, "4", "4 | 3,2"],
    "strategy": [None, "max_logits", "avg_logits", "majority_vote"],
    "server.init": [None, "avg_members", "warm_start"],
    "distill_epochs": [None, 0, 1],
    "distill_lr": [None, 0.05],
    "experiment_seed": [0, 7],
    "target_accuracy": [None, 0.5],
    "min_per_client": [1, 2],
    "server_fraction": [None, 0.2],
    "val_fraction": [None, 0.0, 0.3],
    "payload_mb": [None, 2.1],
    "directions": [None, "upload_only", "up_and_down"],
    "dataset.kind": ["synth"],
    "dataset.classes": [2, 3],
    "dataset.per_class": [8, 12],
    "dataset.dim": [1, 3],
    "dataset.spread": [1.0],
    "dataset.test_per_class": [None, 1, 4],
}

EDGES = {
    "num_clients": [-1, 0, 30],
    "sample_ratio": [-0.5, 0.0, 1e-9, 1.5, NAN],
    "rounds": [-1, 0],
    "alpha": [-1.0, 0.0, 1e-300, 1e300, NAN, INF],
    "local_epochs": [-1, 0],
    "batch_size": [-1, 0, 1, 10 ** 9, 2 ** 60],
    "lr": [-0.1, 0.0, 1e-300, 1e300, NAN, INF],
    "distill_epochs": [-1],
    "distill_lr": [-0.1, 0.0, 1e-300, 1e300, NAN, INF],
    "experiment_seed": [-1, 2 ** 64],
    "target_accuracy": [-1.0, 0.0, 1.0, 2.0, NAN],
    "min_per_client": [-1, 0, 1000],
    "server_fraction": [-0.1, 0.0, 0.99, 1.0, NAN],
    "val_fraction": [-0.1, 0.99, 1.0, NAN],
    "payload_mb": [-1.0, 0.0, 1e300, NAN, INF],
    "dataset.classes": [-1, 0, 1],
    "dataset.per_class": [-1, 0, 1],
    "dataset.dim": [-1, 0],
    "dataset.spread": [-1.0, 0.0, 1e-300, 1e300, NAN, INF],
    "dataset.test_per_class": [-1, 0],
}


@st.composite
def configs(draw):
    values = {key: draw(st.sampled_from(choices)) for key, choices in VALID.items()}
    for key in draw(st.lists(st.sampled_from(sorted(EDGES)), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from(EDGES[key]))
    return values


def run_config(values):
    """`main(["run", cfg])` on a config with `values`: (exit code, stderr, warnings)."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = {k: v for k, v in values.items() if v is not None}
        lines["out_dir"] = str(Path(tmp) / "out")
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(cfg)])
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
def test_run_exits_with_a_documented_code(values):
    code, err, caught = run_config(values)
    assert code in (0, 2, 3, 4)
    assert caught == []
    if code:
        assert err.startswith("error:") and err.count("\n") == 1
