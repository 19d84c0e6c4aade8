"""Property: `fedkemf run` maps every tiny config to a documented exit code.

A config draws every key from small working values, then sets up to two
keys to one of their edge values (zero, negative, just inside or past a
bound, non-finite, huge), so each validation rule and each typed failure is
reachable while many runs still train.  Sizes stay tiny, so a run takes
milliseconds.  Only fedkemf configs draw `client_archs`, since fedavg refuses
any client arch but `knowledge_arch`; that refusal is an example of its own.

The round's internal functions do not re-check what set-up validated (one
weight of at least 1 per member, one architecture, a non-empty index list,
labels in range, a positive learning rate, a known ensemble strategy over
members of one shape).  Spies at those functions assert
these premises on every call that such runs make.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fedkemf import client, nets, server
from fedkemf.cli import main
from fedkemf.config import STRATEGIES

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
    values = {key: draw(st.sampled_from(choices)) for key, choices in VALID.items()
              if key != "client_archs"}
    # fedavg refuses any client arch but knowledge_arch; FEDAVG_ARCH_REFUSAL keeps that path
    if values["mode"] == "fedkemf":
        values["client_archs"] = draw(st.sampled_from(VALID["client_archs"]))
    for key in draw(st.lists(st.sampled_from(sorted(EDGES)), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from(EDGES[key]))
    return values


# a working fedavg config but for one client arch that differs from knowledge_arch
FEDAVG_ARCH_REFUSAL = {**{key: choices[-1] for key, choices in VALID.items()},
                       "mode": "fedavg", "knowledge_arch": "4", "client_archs": "4 | 3,2"}


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


def assert_documented(code, err, caught):
    assert code in (0, 2, 3, 4)
    assert caught == []
    if code:
        assert err.startswith("error:") and err.count("\n") == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
@example(FEDAVG_ARCH_REFUSAL)
def test_run_exits_with_a_documented_code(values):
    code, err, caught = run_config(values)
    assert_documented(code, err, caught)
    if values == FEDAVG_ARCH_REFUSAL:
        assert code == 2 and err.startswith("error: fedavg mode requires every client arch")


def premise_spies(reached):
    """Patches, at the names their callers look up, of the round's functions that leave their
    arguments unchecked: each spy asserts, whenever it is reached, the premise the run's
    set-up guarantees, adds its name to `reached` and calls through."""
    teacher_shape = []  # (split rows, classes) of the distillation under way

    def fedavg_aggregate(members, weights):
        assert len(members) == len(weights) >= 1
        assert all(isinstance(w, int) and w >= 1 for w in weights)
        assert len({m.arch for m in members}) == 1

    def average_init(members):
        assert len(members) >= 1 and len({m.arch for m in members}) == 1

    def distill(srv, members, data, round_index):
        assert round_index >= 1
        arch = srv.global_knowledge.arch
        assert len(members) >= 1 and all(m.arch == arch for m in members)
        assert arch.num_classes == data.num_classes
        rows = srv.distill_indices
        assert rows.dtype == np.int64 and rows.ndim == 1 and np.all(rows[1:] > rows[:-1])
        teacher_shape[:] = [(len(rows), data.num_classes)]

    def teacher_distributions(teacher):
        assert teacher.shape == teacher_shape[0]

    def ensemble_logits(member_logits, strategy):
        assert len(member_logits) >= 1 and strategy in STRATEGIES
        assert {np.shape(m) for m in member_logits} == {teacher_shape[0]}

    def client_update(states, knowledge_net, data, *args, **kwargs):
        assert knowledge_net.arch.num_classes == data.num_classes
        assert all(st.local_model.arch.num_classes == data.num_classes for st in states)

    def batch_iterator(indices, batch_size, epoch_seed):
        assert len(indices) >= 1

    def onehot(labels, num_classes):
        assert labels.ndim == 1 and labels.size >= 1
        assert np.issubdtype(labels.dtype, np.integer)
        assert labels.min() >= 0 and labels.max() < num_classes

    def trainer_init(trainer, members, lr, guard=None, logits="logits"):
        assert 0 < lr < math.inf

    def spy(owner, name, before=None, after=None):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            reached.add(f"{owner.__name__}.{name}")
            if before:
                before(*args, **kwargs)
            result = real(*args, **kwargs)
            if after:
                after(result)
            return result
        return mock.patch.object(owner, name, wrapper)
    return [spy(server, "fedavg_aggregate", fedavg_aggregate),
            spy(server, "average_init", average_init),
            spy(server, "distill", distill),
            spy(server, "teacher_distributions", after=teacher_distributions),
            spy(server, "ensemble_logits", ensemble_logits),
            spy(server, "client_update", client_update),
            spy(client, "batch_iterator", batch_iterator),
            spy(server, "batch_iterator", batch_iterator),
            spy(nets, "onehot", onehot),
            spy(nets.Trainer, "__init__", trainer_init)]


def run_spied(values, reached):
    with contextlib.ExitStack() as stack:
        for patch in premise_spies(reached):
            stack.enter_context(patch)
        return run_config(values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
@example(FEDAVG_ARCH_REFUSAL)
def test_round_arguments_keep_the_premises_of_the_unchecked_functions(values):
    assert_documented(*run_spied(values, set()))


def test_every_single_edge_keeps_the_premises():
    # Each edge value alone in a working config of either mode, under the spies; the random
    # configs above rarely reach training with an edge value that the config should refuse.
    reached = set()
    base = {key: choices[-1] for key, choices in VALID.items()}
    for values in ({**base, "mode": "fedkemf", "server.init": "avg_members"},
                   {**base, "mode": "fedavg", "client_archs": None}):
        assert run_spied(values, reached)[0] == 0
        for key, edges in EDGES.items():
            for edge in edges:
                assert_documented(*run_spied({**values, key: edge}, reached))
    assert reached == {f"{owner}.{name}" for owner, name in [
        ("fedkemf.server", "fedavg_aggregate"), ("fedkemf.server", "average_init"),
        ("fedkemf.server", "distill"), ("fedkemf.server", "teacher_distributions"),
        ("fedkemf.server", "ensemble_logits"),
        ("fedkemf.server", "client_update"), ("fedkemf.client", "batch_iterator"),
        ("fedkemf.server", "batch_iterator"), ("fedkemf.nets", "onehot"),
        ("Trainer", "__init__")]}
