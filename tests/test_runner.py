import csv
import functools
import hashlib
import json

import numpy as np
import pytest

from fedkemf import checkpoint, nets, runner
from fedkemf.config import ExperimentConfig
from fedkemf.data import PartitionMap
from fedkemf.errors import DivergenceError, InfeasiblePartitionError
from fedkemf.runner import build_datasets, run_experiment
from fedkemf.seeding import SALT_CLIENT, stream


def make_config(tmp_path, tag="run", **overrides):
    values = dict(
        mode="fedkemf", num_clients=4, sample_ratio=0.5, rounds=3, alpha=1.0,
        batch_size=16, lr=0.1, knowledge_arch=(8,),
        client_archs=[(8,), (16,), (16, 8)],
        experiment_seed=11, out_dir=str(tmp_path / tag), dataset_kind="synth",
        synth_classes=3, synth_per_class=80, synth_dim=4, synth_spread=1.0,
        local_epochs=2, min_per_client=5,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def read_csv_without_wall(path):
    """CSV rows minus the wall-clock column, which is not deterministic."""
    with open(path) as f:
        return [row[:-1] for row in csv.reader(f)]


def test_partition_file_and_disjoint_server_split(tmp_path):
    cfg = make_config(tmp_path, tag="split")
    result = run_experiment(cfg)
    written = json.loads((tmp_path / "split" / "partition.json").read_text())
    client_flat = set(i for shard in written["clients"] for i in shard)
    server_set = set(result.server.distill_indices)
    data, _ = build_datasets(cfg)
    assert client_flat.isdisjoint(server_set)
    assert client_flat | server_set == set(range(len(data)))


def test_wire_audit_only_knowledge_arch_crosses(tmp_path):
    cfg = make_config(tmp_path, tag="audit")
    result = run_experiment(cfg)
    knowledge_arch = result.server.global_knowledge.arch
    archs = result.audit.crossing_archs()
    assert archs and all(a == knowledge_arch for a in archs)
    # local models are heterogeneous, so none of them may appear
    local_archs = {c.local_model.arch for c in result.clients}
    assert any(a != knowledge_arch for a in local_archs)


def test_cumulative_bytes_match_audit_exactly(tmp_path):
    cfg = make_config(tmp_path, tag="bytes")
    result = run_experiment(cfg)
    ck = checkpoint.checkpoint_nbytes(result.server.global_knowledge.arch)
    expected = sum(r.sampled_clients * ck for r in result.records)
    assert result.records[-1].cumulative_bytes == expected
    assert result.audit.uploaded_bytes() == expected


def test_payload_override(tmp_path):
    for directions, crossings in (("upload_only", 4), ("up_and_down", 8)):
        cfg = make_config(tmp_path, tag=directions, payload_mb=2.1, rounds=1, sample_ratio=1.0,
                          directions=directions)
        result = run_experiment(cfg)
        assert result.records[0].cumulative_bytes == crossings * int(2.1 * 1024 ** 2)


def test_run_determinism_and_parallel_equivalence(tmp_path):
    base = read_csv_without_wall(run_and_csv(tmp_path, "a", jobs=1))
    again = read_csv_without_wall(run_and_csv(tmp_path, "b", jobs=1))
    parallel = read_csv_without_wall(run_and_csv(tmp_path, "c", jobs=4))
    assert base == again == parallel


def run_and_csv(tmp_path, tag, jobs):
    cfg = make_config(tmp_path, tag=tag)
    run_experiment(cfg, jobs=jobs)
    return tmp_path / tag / "metrics.csv"


def test_checkpoints_reload(tmp_path):
    cfg = make_config(tmp_path, tag="ck", rounds=2)
    result = run_experiment(cfg)
    net = checkpoint.load(tmp_path / "ck" / "round_2.fkmf")
    assert np.array_equal(net.params, result.server.global_knowledge.params)


def test_reused_out_dir_keeps_only_this_runs_checkpoints(tmp_path):
    run_experiment(make_config(tmp_path, tag="reused", rounds=30, local_epochs=1))
    result = run_experiment(make_config(tmp_path, tag="reused", rounds=3))
    assert sorted(p.name for p in (tmp_path / "reused").glob("round_*.fkmf")) == [
        "round_1.fkmf", "round_2.fkmf", "round_3.fkmf"]
    net = checkpoint.load(tmp_path / "reused" / "round_3.fkmf")
    assert np.array_equal(net.params, result.server.global_knowledge.params)


def test_summary_contents(tmp_path):
    cfg = make_config(tmp_path, tag="summary", target_accuracy=0.5)
    result = run_experiment(cfg)
    sidecar = json.loads((tmp_path / "summary" / "metrics.json").read_text())
    assert sidecar["final_acc"] == result.records[-1].global_test_accuracy
    assert "initial_acc" in sidecar
    assert sidecar["total_bytes"] == result.records[-1].cumulative_bytes


def test_multi_model_run_reports_client_accuracy(tmp_path):
    cfg = make_config(tmp_path, tag="multi", num_clients=9, rounds=2,
                      client_archs=[(32,), (64,), (64, 32)], synth_per_class=200)
    result = run_experiment(cfg)
    # round-robin assignment over the three architectures
    hidden = [c.local_model.arch.hidden_dims for c in result.clients]
    assert hidden == [(32,), (64,), (64, 32)] * 3
    assert 0.0 <= result.records[-1].mean_client_val_accuracy <= 1.0


def test_fedavg_mode_runs(tmp_path):
    cfg = make_config(tmp_path, tag="fedavg", mode="fedavg", client_archs=[(8,)])
    result = run_experiment(cfg)
    assert result.records[-1].distill_loss == 0.0
    assert len(result.records) == 3


def test_fedavg_clients_hold_the_final_aggregate(tmp_path):
    cfg = make_config(tmp_path, tag="deployed", mode="fedavg", client_archs=[(8,)],
                      sample_ratio=0.25)
    result = run_experiment(cfg)
    final = checkpoint.load(tmp_path / "deployed" / "round_3.fkmf")
    for st in result.clients:
        assert st.local_model is result.server.global_knowledge
        assert np.array_equal(st.local_model.params, final.params)
        assert st.val_accuracy == st.accuracy(final, build_datasets(cfg)[0])


def test_metrics_rows_survive_a_later_divergence(tmp_path, monkeypatch):
    """Each round's metrics.csv row is on disk when the round ends: a run that diverges in
    round 3 keeps the header and rows 1-2, and writes no metrics.json."""
    calls = []

    def diverging(*args, _run_round=runner.run_round, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DivergenceError("non-finite logits")
        return _run_round(*args, **kwargs)
    monkeypatch.setattr(runner, "run_round", diverging)
    with pytest.raises(DivergenceError):
        run_experiment(make_config(tmp_path, tag="crash", rounds=5))
    rows = read_csv_without_wall(tmp_path / "crash" / "metrics.csv")
    reference = read_csv_without_wall(run_and_csv(tmp_path, "whole", jobs=1))
    assert len(rows) == 3 and rows == reference[:3]
    assert not (tmp_path / "crash" / "metrics.json").exists()


def test_partition_json_pinned_after_redraws(tmp_path, monkeypatch):
    # 200 clients at alpha 0.3: seed 6 needs 7 Dirichlet draws before every
    # client holds 10 samples.  The digest pins the map the keyed streams
    # produce for it.
    cfg = make_config(tmp_path, tag="pinned", num_clients=200, sample_ratio=0.05, rounds=1,
                      alpha=0.3, local_epochs=1, distill_epochs=1, knowledge_arch=(4,),
                      client_archs=[(4,)], experiment_seed=6, synth_classes=10,
                      synth_per_class=1500, synth_dim=16, min_per_client=10)
    run_experiment(cfg)
    pinned = (tmp_path / "pinned" / "partition.json").read_bytes()
    assert hashlib.sha256(pinned).hexdigest() == (
        "dae9af319762ce0cca621d8a05739dcfa0b62c6be625b361a1fc6d679ba44f39")
    data, _ = build_datasets(cfg)
    monkeypatch.setattr(runner, "dirichlet_partition",
                        functools.partial(runner.dirichlet_partition, max_attempts=6))
    with pytest.raises(InfeasiblePartitionError):
        runner.build_partition(cfg, data)


def test_client_splits_are_int64_index_arrays(tmp_path):
    cfg = make_config(tmp_path, val_fraction=0.2)
    data, _ = build_datasets(cfg)
    server_indices, partition = runner.build_partition(cfg, data)
    clients, _ = runner.build_states(cfg, data, server_indices, partition)
    for st, shard in zip(clients, partition.client_indices):
        for idx in (st.train_indices, st.val_indices):
            assert isinstance(idx, np.ndarray) and idx.dtype == np.int64
        assert len(st.val_indices) == int(len(shard) * 0.2)
        assert sorted(np.concatenate([st.val_indices, st.train_indices]).tolist()) == sorted(shard)


def test_one_row_shard_has_no_val_split_and_is_scored_on_its_train_row(tmp_path):
    cfg = make_config(tmp_path, num_clients=2, val_fraction=0.9)
    data, _ = build_datasets(cfg)
    partition = PartitionMap([np.array([3]), np.arange(4, 14)], cfg.alpha, cfg.experiment_seed)
    clients, _ = runner.build_states(cfg, data, np.arange(3), partition)
    one, other = clients
    assert one.val_indices.tolist() == [] and one.train_indices.tolist() == [3]
    assert len(other.val_indices) == 9 and len(other.train_indices) == 1
    assert one.eval_indices.tolist() == [3]
    net = one.local_model
    assert one.accuracy(net, data) == nets.accuracy(net, data.features[[3]], data.labels[[3]])


def test_build_states_draws_split_then_init_from_one_stream_per_client(tmp_path):
    num_clients = 16
    cfg = make_config(tmp_path, num_clients=num_clients, val_fraction=0.2, experiment_seed=-3,
                      synth_per_class=200, min_per_client=4)
    data, _ = build_datasets(cfg)
    server_indices, partition = runner.build_partition(cfg, data)
    clients, _ = runner.build_states(cfg, data, server_indices, partition)
    assert len(clients) == num_clients
    for cid, (st, shard) in enumerate(zip(clients, partition.client_indices)):
        rng = stream(cfg.experiment_seed, SALT_CLIENT, cid)
        order = rng.permutation(np.asarray(shard, dtype=np.int64))
        n_val = int(len(order) * cfg.val_fraction)
        hidden = cfg.client_archs[cid % len(cfg.client_archs)]
        model = nets.init_network(nets.ArchSpec(data.dim, hidden, data.num_classes), rng)
        assert st.client_id == cid and st.local_model.arch == model.arch
        assert st.local_model.params.tobytes() == model.params.tobytes()
        assert st.val_indices.tolist() == order[:n_val].tolist()
        assert st.train_indices.tolist() == order[n_val:].tolist()
