"""Experiment driver: builds data, clients and server, runs the round loop."""

import glob
import os
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint, nets
from .client import ClientState
from .config import ExperimentConfig
from .costs import MB, RoundRecord, WireAudit, emit_metrics, write_metrics_row
from .data import Dataset, dirichlet_partition, label_histogram, load_idx, synth_blobs
from .errors import ConfigError, DataError, ShapeMismatchError
from .seeding import (
    SALT_CLIENT, SALT_DATA, SALT_GLOBAL_INIT, SALT_SERVER_SPLIT, SALT_TEST_DATA, stream,
)
from .server import ServerState, run_round


@dataclass
class RunResult:
    records: list
    summary: dict
    initial_accuracy: float
    server: ServerState
    clients: list
    audit: WireAudit


def build_datasets(config: ExperimentConfig):
    """Training and held-out test datasets per the config's dataset block."""
    if config.dataset_kind == "synth":
        train = synth_blobs(
            config.synth_classes, config.synth_per_class, config.synth_dim,
            config.synth_spread, stream(config.experiment_seed, SALT_DATA),
        )
        test = synth_blobs(
            config.synth_classes, config.synth_test_per_class, config.synth_dim,
            config.synth_spread, stream(config.experiment_seed, SALT_TEST_DATA),
        )
        return train, test
    train = load_idx(config.idx_train_images, config.idx_train_labels)
    test = load_idx(config.idx_test_images, config.idx_test_labels)
    if train.num_classes < 2:
        raise DataError(f"{config.idx_train_labels}: labels name 1 class, need at least 2")
    if test.num_classes > train.num_classes:
        raise DataError(f"{config.idx_test_labels}: labels name {test.num_classes} classes, "
                        f"the train labels only {train.num_classes}")
    if test.dim != train.dim:
        raise ShapeMismatchError(f"test images have {test.dim} features, train images {train.dim}")
    return train, test


def build_partition(config: ExperimentConfig, data: Dataset):
    """Reserve the server's distillation split, then Dirichlet-partition the rest."""
    order = stream(config.experiment_seed, SALT_SERVER_SPLIT).permutation(len(data))
    n_server = int(len(data) * config.server_fraction)
    server_indices = np.sort(order[:n_server])
    partition = dirichlet_partition(
        data, config.num_clients, config.alpha, seed=config.experiment_seed,
        min_per_client=config.min_per_client, indices=order[n_server:],
    )
    return server_indices, partition


def build_states(config: ExperimentConfig, data: Dataset, server_indices, partition):
    """Instantiate client states (round-robin heterogeneous archs) and the server.

    Client cid permutes its shard into its val split and train split, then
    draws its init, from stream(experiment_seed, SALT_CLIENT, cid).
    """
    knowledge_arch = nets.ArchSpec(data.dim, config.knowledge_arch, data.num_classes)
    archs = [nets.ArchSpec(data.dim, hidden, data.num_classes) for hidden in config.client_archs]
    clients = []
    for cid, shard in enumerate(partition.client_indices):
        rng = stream(config.experiment_seed, SALT_CLIENT, cid)
        order = rng.permutation(shard)
        n_val = int(len(order) * config.val_fraction)
        clients.append(ClientState(
            client_id=cid,
            local_model=nets.init_network(archs[cid % len(archs)], rng),
            train_indices=order[n_val:],
            val_indices=order[:n_val],
        ))
    server = ServerState(
        global_knowledge=nets.init_network(
            knowledge_arch, stream(config.experiment_seed, SALT_GLOBAL_INIT)
        ),
        distill_indices=server_indices,
        config=config,
    )
    return clients, server


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run all rounds, writing metrics, checkpoints, and the partition map.  The round_*.fkmf
    and metrics files already in out_dir are removed first.  Each round's metrics.csv row is
    on disk when the round ends; metrics.json follows the last round.  `jobs` has no effect;
    it stays in this public signature because acceptance criterion 8 calls
    run_experiment(cfg, jobs=4)."""
    data, test = build_datasets(config)
    server_indices, partition = build_partition(config, data)
    if config.mode == "fedkemf" and config.distill_epochs and not len(server_indices):
        raise ConfigError(
            f"server_fraction {config.server_fraction} leaves no distillation samples"
        )
    clients, server = build_states(config, data, server_indices, partition)

    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, "metrics.csv")
    # out_dir's checkpoints and metrics are this run's own, also after a crash: drop any
    # earlier run's first
    for pattern in ("round_*.fkmf", "metrics.csv", "metrics.json"):
        for stale in glob.glob(os.path.join(glob.escape(config.out_dir), pattern)):
            os.remove(stale)
    with open(os.path.join(config.out_dir, "partition.json"), "w") as f:
        f.write(partition.to_json())
        f.write("\n")

    payload = None if config.payload_mb is None else int(config.payload_mb * MB)
    audit = WireAudit(payload, config.directions)

    initial_accuracy = nets.accuracy(server.global_knowledge, test.features, test.labels,
                                     round_index=0)
    records = []
    for _ in range(config.rounds):
        t0 = time.perf_counter()
        stats = run_round(server, clients, data, audit=audit)
        wall = time.perf_counter() - t0
        acc = nets.accuracy(server.global_knowledge, test.features, test.labels,
                            round_index=server.round)
        checkpoint.save(server.global_knowledge,
                        os.path.join(config.out_dir, f"round_{server.round}.fkmf"))
        records.append(RoundRecord(
            round=server.round,
            sampled_clients=len(stats["sampled"]),
            global_test_accuracy=acc,
            mean_client_val_accuracy=stats["mean_client_val_accuracy"],
            mean_train_loss=stats["mean_train_loss"],
            distill_loss=stats["distill_loss"],
            cumulative_bytes=audit.total_bytes(),
            wall_seconds=wall,
        ))
        write_metrics_row(csv_path, records[-1], first=len(records) == 1)

    summary = emit_metrics(records, os.path.join(config.out_dir, "metrics.json"),
                           config.target_accuracy, initial_accuracy)
    return RunResult(records, summary, initial_accuracy, server, clients, audit)


def partition_report(config: ExperimentConfig) -> dict:
    """Partition-only artifact: map plus per-client label histograms."""
    data, _ = build_datasets(config)
    server_indices, partition = build_partition(config, data)
    return {
        "alpha": partition.alpha,
        "seed": partition.seed,
        "server_indices": server_indices.tolist(),
        "clients": [shard.tolist() for shard in partition.client_indices],
        "histograms": [
            label_histogram(data, shard).tolist()
            for shard in partition.client_indices
        ],
    }
