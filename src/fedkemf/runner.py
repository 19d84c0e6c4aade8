"""Experiment driver: builds data, clients and server, runs the round loop."""

import os
import time
from dataclasses import dataclass

import numpy as np

from . import checkpoint, nets
from .client import ClientState
from .config import ExperimentConfig
from .costs import MB, CostModel, RoundRecord, WireAudit, emit_metrics
from .data import Dataset, dirichlet_partition, label_histogram, load_idx, synth_blobs
from .errors import ConfigError
from .seeding import (
    SALT_CLIENT_INIT, SALT_DATA, SALT_GLOBAL_INIT, SALT_PARTITION, SALT_SERVER_SPLIT,
    SALT_TEST_DATA, SALT_VAL_SPLIT, derive_seed,
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
    partition: object
    out_dir: str


def build_datasets(config: ExperimentConfig):
    """Training and held-out test datasets per the config's dataset block."""
    if config.dataset_kind == "synth":
        train = synth_blobs(
            config.synth_classes, config.synth_per_class, config.synth_dim,
            config.synth_spread, derive_seed(config.experiment_seed, SALT_DATA),
        )
        test = synth_blobs(
            config.synth_classes, config.synth_test_per_class, config.synth_dim,
            config.synth_spread, derive_seed(config.experiment_seed, SALT_TEST_DATA),
        )
        return train, test
    train = load_idx(config.idx_train_images, config.idx_train_labels, name="train")
    test = load_idx(config.idx_test_images, config.idx_test_labels, name="test")
    return train, test


def build_partition(config: ExperimentConfig, data: Dataset):
    """Reserve the server's distillation split, then Dirichlet-partition the rest."""
    rng = np.random.default_rng(derive_seed(config.experiment_seed, SALT_SERVER_SPLIT))
    order = rng.permutation(len(data))
    n_server = int(len(data) * config.server_fraction)
    server_indices = sorted(int(i) for i in order[:n_server])
    client_universe = order[n_server:]
    partition = dirichlet_partition(
        data, config.num_clients, config.alpha,
        seed=derive_seed(config.experiment_seed, SALT_PARTITION),
        min_per_client=config.min_per_client, indices=client_universe,
    )
    return server_indices, partition


def _train_val_split(shard, val_fraction, seed):
    rng = np.random.default_rng(seed)
    shard = rng.permutation(np.asarray(shard, dtype=np.int64))
    n_val = int(len(shard) * val_fraction) if len(shard) >= 2 else 0
    return list(shard[n_val:]), list(shard[:n_val])


def build_states(config: ExperimentConfig, data: Dataset, server_indices, partition):
    """Instantiate client states (round-robin heterogeneous archs) and the server."""
    knowledge_arch = nets.ArchSpec(data.dim, config.knowledge_arch, data.num_classes)
    clients = []
    for cid, shard in enumerate(partition.client_indices):
        hidden = config.client_archs[cid % len(config.client_archs)]
        arch = nets.ArchSpec(data.dim, hidden, data.num_classes)
        train_idx, val_idx = _train_val_split(
            shard, config.val_fraction, derive_seed(config.experiment_seed, SALT_VAL_SPLIT, cid)
        )
        clients.append(ClientState(
            client_id=cid,
            local_model=nets.init_network(arch, derive_seed(config.experiment_seed, SALT_CLIENT_INIT, cid)),
            train_indices=train_idx,
            val_indices=val_idx,
            epochs=config.local_epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            rng_seed=config.experiment_seed,
        ))
    server = ServerState(
        global_knowledge=nets.init_network(
            knowledge_arch, derive_seed(config.experiment_seed, SALT_GLOBAL_INIT)
        ),
        distill_indices=server_indices,
        distill_epochs=config.distill_epochs,
        distill_lr=config.distill_lr,
        strategy=config.strategy,
        init_mode=config.server_init,
        batch_size=config.batch_size,
        rng_seed=config.experiment_seed,
    )
    return clients, server


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> RunResult:
    """Run all rounds, writing metrics, checkpoints, and the partition map."""
    data, test = build_datasets(config)
    server_indices, partition = build_partition(config, data)
    if config.mode == "fedkemf" and config.distill_epochs and not server_indices:
        raise ConfigError(
            f"server_fraction {config.server_fraction} leaves no distillation samples"
        )
    clients, server = build_states(config, data, server_indices, partition)

    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "partition.json"), "w") as f:
        f.write(partition.to_json())
        f.write("\n")

    payload = (
        int(config.payload_mb * MB) if config.payload_mb is not None
        else checkpoint.checkpoint_nbytes(server.global_knowledge.arch)
    )
    cost_model = CostModel(payload_bytes=payload, directions=config.directions)
    audit = WireAudit()

    initial_accuracy = nets.accuracy(server.global_knowledge, test.features, test.labels,
                                     round_index=0)
    records = []
    cumulative = 0
    for _ in range(config.rounds):
        t0 = time.perf_counter()
        stats = run_round(server, clients, data, config.mode,
                          config.sample_ratio, audit=audit, jobs=jobs)
        wall = time.perf_counter() - t0
        cumulative += cost_model.round_bytes(len(stats["sampled"]))
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
            cumulative_bytes=cumulative,
            wall_seconds=wall,
        ))

    summary = emit_metrics(
        records, os.path.join(config.out_dir, "metrics.csv"),
        target_accuracy=config.target_accuracy,
        extra_summary={"initial_acc": initial_accuracy},
    )
    return RunResult(records, summary, initial_accuracy, server, clients,
                     audit, partition, config.out_dir)


def partition_report(config: ExperimentConfig) -> dict:
    """Partition-only artifact: map plus per-client label histograms."""
    data, _ = build_datasets(config)
    server_indices, partition = build_partition(config, data)
    return {
        "alpha": partition.alpha,
        "seed": partition.seed,
        "server_indices": [int(i) for i in server_indices],
        "clients": [[int(i) for i in shard] for shard in partition.client_indices],
        "histograms": [
            [int(c) for c in label_histogram(data, shard)]
            for shard in partition.client_indices
        ],
    }
