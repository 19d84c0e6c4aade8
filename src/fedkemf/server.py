"""Server side: client sampling, ensembling, ensemble distillation, FedAvg."""

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import nets
from .checkpoint import checkpoint_nbytes
# local_train, the serial path, stays importable here: bench/tracing.py patches this name.
from .client import batch_iterator, client_update, fit, local_train, local_train_lockstep  # noqa: F401
from .data import Dataset
from .seeding import SALT_DISTILL, SALT_SAMPLING, derive_seed

STRATEGIES = ("max_logits", "avg_logits", "majority_vote")
INIT_MODES = ("avg_members", "warm_start")
MODES = ("fedkemf", "fedavg")  # run_round's mode


@dataclass
class ServerState:
    global_knowledge: nets.Network
    distill_indices: list
    distill_epochs: int
    distill_lr: float
    strategy: str = "max_logits"
    init_mode: str = "avg_members"
    batch_size: int = 32
    rng_seed: int = 0
    round: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown ensemble strategy {self.strategy!r}")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown server init mode {self.init_mode!r}")


def sample_clients(num_clients, sample_ratio, round_index, experiment_seed):
    """Uniform without-replacement client sample, deterministic in (round, seed)."""
    if not (0 < sample_ratio <= 1):
        raise ValueError("sample_ratio must be in (0, 1]")
    count = max(1, int(round(sample_ratio * num_clients)))
    rng = np.random.default_rng(derive_seed(experiment_seed, SALT_SAMPLING, round_index))
    return sorted(int(c) for c in rng.choice(num_clients, size=count, replace=False))


def ensemble_logits(member_logits, strategy):
    """Combine K member logit batches into one teacher batch.

    max_logits / avg_logits return combined logits; majority_vote returns
    per-row vote fractions (each member votes its argmax, ties to the lowest
    class index).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown ensemble strategy {strategy!r}")
    members = [np.asarray(m, dtype=np.float64) for m in member_logits]
    if not members:
        raise ValueError("need at least one ensemble member")
    shape = members[0].shape
    if any(m.shape != shape for m in members):
        raise ValueError("member logits must share one shape")
    stacked = np.stack(members)
    if strategy == "max_logits":
        return stacked.max(axis=0)
    if strategy == "avg_logits":
        # Sum in a canonical member order so the result is bit-identical under
        # member permutation (float addition is not associative).
        order = sorted(range(len(members)), key=lambda i: members[i].tobytes())
        total = np.zeros(shape)
        for i in order:
            total += members[i]
        return total / len(members)
    votes = np.argmax(stacked, axis=2)  # K x N
    n, c = shape
    fractions = np.zeros(shape)
    for k in range(len(members)):
        fractions[np.arange(n), votes[k]] += 1.0
    return fractions / len(members)


def teacher_distributions(member_logits, strategy):
    """Per-row teacher probability rows for distillation under a strategy."""
    combined = ensemble_logits(member_logits, strategy)
    if strategy == "majority_vote":
        return combined
    return nets.softmax(combined)


def average_init(members):
    """Parameter-wise mean of same-architecture networks."""
    if not members:
        raise ValueError("need at least one member")
    arch = members[0].arch
    if any(m.arch != arch for m in members):
        raise ValueError("members must share one architecture")
    return nets.Network(arch, np.mean([m.params for m in members], axis=0))


def fedavg_aggregate(members, weights):
    """Parameter-wise weighted mean; weights normalized to sum 1."""
    if len(members) != len(weights):
        raise ValueError("one weight per member required")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    arch = members[0].arch
    if any(m.arch != arch for m in members):
        raise ValueError("members must share one architecture")
    w = w / w.sum()
    params = sum(wi * m.params for wi, m in zip(w, members))
    return nets.Network(arch, params)


def distill(server: ServerState, members, data: Dataset):
    """Distill the member ensemble into a student on the server's unlabeled split.

    The student starts from the members' parameter average (or the previous
    global network under warm_start); client.fit steps it on batch-mean KL
    from the teacher, built once per call (one forward per frozen member).
    Returns (student, last_mean_kl), the mean over the last epoch's batches.
    """
    if not members:
        raise ValueError("need at least one member to distill")
    if server.init_mode == "warm_start":
        start = server.global_knowledge
    else:
        start = average_init(members)
    student = nets.Trainer(start, server.distill_lr)
    if server.distill_epochs == 0:
        return student.net, 0.0
    x_split = data.features[np.asarray(server.distill_indices, dtype=np.int64)]
    teacher = teacher_distributions([nets.forward(m, x_split) for m in members], server.strategy)
    if teacher.shape != (len(x_split), start.arch.num_classes):
        raise ValueError("teacher distribution shape mismatch")
    positions = np.arange(len(x_split))
    seeds = (derive_seed(server.rng_seed, SALT_DISTILL, server.round, epoch)
             for epoch in range(server.distill_epochs))
    epochs = (np.concatenate(batch_iterator(positions, server.batch_size, s)) for s in seeds)
    scored, bounds = fit(student, [(x_split, teacher, epochs)], server.batch_size,
                         what="distillation ", round_index=server.round)
    last_loss = float(np.mean(nets.batch_means(scored[-1], bounds[0])))
    return student.trained(round_index=server.round)[0], last_loss


def _run_clients(fn, client_ids, jobs):
    """Run per-client work, optionally in parallel; results in the order of client_ids.

    Each worker call runs in a copy of the caller's context, so it keeps the
    caller's numpy error state.
    """
    if jobs <= 1 or len(client_ids) <= 1:
        return [fn(cid) for cid in client_ids]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, cid) for cid in client_ids]
        return [fut.result() for fut in futures]


def run_round(server: ServerState, clients, data: Dataset, mode,
              sample_ratio, audit=None, jobs=1):
    """Execute one communication round; mutates server and client states.

    fedkemf: sample, broadcast the global knowledge network, mutual-train per
    client (`jobs` threads), ensemble-distill the returned knowledge copies.
    fedavg: sample, broadcast, plain-CE local training of the shared-arch
    model (all sampled clients in lockstep), shard-size weighted averaging.
    Returns per-round stats: sampled ids, mean train loss over sampled
    clients, mean val accuracy over ALL clients' deployed models (in fedkemf
    mode as stored when each model last changed, or scored here if never
    scored), and the distillation loss (0.0 in fedavg mode).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    round_index = server.round + 1
    sampled = sample_clients(len(clients), sample_ratio, round_index, server.rng_seed)
    broadcast = server.global_knowledge
    ck_bytes = checkpoint_nbytes(broadcast.arch)
    if mode == "fedkemf":
        results = _run_clients(
            lambda cid: client_update(clients[cid], broadcast, data, round_index), sampled, jobs
        )
    else:
        results = local_train_lockstep([clients[cid] for cid in sampled], broadcast, data,
                                       round_index)
    members = [r[0] for r in results]  # in sampled, id-sorted, order
    train_losses = [r[1] for r in results]
    if audit is not None:
        for cid, member in zip(sampled, members):
            audit.record_download(round_index, cid, broadcast.arch, ck_bytes)
            audit.record_upload(round_index, cid, member.arch, ck_bytes)

    distill_loss = 0.0
    if mode == "fedkemf":
        server.global_knowledge, distill_loss = distill(server, members, data)
        for st in clients:
            if st.val_accuracy is None:
                st.val_accuracy = st.accuracy(st.local_model, data, round_index=round_index)
        val_accs = [st.val_accuracy for st in clients]
    else:
        weights = [len(clients[cid].train_indices) for cid in sampled]
        server.global_knowledge = fedavg_aggregate(members, weights)
        # Clients deploy the aggregated model; score it on each local val split.
        val_accs = [st.accuracy(server.global_knowledge, data, round_index=round_index)
                    for st in clients]

    server.round = round_index
    return {
        "sampled": sampled,
        "mean_train_loss": float(np.mean(train_losses)) if train_losses else 0.0,
        "mean_client_val_accuracy": float(np.mean(val_accs)),
        "distill_loss": distill_loss,
        "payload_bytes": ck_bytes,
    }
