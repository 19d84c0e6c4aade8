"""Server side: client sampling, ensembling, ensemble distillation, FedAvg."""

import functools
from dataclasses import dataclass

import numpy as np

from . import nets
from .client import batch_iterator, client_update, fit, local_train
from .config import ExperimentConfig
from .data import Dataset
from .seeding import SALT_DISTILL, SALT_SAMPLING, stream


@dataclass
class ServerState:
    global_knowledge: nets.Network
    distill_indices: np.ndarray  # sorted int64 rows of the distillation split
    config: ExperimentConfig  # the run's settings, validated once when parsed


def sample_clients(num_clients, sample_ratio, round_index, experiment_seed):
    """Uniform without-replacement client sample, deterministic in (round, seed)."""
    count = max(1, int(round(sample_ratio * num_clients)))
    rng = stream(experiment_seed, SALT_SAMPLING, 0, round_index)
    return sorted(int(c) for c in rng.choice(num_clients, size=count, replace=False))


def ensemble_logits(member_logits, strategy):
    """Combine K member logit batches into one teacher batch.

    max_logits / avg_logits return combined logits; majority_vote returns
    per-row vote fractions (each member votes its argmax, ties to the lowest
    class index).  The strategy is a config.STRATEGIES entry and the members share one shape.
    """
    members = [np.asarray(m, dtype=np.float64) for m in member_logits]
    shape = members[0].shape
    if strategy == "max_logits":
        return functools.reduce(np.maximum, members[1:], members[0].copy())
    if strategy == "avg_logits":
        # Sum in a canonical member order so the result is bit-identical under
        # member permutation (float addition is not associative).
        order = sorted(range(len(members)), key=lambda i: members[i].tobytes())
        total = np.zeros(shape)
        for i in order:
            total += members[i]
        return total / len(members)
    rows = np.arange(shape[0])
    fractions = np.zeros(shape)
    for m in members:
        fractions[rows, np.argmax(m, axis=1)] += 1.0
    return fractions / len(members)


def teacher_distributions(member_logits, strategy, **context):
    """Teacher probability rows for distillation.  The one check of the teacher: a non-finite
    member's logits, then non-finite combined logits, raise DivergenceError."""
    for logits in member_logits:
        nets.check_finite(logits, "teacher logits", context)
    combined = ensemble_logits(member_logits, strategy)
    if strategy == "majority_vote":
        return combined
    nets.check_finite(combined, "teacher logits", context)
    return nets.softmax_finite(combined)


def average_init(members):
    """Parameter-wise mean of one or more same-architecture networks."""
    return nets.Network(members[0].arch, np.mean([m.params for m in members], axis=0))


def fedavg_aggregate(members, weights):
    """Parameter-wise weighted mean of same-architecture networks; weights normalized to sum 1."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    params = sum(wi * m.params for wi, m in zip(w, members))
    return nets.Network(members[0].arch, params)


def distill(server: ServerState, members, data: Dataset, round_index):
    """Distill the member ensemble, one or more networks of the global knowledge network's
    architecture, into a student on the server's unlabeled split in round `round_index`,
    as the run loop numbers it: the round keys the batch orders and names the errors.

    The student starts from the members' parameter average (or the previous
    global network under warm_start); client.fit steps it on batch-mean KL
    from the teacher, built once per call (one forward per frozen member),
    under nets.per_epoch_checked.  Returns (student, last_mean_kl), the mean
    over the last epoch's batches, the only epoch scored.
    """
    config = server.config
    if config.server_init == "warm_start":
        start = server.global_knowledge
    else:
        start = average_init(members)
    if config.distill_epochs == 0:
        return start.copy(), 0.0
    context = {"round_index": round_index}
    x_split = data.features[server.distill_indices]
    member_logits = [nets.forward(m, x_split) for m in members]
    teacher = teacher_distributions(member_logits, config.strategy, **context)
    positions = np.arange(len(x_split))
    last = config.distill_epochs - 1

    def call(guarded):
        student = nets.Trainer([start], config.distill_lr, context if guarded else None,
                               logits="distillation logits")
        rng = stream(config.experiment_seed, SALT_DISTILL, 0, round_index)
        epochs = (np.concatenate(batch_iterator(positions, config.batch_size, rng))
                  for _ in range(config.distill_epochs))
        (loss,) = fit(student, [(x_split, teacher, epochs)], config.batch_size, (last,))
        return student.trained()[0], loss
    return nets.per_epoch_checked(call)


def run_round(server: ServerState, clients, data: Dataset, audit, round_index):
    """Execute round `round_index`, as the run loop numbers it; mutates server and client
    states and records each sampled client's two crossings in `audit` (costs.WireAudit).

    fedkemf: sample, broadcast the global knowledge network, mutual-train the
    sampled clients in lockstep, commit their new local models,
    ensemble-distill the returned knowledge copies.
    fedavg: sample, broadcast, plain-CE local training of the shared-arch
    model (all sampled clients in lockstep), shard-size weighted averaging;
    every client deploys the aggregate as its local model.
    The mode and every sampled client's recipe are the server's config; every
    draw of the round is keyed by round_index, and the server keeps no counter.
    Returns per-round stats: sampled ids, mean train loss over sampled
    clients, mean val accuracy over ALL clients' deployed models (each
    client's cached val_accuracy, scored here whenever its model changed),
    and the distillation loss (0.0 in fedavg mode).
    """
    config = server.config
    sampled = sample_clients(len(clients), config.sample_ratio, round_index,
                             config.experiment_seed)
    broadcast = server.global_knowledge
    train = client_update if config.mode == "fedkemf" else local_train
    results = train([clients[cid] for cid in sampled], broadcast, data, round_index, lr=config.lr,
                    epochs=config.local_epochs, batch_size=config.batch_size,
                    seed=config.experiment_seed)
    members = [r[0] for r in results]  # in sampled, id-sorted, order
    train_losses = [r[1] for r in results]
    for cid, member in zip(sampled, members):
        audit.record(round_index, cid, broadcast.arch, member.arch)

    distill_loss = 0.0
    if config.mode == "fedkemf":
        for cid, (_, _, local) in zip(sampled, results):
            clients[cid].local_model, clients[cid].val_accuracy = local, None
        server.global_knowledge, distill_loss = distill(server, members, data, round_index)
    else:
        weights = [len(clients[cid].train_indices) for cid in sampled]
        server.global_knowledge = fedavg_aggregate(members, weights)
        for st in clients:  # every client deploys the aggregate
            st.local_model, st.val_accuracy = server.global_knowledge, None
    for st in clients:
        if st.val_accuracy is None:
            st.val_accuracy = st.accuracy(data, round_index=round_index)

    return {
        "sampled": sampled,
        "mean_train_loss": float(np.mean(train_losses)),
        "mean_client_val_accuracy": float(np.mean([st.val_accuracy for st in clients])),
        "distill_loss": distill_loss,
    }
