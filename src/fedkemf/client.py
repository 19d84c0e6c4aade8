"""Client-side local training: deep mutual learning and the single-student fit loop."""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import nets
from .data import Dataset
from .seeding import derive_seed


@dataclass
class ClientState:
    client_id: int
    local_model: nets.Network
    train_indices: list
    val_indices: list
    epochs: int
    batch_size: int
    lr: float
    rng_seed: int  # experiment seed; per-epoch streams are derived from it
    # accuracy of local_model on eval_indices, set whenever client_update
    # replaces the model; None until the model has been scored
    val_accuracy: float = None

    @property
    def eval_indices(self):
        """The val split, or the train split when the shard had no room for one."""
        return self.val_indices if len(self.val_indices) else self.train_indices

    def accuracy(self, net: nets.Network, data: Dataset, **context) -> float:
        """Top-1 accuracy of `net` on this client's eval_indices; errors name the client."""
        idx = self.eval_indices
        return nets.evaluate(net, data.features[idx], data.labels[idx],
                             client_id=self.client_id, **context)[0]


def batch_iterator(indices, batch_size, epoch_seed):
    """Deterministically shuffled batches; the final partial batch is kept."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot batch an empty index list")
    rng = np.random.default_rng(epoch_seed)
    idx = rng.permutation(idx)
    return [idx[i:i + batch_size] for i in range(0, idx.size, batch_size)]


def epoch_rows(epoch_batches):
    """Per epoch's batches: its row order (the batches joined) and each batch's (start, stop)."""
    for batches in epoch_batches:
        stops = list(accumulate(map(len, batches)))
        yield np.concatenate(batches), list(zip([0] + stops[:-1], stops))


def _shard(state: ClientState, data: Dataset, round_index, num_classes):
    """(x, y, onehot) of the train shard, and its local epochs' rows over positions in it."""
    train = np.asarray(state.train_indices, dtype=np.int64)
    y = data.labels[train]
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError("label out of range")
    positions = np.arange(len(train))
    seeds = (derive_seed(state.rng_seed, state.client_id, round_index, epoch)
             for epoch in range(state.epochs))
    epochs = epoch_rows(batch_iterator(positions, state.batch_size, s) for s in seeds)
    return data.features[train], y, np.eye(num_classes)[y], epochs


def fit(trainer: nets.Trainer, x, epochs, target, labels=None, what="", **context):
    """Single-student SGD toward one fixed target block (plain CE, or distillation).

    `epochs` yields each epoch's epoch_rows over the rows of `x` and `target`;
    each batch steps on the batch mean of (softmax - target).  Losses are
    scored per epoch: CE toward `labels` if given (`target` is their one-hot
    block), else KL from `target`.  Divergence errors name what + "logits" or
    what + "loss".  Returns per epoch (terms, bounds), as nets.batch_means takes.
    """
    logits_what, loss_what = what + "logits", what + "loss"
    scored = []
    for epoch, (order, bounds) in enumerate(epochs):
        xe, te = x[order], target[order]
        q_rows = np.empty(te.shape)
        for b, (start, stop) in enumerate(bounds):
            batch = {**context, "epoch": epoch, "batch_index": b}
            q, inputs, pre = trainer.probs(xe[start:stop], q_rows[start:stop], logits_what, **batch)
            trainer.step(inputs, pre, nets.logit_delta(q, te[start:stop]), **batch)
        terms = (nets.row_terms(q_rows, teacher_probs=te) if labels is None
                 else nets.row_terms(q_rows, labels[order]))
        nets.check_rows_finite(terms, bounds, loss_what, **context, epoch=epoch)
        scored.append((terms, bounds))
    return scored


def client_update(state: ClientState, knowledge_net: nets.Network, data: Dataset,
                  round_index: int = 0):
    """One local round of deep mutual learning.

    Per batch, the local model steps on CE plus KL toward the knowledge
    network's current distribution, then the knowledge network steps on CE
    plus KL toward the just-updated local model.  The local model persists in
    the state, with its val accuracy; only the updated knowledge copy is
    returned.  Three forwards per batch: the knowledge net's forward serves
    both its loss and its step, the local model's forward serves its loss and
    step, and one more forward of the stepped local model makes the teacher.
    A batch keeps its softmax rows; the losses are scored from them once per
    epoch.  The two nets step in turn, so this loop is not fit's.

    Returns (updated_knowledge, mean_train_loss, local_val_accuracy).
    """
    num_classes = knowledge_net.arch.num_classes
    if num_classes != state.local_model.arch.num_classes:
        raise ValueError("knowledge and local networks disagree on num_classes")
    kn = nets.Trainer(knowledge_net, state.lr)
    theta = nets.Trainer(state.local_model, state.lr)
    context = {"client_id": state.client_id, "round_index": round_index}
    x, y, onehot, epochs = _shard(state, data, round_index, num_classes)
    losses = []
    for epoch, (order, bounds) in enumerate(epochs):
        xe, ye, te = x[order], y[order], onehot[order]
        g_rows = np.empty(te.shape)  # knowledge net
        q_rows = np.empty(te.shape)  # local model before its step
        p_rows = np.empty(te.shape)  # local model after its step
        for b, (start, stop) in enumerate(bounds):
            batch = {**context, "epoch": epoch, "batch_index": b}
            xb, yb = xe[start:stop], te[start:stop]
            g, g_inputs, g_pre = kn.probs(xb, g_rows[start:stop], "logits", **batch)
            q, t_inputs, t_pre = theta.probs(xb, q_rows[start:stop], "logits", **batch)
            theta.step(t_inputs, t_pre, nets.logit_delta(q, yb, g), **batch)
            p = theta.probs(xb, p_rows[start:stop], "logits", **batch)[0]
            kn.step(g_inputs, g_pre, nets.logit_delta(g, yb, p), **batch)
        terms = nets.row_terms(q_rows, ye, g_rows)
        nets.check_rows_finite(terms + nets.row_terms(g_rows, ye, p_rows), bounds, "loss",
                               **context, epoch=epoch)
        losses.extend(nets.batch_means(terms, bounds))

    state.local_model = theta.trained(**context)
    state.val_accuracy = state.accuracy(state.local_model, data, round_index=round_index)
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return kn.trained(**context), mean_loss, state.val_accuracy


def local_train(state: ClientState, model: nets.Network, data: Dataset,
                round_index: int = 0):
    """Plain cross-entropy local training of a shared-architecture model.

    Used by the weighted-averaging baseline; the incoming model is copied.
    Returns (trained_model, mean_train_loss).
    """
    net = nets.Trainer(model, state.lr)
    context = {"client_id": state.client_id, "round_index": round_index}
    x, y, onehot, epochs = _shard(state, data, round_index, model.arch.num_classes)
    losses = [loss for terms, bounds in fit(net, x, epochs, onehot, y, **context)
              for loss in nets.batch_means(terms, bounds)]
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return net.trained(**context), mean_loss
