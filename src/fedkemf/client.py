"""Client-side local training: deep mutual learning and the plain-CE baseline."""

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

    def accuracy(self, net: nets.Network, data: Dataset) -> float:
        """Top-1 accuracy of `net` on this client's eval_indices."""
        idx = self.eval_indices
        return nets.evaluate(net, data.features[idx], data.labels[idx])[0]


def batch_iterator(indices, batch_size, epoch_seed):
    """Deterministically shuffled batches; the final partial batch is kept."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot batch an empty index list")
    rng = np.random.default_rng(epoch_seed)
    idx = rng.permutation(idx)
    return [idx[i:i + batch_size] for i in range(0, idx.size, batch_size)]


def epoch_rows(batches):
    """An epoch's row order (its batches, concatenated) and each batch's (start, stop) in it."""
    stops = list(accumulate(map(len, batches)))
    return np.concatenate(batches), list(zip([0] + stops[:-1], stops))


def _epochs(state: ClientState, data: Dataset, round_index, num_classes):
    """(epoch, bounds, x, y, onehot) per local epoch; checks the label range once.

    The rows are gathered once per epoch in its shuffled batch order, so
    batch b is the contiguous rows bounds[b] of x, y and the one-hot block.
    """
    train = np.asarray(state.train_indices, dtype=np.int64)
    labels = data.labels[train]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    eye = np.eye(num_classes)
    for epoch in range(state.epochs):
        epoch_seed = derive_seed(state.rng_seed, state.client_id, round_index, epoch)
        order, bounds = epoch_rows(batch_iterator(train, state.batch_size, epoch_seed))
        y = data.labels[order]
        yield epoch, bounds, data.features[order], y, eye[y]


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
    epoch.

    Returns (updated_knowledge, mean_train_loss, local_val_accuracy).
    """
    num_classes = knowledge_net.arch.num_classes
    if num_classes != state.local_model.arch.num_classes:
        raise ValueError("knowledge and local networks disagree on num_classes")
    kn = nets.Trainer(knowledge_net, state.lr)
    theta = nets.Trainer(state.local_model, state.lr)
    cid = state.client_id
    losses = []
    for epoch, bounds, x, y, onehot in _epochs(state, data, round_index, num_classes):
        g_rows = np.empty(onehot.shape)  # knowledge net
        q_rows = np.empty(onehot.shape)  # local model before its step
        p_rows = np.empty(onehot.shape)  # local model after its step
        for b, (start, stop) in enumerate(bounds):
            context = {"client_id": cid, "epoch": epoch, "batch_index": b}
            xb, yb = x[start:stop], onehot[start:stop]
            g_logits, g_inputs, g_pre = kn.forward(xb)
            nets.check_finite(g_logits, "logits", **context)
            t_logits, t_inputs, t_pre = theta.forward(xb)
            nets.check_finite(t_logits, "logits", **context)
            g = nets.softmax_finite(g_logits, out=g_rows[start:stop])
            q = nets.softmax_finite(t_logits, out=q_rows[start:stop])
            theta.step(t_inputs, t_pre, nets.logit_delta(q, yb, g), **context)

            t_logits = theta.forward(xb)[0]
            nets.check_finite(t_logits, "logits", **context)
            p = nets.softmax_finite(t_logits, out=p_rows[start:stop])
            kn.step(g_inputs, g_pre, nets.logit_delta(g, yb, p), **context)
        terms = nets.row_terms(q_rows, y, g_rows)
        nets.check_rows_finite(terms + nets.row_terms(g_rows, y, p_rows), bounds, "loss",
                               client_id=cid, epoch=epoch)
        losses.extend(nets.batch_means(terms, bounds))

    state.local_model = theta.trained(client_id=cid)
    state.val_accuracy = state.accuracy(state.local_model, data)
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return kn.trained(client_id=cid), mean_loss, state.val_accuracy


def local_train(state: ClientState, model: nets.Network, data: Dataset,
                round_index: int = 0):
    """Plain cross-entropy local training of a shared-architecture model.

    Used by the weighted-averaging baseline; the incoming model is copied.
    Returns (trained_model, mean_train_loss).
    """
    net = nets.Trainer(model, state.lr)
    cid = state.client_id
    losses = []
    for epoch, bounds, x, y, onehot in _epochs(state, data, round_index, model.arch.num_classes):
        q_rows = np.empty(onehot.shape)
        for b, (start, stop) in enumerate(bounds):
            context = {"client_id": cid, "epoch": epoch, "batch_index": b}
            logits, inputs, pre = net.forward(x[start:stop])
            nets.check_finite(logits, "logits", **context)
            q = nets.softmax_finite(logits, out=q_rows[start:stop])
            net.step(inputs, pre, nets.logit_delta(q, onehot[start:stop]), **context)
        terms = nets.row_terms(q_rows, y)
        nets.check_rows_finite(terms, bounds, "loss", client_id=cid, epoch=epoch)
        losses.extend(nets.batch_means(terms, bounds))
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return net.trained(client_id=cid), mean_loss
