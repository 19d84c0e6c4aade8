"""Client-side local training: deep mutual learning and the plain-CE baseline."""

from dataclasses import dataclass

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


def _batches(state: ClientState, data: Dataset, round_index, num_classes):
    """(context, x, y) per batch of every local epoch; checks the label range once."""
    train = np.asarray(state.train_indices, dtype=np.int64)
    labels = data.labels[train]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range")
    for epoch in range(state.epochs):
        epoch_seed = derive_seed(state.rng_seed, state.client_id, round_index, epoch)
        for b, batch_idx in enumerate(batch_iterator(train, state.batch_size, epoch_seed)):
            context = {"client_id": state.client_id, "epoch": epoch, "batch_index": b}
            yield context, data.features[batch_idx], data.labels[batch_idx]


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

    Returns (updated_knowledge, mean_train_loss, local_val_accuracy).
    """
    num_classes = knowledge_net.arch.num_classes
    if num_classes != state.local_model.arch.num_classes:
        raise ValueError("knowledge and local networks disagree on num_classes")
    kn = nets.Trainer(knowledge_net, state.lr)
    theta = nets.Trainer(state.local_model, state.lr)
    losses = []
    for context, x, y in _batches(state, data, round_index, num_classes):
        g_logits, g_inputs, g_pre = kn.forward(x)
        nets.check_finite(g_logits, "logits", **context)
        t_logits, t_inputs, t_pre = theta.forward(x)
        nets.check_finite(t_logits, "logits", **context)
        g_probs = nets.softmax_finite(g_logits)
        loss, delta = nets.loss_and_delta(nets.softmax_finite(t_logits), y, g_probs)
        nets.check_finite(loss, "loss", **context)
        theta.step(t_inputs, t_pre, delta, **context)
        losses.append(loss)

        t_logits = theta.forward(x)[0]
        nets.check_finite(t_logits, "logits", **context)
        kn_loss, delta = nets.loss_and_delta(g_probs, y, nets.softmax_finite(t_logits))
        nets.check_finite(kn_loss, "loss", **context)
        kn.step(g_inputs, g_pre, delta, **context)

    state.local_model = theta.net
    state.val_accuracy = state.accuracy(theta.net, data)
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return kn.net, mean_loss, state.val_accuracy


def local_train(state: ClientState, model: nets.Network, data: Dataset,
                round_index: int = 0):
    """Plain cross-entropy local training of a shared-architecture model.

    Used by the weighted-averaging baseline; the incoming model is copied.
    Returns (trained_model, mean_train_loss).
    """
    net = nets.Trainer(model, state.lr)
    losses = []
    for context, x, y in _batches(state, data, round_index, model.arch.num_classes):
        logits, inputs, pre = net.forward(x)
        nets.check_finite(logits, "logits", **context)
        loss, delta = nets.loss_and_delta(nets.softmax_finite(logits), y)
        nets.check_finite(loss, "loss", **context)
        net.step(inputs, pre, delta, **context)
        losses.append(loss)
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return net.net, mean_loss
