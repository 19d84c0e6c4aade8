"""Client-side local training: deep mutual learning and the single-student fit loop."""

from dataclasses import dataclass

import numpy as np

from . import nets
from .data import Dataset
from .errors import DivergenceError
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
        return nets.accuracy(net, data.features[idx], data.labels[idx],
                             client_id=self.client_id, **context)


def batch_iterator(indices, batch_size, epoch_seed):
    """Deterministically shuffled batches; the final partial batch is kept."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("cannot batch an empty index list")
    rng = np.random.default_rng(epoch_seed)
    idx = rng.permutation(idx)
    return [idx[i:i + batch_size] for i in range(0, idx.size, batch_size)]


def _shard(state: ClientState, data: Dataset, round_index, num_classes):
    """(x, onehot, epochs, y) of the train shard; epochs yields each local epoch's row order in it."""
    train = np.asarray(state.train_indices, dtype=np.int64)
    y = data.labels[train]
    positions = np.arange(len(train))
    seeds = (derive_seed(state.rng_seed, state.client_id, round_index, epoch)
             for epoch in range(state.epochs))
    epochs = (np.concatenate(batch_iterator(positions, state.batch_size, s)) for s in seeds)
    return data.features[train], nets.onehot(y, num_classes), epochs, y


def batch_bounds(offset, n, batch_size):
    """(start, stop) rows of the batches of n rows from `offset`; the last may be partial."""
    starts = range(offset, offset + n, batch_size)
    return list(zip(starts, [*starts[1:], offset + n]))


def fit(trainer: nets.Trainer, members, batch_size, labels=False, what="", **context):
    """Lockstep single-student SGD: each trainer member steps toward its own fixed target block.

    members[k] = (x, target, epochs), largest x first; `epochs` yields each
    epoch's row order (batches of batch_size joined), gathered into padded
    (K, pad, .) blocks.  Members with a full batch (a prefix) step as one
    stack; a partial last batch steps alone, unpadded (more rows would change
    the BLAS sums).  Losses are scored per epoch: CE toward a one-hot
    `target`'s labels if `labels`, else KL from `target`; `what` prefixes the
    names in errors.  Returns (per epoch the K * pad rows' loss terms, per
    member its batches' bounds in them).
    """
    sizes = [len(m[0]) for m in members]
    count, pad = len(sizes), sizes[0]
    x_rows = np.empty((count, pad, members[0][0].shape[1]))
    t_rows = np.ones((count, pad, members[0][1].shape[1]))  # unused rows stay finite
    q_rows = np.ones(t_rows.shape)
    flat_q, flat_t = q_rows.reshape(count * pad, -1), t_rows.reshape(count * pad, -1)
    full = [n // batch_size for n in sizes] + [0]
    plan = []  # (views, rows, start, stop, batch index); each member's batches in order
    for f in range(count, 0, -1):  # batches full[f]..full[f-1] are full for members :f only
        rows = slice(f) if f > 1 else 0
        views = trainer.views(rows)
        plan += [(views, rows, b * batch_size, (b + 1) * batch_size, b)
                 for b in range(full[f], full[f - 1])]
    plan += [(trainer.views(j), j, full[j] * batch_size, n, full[j])
             for j, n in enumerate(sizes) if n % batch_size]
    bounds = [batch_bounds(k * pad, n, batch_size) for k, n in enumerate(sizes)]
    scored = []
    for epoch, orders in enumerate(zip(*(m[2] for m in members))):
        for k, ((x, target, _), order) in enumerate(zip(members, orders)):
            x_rows[k, :sizes[k]], t_rows[k, :sizes[k]] = x[order], target[order]
        for views, rows, start, stop, b in plan:
            q, inputs, pre = trainer.probs(x_rows[rows, start:stop], q_rows[rows, start:stop],
                                           what + "logits", context, epoch, b, views)
            trainer.step(inputs, pre, nets.logit_delta(q, t_rows[rows, start:stop]),
                         context, epoch, b, views)
        terms = (nets.row_terms(flat_q, flat_t.argmax(axis=1)) if labels
                 else nets.row_terms(flat_q, teacher_probs=flat_t))
        nets.check_rows_finite(terms, sum(bounds, []), what + "loss", **context, epoch=epoch)
        scored.append(terms)
    return scored, bounds


def client_update(state: ClientState, knowledge_net: nets.Network, data: Dataset,
                  round_index: int = 0):
    """One local round of deep mutual learning.

    Per batch, the local model steps on CE plus KL toward the knowledge net's
    distribution, then the knowledge net steps on CE plus KL toward the
    stepped local model: three forwards, one per net per use.  Losses are
    scored from the kept softmax rows once per epoch.  The two nets step in
    turn, so this loop is not fit's.  The local model and its val accuracy
    persist in the state.  Returns (updated_knowledge, mean_train_loss,
    local_val_accuracy).
    """
    num_classes = knowledge_net.arch.num_classes
    if num_classes != state.local_model.arch.num_classes:
        raise ValueError("knowledge and local networks disagree on num_classes")
    kn = nets.Trainer(knowledge_net, state.lr)
    theta = nets.Trainer(state.local_model, state.lr)
    context = {"client_id": state.client_id, "round_index": round_index}
    x, onehot, epochs, y = _shard(state, data, round_index, num_classes)
    bounds = batch_bounds(0, len(x), state.batch_size)
    losses = []
    for epoch, order in enumerate(epochs):
        xe, ye, te = x[order], y[order], onehot[order]
        g_rows = np.empty(te.shape)  # knowledge net
        q_rows = np.empty(te.shape)  # local model before its step
        p_rows = np.empty(te.shape)  # local model after its step
        for b, (start, stop) in enumerate(bounds):
            xb, yb = xe[start:stop], te[start:stop]
            g, g_inputs, g_pre = kn.probs(xb, g_rows[start:stop], "logits", context, epoch, b)
            q, t_inputs, t_pre = theta.probs(xb, q_rows[start:stop], "logits", context, epoch, b)
            theta.step(t_inputs, t_pre, nets.logit_delta(q, yb, g), context, epoch, b)
            p = theta.probs(xb, p_rows[start:stop], "logits", context, epoch, b)[0]
            kn.step(g_inputs, g_pre, nets.logit_delta(g, yb, p), context, epoch, b)
        terms = nets.row_terms(q_rows, ye, g_rows)
        nets.check_rows_finite(terms + nets.row_terms(g_rows, ye, p_rows), bounds, "loss",
                               **context, epoch=epoch)
        losses.extend(nets.batch_means(terms, bounds))

    state.local_model = theta.trained(**context)[0]
    state.val_accuracy = state.accuracy(state.local_model, data, round_index=round_index)
    mean_loss = float(np.mean(losses)) if losses else 0.0
    return kn.trained(**context)[0], mean_loss, state.val_accuracy


def local_train_lockstep(states, model: nets.Network, data: Dataset, round_index: int = 0):
    """[(trained_model, mean_train_loss)] of each state's local_train from `model`, in lockstep.

    Clients sharing (lr, epochs, batch_size) are one fit stack, largest shard
    first, ties by client id; each result equals local_train alone.  If a
    check fails, the clients are replayed alone in the given order (a serial
    loop's), which raises the serial loop's DivergenceError.
    """
    groups = {}
    for k, st in enumerate(states):
        groups.setdefault((st.lr, st.epochs, st.batch_size), []).append(k)
    shards = [_shard(st, data, round_index, model.arch.num_classes) for st in states]
    context = {"client_id": states[0].client_id} if len(states) == 1 else {}
    results = [None] * len(states)
    try:
        for ks in groups.values():
            ks.sort(key=lambda k: (-len(shards[k][0]), states[k].client_id))
            trainer = nets.Trainer(model, states[ks[0]].lr, copies=len(ks))
            scored, bounds = fit(trainer, [shards[k][:3] for k in ks], states[ks[0]].batch_size,
                                 labels=True, **context, round_index=round_index)
            trained = trainer.trained(**context, round_index=round_index)
            for k, net, member_bounds in zip(ks, trained, bounds):
                losses = [loss for terms in scored
                          for loss in nets.batch_means(terms, member_bounds)]
                results[k] = (net, float(np.mean(losses)) if losses else 0.0)
    except DivergenceError:
        if len(states) > 1:
            for st in states:
                local_train(st, model, data, round_index)
        raise
    return results


def local_train(state: ClientState, model: nets.Network, data: Dataset, round_index: int = 0):
    """(trained_model, mean_train_loss) of the weighted-averaging baseline's plain-CE
    local training of a shared-architecture model; the incoming model is copied."""
    return local_train_lockstep([state], model, data, round_index)[0]
