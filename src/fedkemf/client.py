"""Client-side local training, in lockstep: deep mutual learning and the single-student fit loop."""

from dataclasses import dataclass

import numpy as np

from . import nets
from .data import Dataset
from .seeding import SALT_ORDERS, stream


@dataclass
class ClientState:
    client_id: int
    local_model: nets.Network
    train_indices: np.ndarray  # int64 dataset rows; any 1-d integer sequence works
    eval_indices: np.ndarray  # the rows the client is scored on, fixed at set-up
    # accuracy of local_model on eval_indices; None until run_round scores the model
    val_accuracy: float = None

    def accuracy(self, data: Dataset, **context) -> float:
        """Top-1 accuracy of local_model on this client's eval_indices; errors name the client."""
        idx = self.eval_indices
        return nets.accuracy(self.local_model, data.features[idx], data.labels[idx],
                             client_id=self.client_id, **context)


def batch_iterator(indices, batch_size, epoch_seed):
    """Deterministically shuffled batches of the non-empty `indices`; the final partial batch
    is kept.  `epoch_seed` is an int or a np.random.Generator, which np.random.default_rng
    passes through, so successive calls on one Generator draw successive orders."""
    idx = np.asarray(indices, dtype=np.int64)
    rng = np.random.default_rng(epoch_seed)
    idx = rng.permutation(idx)
    return [idx[i:i + batch_size] for i in range(0, idx.size, batch_size)]


def _shard(state: ClientState, data: Dataset, round_index, epochs, batch_size, seed):
    """(x, onehot, orders) of the train shard, one-hot over data.num_classes; orders yields each
    epoch's row order, all drawn from the client's stream of the round."""
    train = state.train_indices
    positions = np.arange(len(train))
    rng = stream(seed, SALT_ORDERS, state.client_id, round_index)
    orders = (np.concatenate(batch_iterator(positions, batch_size, rng)) for _ in range(epochs))
    return data.features[train], nets.onehot(data.labels[train], data.num_classes), orders


def step_plan(sizes, batch_size):
    """One epoch's steps for members of `sizes` rows, largest first: [(rows, [(start, stop,
    batch)])], each member's batches in order.

    `rows` is the slice of members that step as one stack: slice(f) where the
    first f members all have a full batch, or slice(j, j + 1) for member j's
    partial last batch, which always steps alone, unpadded (more rows would
    change the BLAS sums).
    """
    full = [n // batch_size for n in sizes] + [0]
    plan = []
    for f in range(len(sizes), 0, -1):  # batches full[f]..full[f-1] are full for members :f only
        batches = [(b * batch_size, (b + 1) * batch_size, b) for b in range(full[f], full[f - 1])]
        if batches:
            plan.append((slice(f), batches))
    return plan + [(slice(j, j + 1), [(full[j] * batch_size, n, full[j])])
                   for j, n in enumerate(sizes) if n % batch_size]


def _lockstep_epochs(members, batch_size, step, score, n_probs, trainers, scored):
    """The epoch loop of both lockstep trainers: per member, its mean batch loss over the
    scored epochs (0.0 if none).

    members[k] = (x, target, epochs), largest x first; `epochs` yields each
    epoch's row order (batches of batch_size joined), gathered into padded
    (K, pad, .) row and target blocks; no step or score uses their unused rows.
    The n_probs softmax blocks the steps write are made here, shaped like the
    target block; their unused rows stay 1 so that the check passes on them.
    step(epoch, b, views, x, t, *probs) runs batch b of a step_plan slice on
    every block's rows of it, `views` being each trainer's views of the
    slice.  Unless the trainers are guarded, every epoch ends with
    nets.check_epoch.  Each epoch in `scored` keeps score(take, t, *probs),
    its per-row loss terms, take(block) being a block's real rows, member by
    member; after the last epoch each member's terms go to nets.batch_means.
    """
    sizes = [len(m[0]) for m in members]
    x_rows = np.empty((len(sizes), sizes[0], members[0][0].shape[1]))
    t_rows = np.empty((len(sizes), sizes[0], members[0][1].shape[1]))
    probs = [np.ones(t_rows.shape) for _ in range(n_probs)]
    blocks = (x_rows, t_rows, *probs)
    # (views, [(b, every block's rows of batch b)]) per step_plan slice
    steps = [([trainer.views(rows) for trainer in trainers],
              [(b, [block[rows, start:stop] for block in blocks]) for start, stop, b in batches])
             for rows, batches in step_plan(sizes, batch_size)]
    # the real rows of the flattened (K, pad, .) blocks, member by member
    rows = np.flatnonzero(np.arange(sizes[0]) < np.array(sizes)[:, None])

    def take(block):
        return np.take(block.reshape(-1, block.shape[2]), rows, axis=0)
    check = all(t.guard is None for t in trainers)
    terms = []  # per scored epoch, its per-row loss terms
    for epoch, orders in enumerate(zip(*(m[2] for m in members))):
        for k, ((x, target, _), order) in enumerate(zip(members, orders)):
            # mode="clip" only skips the buffering that mode="raise" needs; every index is valid
            np.take(x, order, axis=0, out=x_rows[k, :sizes[k]], mode="clip")
            np.take(target, order, axis=0, out=t_rows[k, :sizes[k]], mode="clip")
        for views, sliced in steps:
            for b, block_rows in sliced:
                step(epoch, b, views, *block_rows)
        if check:
            nets.check_epoch(probs)
        if epoch in scored:
            terms.append(score(take, t_rows, *probs))
    if not terms:
        return [0.0] * len(sizes)
    terms = [np.stack(term) for term in zip(*terms)]  # each (scored epochs, rows)
    return [float(np.mean(nets.batch_means([t[:, end - n:end] for t in terms], batch_size).ravel()))
            for n, end in zip(sizes, np.cumsum(sizes))]


def fit(trainer: nets.Trainer, members, batch_size, scored):
    """Lockstep single-student SGD: each trainer member steps toward its own fixed target block.

    `members`, `scored` and the result are _lockstep_epochs'; the steps
    follow step_plan.  A scored epoch keeps each row's KL from its target
    row (nets.row_terms), which toward a one-hot block is the CE toward its
    labels.  Errors name the logits as the trainer does.
    """
    def step(epoch, b, views, x, t, q_out):
        q, inputs, pre = trainer.probs(x, q_out, epoch, b, views=views[0])
        trainer.step(inputs, pre, nets.logit_delta(q, t), epoch, b, views=views[0])

    def score(take, t, q):
        return nets.row_terms(take(q), take(t))
    return _lockstep_epochs(members, batch_size, step, score, 1, [trainer], scored)


def _mutual_learning(kn, theta, members, batch_size, scored):
    """Lockstep deep mutual learning of one architecture's members; returns _lockstep_epochs'
    mean losses.

    `kn` stacks the members' knowledge copies and `theta` their local
    models, row for row, so each step_plan slice is a slice of both.  A step
    forwards the knowledge stack (g); the local stack forwards (q), steps on
    CE plus KL toward the knowledge rows and forwards again (p); then the
    knowledge stack steps on CE plus KL toward those stepped rows.  A scored
    epoch keeps the local rows' CE and KL from the knowledge rows.
    """
    def step(epoch, b, views, x, y, g_out, q_out, p):
        k_views, own = views
        g, g_inputs, g_pre = kn.probs(x, g_out, epoch, b, views=k_views)
        q, inputs, pre = theta.probs(x, q_out, epoch, b, views=own)
        theta.step(inputs, pre, nets.logit_delta(q, y, g), epoch, b, views=own)
        theta.probs(x, p, epoch, b, views=own)
        kn.step(g_inputs, g_pre, nets.logit_delta(g, y, p), epoch, b, views=k_views)

    def score(take, y, g, q, p):
        return nets.row_terms(take(q), take(y), take(g))
    return _lockstep_epochs(members, batch_size, step, score, 3, [kn, theta], scored)


def _lockstep(states, data: Dataset, round_index, train, stack_key, *, epochs, batch_size, seed):
    """The driver of both entry points, under nets.per_epoch_checked: train(stack, shards,
    guard) trains a stack of states on their _shard()s and returns their results in stack order.

    The states of each stack_key(state) are one stack, largest shard first,
    ties by client id, and the stack of the largest shard trains first; the
    unguarded pass trains each stack once.  Its replay is the serial loop:
    each state alone, in the given order, guarded with the context that names
    its client and the round, so it raises the serial loop's DivergenceError.
    Results come in the given order.
    """
    order = sorted(range(len(states)),
                   key=lambda k: (-len(states[k].train_indices), states[k].client_id))
    stacks = {}
    for k in order:
        stacks.setdefault(stack_key(states[k]), []).append(k)

    def call(guarded):
        results = {}
        for ks in [[k] for k in range(len(states))] if guarded else stacks.values():
            stack = [states[k] for k in ks]
            guard = ({"client_id": stack[0].client_id, "round_index": round_index}
                     if guarded else None)
            shards = [_shard(st, data, round_index, epochs, batch_size, seed) for st in stack]
            results.update(zip(ks, train(stack, shards, guard)))
        return [results[k] for k in range(len(states))]
    return nets.per_epoch_checked(call)


def client_update(states, knowledge_net: nets.Network, data: Dataset, round_index, *,
                  lr, epochs, batch_size, seed):
    """[(updated_knowledge, mean_train_loss, local_model)] of each state's round of deep
    mutual learning, in lockstep; no state changes.  The knowledge net and every local model
    have data.num_classes classes, the width of the one-hot targets.

    Per batch, the local model steps on CE plus KL toward the knowledge net's
    distribution, then the knowledge net on CE plus KL toward the stepped
    local model: three forwards, one per net per use.  Losses are scored
    from the kept softmax rows once per epoch.  Every client trains with the
    one recipe (lr, epochs, batch_size, and the experiment seed its batch
    orders derive from).  _lockstep stacks the clients by local
    architecture; each stack trains as one pair of stacks, their knowledge
    copies and their local models, row for row (_mutual_learning).  Each
    result equals the client's run alone, and its networks own their
    parameters (nets.Trainer.trained).  A failed per-epoch check, or any
    divergence, replays the clients alone and guarded (_lockstep).
    """
    def train(stack, shards, guard):
        kn = nets.Trainer([knowledge_net] * len(stack), lr, guard)
        theta = nets.Trainer([st.local_model for st in stack], lr, guard)
        means = _mutual_learning(kn, theta, shards, batch_size, range(epochs))
        return [(knowledge, mean, local)
                for local, knowledge, mean in zip(theta.trained(), kn.trained(), means)]
    return _lockstep(states, data, round_index, train, lambda st: st.local_model.arch,
                     epochs=epochs, batch_size=batch_size, seed=seed)


def local_train(states, model: nets.Network, data: Dataset, round_index, *,
                lr, epochs, batch_size, seed):
    """[(trained_model, mean_train_loss)] of each state's plain-CE local training (the
    weighted-averaging baseline) from the shared `model` (data.num_classes classes), in lockstep.

    The clients are one fit stack (_lockstep); each result equals the
    client's run alone, and `model` is not changed.  A failed per-epoch
    check, or any divergence, replays the clients alone and guarded.
    """
    def train(stack, shards, guard):
        trainer = nets.Trainer([model] * len(stack), lr, guard)
        means = fit(trainer, shards, batch_size, range(epochs))
        return list(zip(trainer.trained(), means))
    return _lockstep(states, data, round_index, train, lambda st: None,
                     epochs=epochs, batch_size=batch_size, seed=seed)
