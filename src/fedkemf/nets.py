"""Minimal dense feed-forward network engine with hand-derived gradients.

Parameters live in one flat float64 vector per network, in canonical order:
layer 0 weights (fan_in x fan_out, row-major), layer 0 biases, layer 1
weights, ...  Hidden layers use ReLU; the output layer is affine.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class ArchSpec:
    """Shape of a dense classifier: input width, hidden widths, class count."""

    input_dim: int
    hidden_dims: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")

    @property
    def layer_dims(self):
        return (self.input_dim,) + self.hidden_dims + (self.num_classes,)

    def parameter_count(self):
        dims = self.layer_dims
        return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


@dataclass
class Network:
    arch: ArchSpec
    params: np.ndarray

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.arch.parameter_count(),):
            raise ValueError(
                f"params shape {self.params.shape} != {(self.arch.parameter_count(),)}"
            )

    def copy(self):
        return Network(self.arch, self.params.copy())

    def layers(self):
        """(W, b) views into the flat parameter vector, layer by layer."""
        return _layer_views(self.arch, self.params)


def _layer_views(arch: ArchSpec, flat: np.ndarray):
    """(W, b) views, W (..., fan_in, fan_out) and b (..., 1, fan_out), into a (..., P) block."""
    dims = arch.layer_dims
    lead = flat.shape[:-1]
    views = []
    off = 0
    for fi, fo in zip(dims, dims[1:]):
        w = flat[..., off:off + fi * fo].reshape(lead + (fi, fo))
        off += fi * fo
        views.append((w, flat[..., None, off:off + fo]))
        off += fo
    return views


def init_network(arch: ArchSpec, seed) -> Network:
    """Seeded init: weights uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero.

    `seed` is an int or a np.random.Generator, which np.random.default_rng passes
    through and this draws from.
    """
    rng = np.random.default_rng(seed)
    dims = arch.layer_dims
    chunks = []
    for i in range(len(dims) - 1):
        fi, fo = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fi)
        chunks.append(rng.uniform(-bound, bound, size=fi * fo))
        chunks.append(np.zeros(fo))
    return Network(arch, np.concatenate(chunks))


def _features(net: Network, features):
    """The feature rule of forward, every loss and every evaluation: float64 N x D rows, N >= 1."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or not len(x) or x.shape[1] != net.arch.input_dim:
        raise ValueError(f"features must be N >= 1 rows of {net.arch.input_dim}, got {x.shape}")
    return x


def _forward_cached(net: Network, features: np.ndarray, layers=None):
    """Forward pass keeping per-layer inputs and pre-activations for backprop.

    This is the one forward primitive: every other forward goes through it, and
    without `layers` it checks `features` by the feature rule (_features).  `layers`
    may pass precomputed (W, b) views of a stack of K nets, which then take
    K x N x input_dim float64 features, unchecked; `net` is then unused.
    """
    if layers is None:
        a = _features(net, features)
        layers = net.layers()
    else:
        a = features  # a Trainer's own float64 (K, N, input_dim) block
    layer_inputs = []
    pre_acts = []
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        layer_inputs.append(a)
        z = a @ w
        z += b
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if i < last else z
    return a, layer_inputs, pre_acts


def _backward_into(grad_layers, layers, layer_inputs, pre_acts, delta):
    """Backpropagate the logit gradient `delta` (or a stack of them) into the views `grad_layers`."""
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(layer_inputs[i].mT, delta, out=gw)
        np.add.reduce(delta, axis=-2, keepdims=True, out=gb)
        if i > 0:
            delta = delta @ layers[i][0].mT
            delta *= pre_acts[i - 1] > 0.0


def forward(net: Network, features: np.ndarray) -> np.ndarray:
    """Logits for a batch of feature rows."""
    logits, _, _ = _forward_cached(net, features)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; accepts a vector or a matrix.  Non-finite logits
    raise DivergenceError (check_finite)."""
    z = np.asarray(logits, dtype=np.float64)
    check_finite(z, "logits")
    return softmax_finite(z)


def softmax_finite(z, out=None):
    """softmax of logits already known to be finite, without re-scanning them.

    Works in place on one buffer: `out` (same shape as `z`) if given, else a
    new array.  `z` is left untouched.
    """
    out = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def onehot(labels, num_classes):
    """One-hot rows of 1-d integer labels in range(num_classes)."""
    labels = np.asarray(labels)
    y = np.zeros((labels.size, num_classes))
    y[np.arange(labels.size), labels] = 1.0
    return y


def _labels(labels, n, num_classes):
    """`labels` as an array, once they are n integers in range(num_classes): the one label
    rule of every loss and every evaluation."""
    labels = np.asarray(labels)
    if (labels.shape != (n,) or labels.dtype.kind not in "iu"
            or ((labels < 0) | (labels >= num_classes)).any()):
        raise ValueError(f"labels must be {n} integers in range({num_classes})")
    return labels


def _targets(shape, labels=None, teacher_probs=None):
    """loss_value's and loss_gradient's checked target blocks for n x num_classes logits of rows
    _features passed, in loss order: a one-hot block of `labels` (checked by _labels), then
    `teacher_probs` (n x num_classes).  At least one target is required."""
    n, num_classes = shape
    targets = []
    if labels is not None:
        targets.append(onehot(_labels(labels, n, num_classes), num_classes))
    if teacher_probs is not None:
        targets.append(np.asarray(teacher_probs, dtype=np.float64))
        if targets[-1].shape != shape:
            raise ValueError("teacher_probs shape mismatch")
    if not targets:
        raise ValueError("need labels, teacher_probs, or both")
    return targets


def kl_divergence(teacher_logits: np.ndarray, student_logits: np.ndarray) -> float:
    """Mean row-wise KL(softmax(teacher) || softmax(student)), shapes compared after softmax."""
    p, q = softmax(teacher_logits), softmax(student_logits)
    if p.shape != q.shape:
        raise ValueError("teacher and student logits must have identical shapes")
    return float(_kl_terms(p, q).mean())


def _kl_terms(p, q):
    """Per-row KL(p || q) of probability rows; zero entries of p contribute 0 (both logs are
    floored, so each ratio is finite, and a row's largest entry keeps its sum off -0.0)."""
    ratio = np.log(np.maximum(p, LOG_FLOOR)) - np.log(np.maximum(q, LOG_FLOOR))
    return (p * ratio).sum(axis=-1)


def loss_value(net: Network, features, labels=None, teacher_probs=None) -> float:
    """Scalar training loss: the sum of each target's batch-mean row term, CE toward `labels`
    and KL from `teacher_probs`, over one softmax; at least one target is required."""
    logits = forward(net, features)
    targets = _targets(logits.shape, labels, teacher_probs)
    return sum(float(t.mean()) for t in row_terms(softmax(logits), *targets))


def loss_gradient(net: Network, features, labels=None, teacher_probs=None) -> np.ndarray:
    """Flat gradient of loss_value w.r.t. net.params: a guarded one-member Trainer's gradient,
    by the training step's own path (probs, logit_delta toward the target blocks,
    _backward_into) on rows _features passed.  Non-finite logits raise DivergenceError."""
    x = _features(net, features)
    targets = _targets((len(x), net.arch.num_classes), labels, teacher_probs)
    trainer = Trainer([net], 1.0, guard={})
    layers, grad_layers, _, grad = views = trainer.views(slice(1))
    q, layer_inputs, pre_acts = trainer.probs(x[None], None, views=views)
    _backward_into(grad_layers, layers, layer_inputs, pre_acts, logit_delta(q, *targets))
    return grad[0]


def logit_delta(q, *targets):
    """Batch-mean logit gradient of the training loss from its softmax rows `q`.

    Each target is a block of rows like `q` (a one-hot block for CE, a
    teacher's probabilities for KL) and adds (q - target); the sum is divided
    by the batch size.  A one-hot block gives the same IEEE arithmetic as
    subtracting 1.0 at each row's label.  A K x N stack of batches works alike.
    """
    delta = q - targets[0]
    for target in targets[1:]:
        delta += q - target
    delta /= q.shape[-2]
    return delta


def row_terms(q, *targets):
    """Per-row loss terms of the softmax rows `q`: each target block's KL(target || q), in
    target order.

    The targets are logit_delta's: a one-hot block's KL is the CE toward its
    labels, -log of the floored true-class probability, bit for bit (an
    exactly-zero term is +0.0).  The training loss of a batch is the sum over
    terms of each term's batch mean; see batch_means.
    """
    return [_kl_terms(target, q) for target in targets]


def batch_means(terms, batch_size):
    """Every epoch's batch losses from one member's per-row terms: (epochs, batches), each
    batch's mean of each term, summed in term order.

    Each term is an (epochs, n) block, n >= 1, of the member's rows in batch
    order.  The whole batches are one (epochs, n // batch_size, batch_size)
    reshape, the partial last batch one (epochs, 1, n % batch_size) reshape,
    each summed along its last axis; a contiguous sum divided by its length
    is the same arithmetic as .mean() of that batch alone.
    """
    epochs, n = terms[0].shape
    whole = n - n % batch_size
    parts = [(a, b, w) for a, b, w in ((0, whole, batch_size), (whole, n, n - whole)) if b > a]
    means = [np.concatenate([np.add.reduce(t[:, a:b].reshape(epochs, -1, w), axis=2) / w
                             for a, b, w in parts], axis=1) for t in terms]
    return sum(means[1:], means[0])


def check_finite(value, what, context=None, epoch=None, batch_index=None):
    """The per-step finiteness guard: DivergenceError carrying the `context` dict unless all
    finite.  A batch's epoch and batch_index join the context only when the check fails.

    nets' one finiteness scan: a guarded Trainer's per-step guards, run only in
    the replay of a failed unguarded pass (per_epoch_checked) so that the
    error names the first failing step; Trainer.trained(), in both passes;
    and the checks of evaluations and teachers.
    """
    if not np.logical_and.reduce(np.isfinite(value), axis=None):
        where = {} if epoch is None else {"epoch": epoch, "batch_index": batch_index}
        context = {**(context or {}), **where}
        named = ", ".join(f"{k}={v}" for k, v in context.items())
        raise DivergenceError(f"non-finite {what}" + (f" ({named})" if named else ""), **context)


def check_epoch(probs):
    """Raise DivergenceError unless every softmax block in `probs` is > 0.

    A NaN, +inf or -inf logit leaves a NaN or an exact 0 in its softmax row,
    so this fails on every epoch whose logits a per-step guard would refuse.
    Non-finite parameters stay non-finite under SGD, so Trainer.trained() sees
    them at the end of the call.  A healthy softmax that underflows to an
    exact 0 fails too; its guarded replay then returns the same result.
    """
    if not all(q.min() > 0.0 for q in probs):
        raise DivergenceError("a softmax block failed its per-epoch check")


def per_epoch_checked(call):
    """call(guarded) unguarded, and again guarded only if needed.

    call(False) runs under np.errstate(all="ignore") without per-step guards,
    checks its softmax blocks once per epoch (check_epoch) and its parameters
    once, in Trainer.trained(), and both raise DivergenceError.  If the pass
    raises any DivergenceError, call(True) runs again from the same unchanged inputs,
    with guarded Trainers and under the caller's errstate: it raises exactly
    the per-step error, with numpy's warnings, or returns the guarded result.
    An unguarded pass's errors never reach the caller, so they need not name
    anything.
    """
    try:
        with np.errstate(all="ignore"):
            return call(False)
    except DivergenceError:
        pass
    return call(True)


def sgd_step(net: Network, grad: np.ndarray, lr: float) -> Network:
    """One vanilla gradient step; rejects non-finite gradients."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != net.params.shape:
        raise ValueError("gradient length mismatch")
    if not 0 < lr < math.inf:
        raise ValueError("learning rate must be positive and finite")
    check_finite(grad, "gradient")
    return Network(net.arch, net.params - lr * grad)


class Trainer:
    """K >= 1 private network copies: the rows of one (K, P) block, stepped in place by SGD.

    Steps use (W, b) views into the block (views()) and one reused gradient
    block, so no Network exists until trained().  A stacked step is, member
    by member, a one-member trainer's step (np.matmul runs each slice as a
    2-D call would), and loss_gradient is a one-member trainer's gradient.

    A guarded trainer checks every step's logits and gradient (check_finite),
    and its errors carry `guard`, the context dict that names the client and
    round.  An unguarded trainer (guard None) has no per-step checks: its
    epoch loop checks the softmax blocks once per epoch (check_epoch).  In
    both kinds, trained() is the one check of the parameters.  An unguarded
    trainer's failed check or any error replays the call guarded
    (per_epoch_checked), which raises the first failing step's error.
    """

    def __init__(self, members, lr: float, guard=None, logits="logits"):
        """`members`: same-architecture Networks, one member each; [net] * k holds k copies.
        `lr` is positive and finite, as the config requires; errors call the logits `logits`."""
        self.lr = lr
        self.guard = guard
        self.logits = logits
        self.arch = members[0].arch
        self.params = np.stack([m.params for m in members])
        self._grad = np.empty_like(self.params)

    def views(self, rows):
        """(layers, grad_layers, params, grad) of the members `rows`, a slice, as one stack."""
        p, g = self.params[rows], self._grad[rows]
        return _layer_views(self.arch, p), _layer_views(self.arch, g), p, g

    def probs(self, features, out, epoch=None, batch_index=None, *, views):
        """(softmax rows into `out` or a new array, layer_inputs, pre_acts) of the (K, N, .)
        `features` through the members of `views`; a guarded trainer checks the logits."""
        logits, layer_inputs, pre_acts = _forward_cached(None, features, views[0])
        if self.guard is not None:
            check_finite(logits, self.logits, self.guard, epoch, batch_index)
        return softmax_finite(logits, out=out), layer_inputs, pre_acts

    def step(self, layer_inputs, pre_acts, delta, epoch=None, batch_index=None, *, views):
        """Backpropagate `delta` through the cached forward and apply one SGD step; a guarded
        trainer checks the gradient."""
        layers, grad_layers, params, grad = views
        _backward_into(grad_layers, layers, layer_inputs, pre_acts, delta)
        if self.guard is not None:
            check_finite(grad, "gradient", self.guard, epoch, batch_index)
        grad *= self.lr
        params -= grad

    def trained(self):
        """One network per member, owning a copy of its row, once the rows are checked finite:
        the call's one parameter check (a finite gradient can still overflow lr * grad)."""
        check_finite(self.params, "parameters", self.guard)
        return [Network(self.arch, p.copy()) for p in self.params]


def _scored(net: Network, features, labels, context):
    """(top-1 accuracy, logits, labels) of one forward; argmax ties go to the lowest class index,
    and the returned labels are the ones _labels checked before they were compared."""
    logits = forward(net, features)
    # Finite parameters can still overflow the logits on unseen rows.
    check_finite(logits, "evaluation logits", context)
    labels = _labels(labels, *logits.shape)
    return float(np.mean(np.argmax(logits, axis=1) == labels)), logits, labels


def accuracy(net: Network, features, labels, **context) -> float:
    """Top-1 accuracy (argmax ties to the lowest class index)."""
    return _scored(net, features, labels, context)[0]


def evaluate(net: Network, features, labels, **context):
    """Top-1 accuracy and mean CE loss, from _scored's one forward, finiteness and label check."""
    acc, logits, labels = _scored(net, features, labels, context)
    return acc, float(row_terms(softmax_finite(logits), onehot(labels, logits.shape[1]))[0].mean())
