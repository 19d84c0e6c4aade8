"""Minimal dense feed-forward network engine with hand-derived gradients.

Parameters live in one flat float64 vector per network, in canonical order:
layer 0 weights (fan_in x fan_out, row-major), layer 0 biases, layer 1
weights, ...  Hidden layers use ReLU; the output layer is affine.
"""

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
                f"params length {self.params.size} != {self.arch.parameter_count()}"
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


def init_network(arch: ArchSpec, seed: int) -> Network:
    """Seeded init: weights uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero."""
    rng = np.random.default_rng(seed)
    dims = arch.layer_dims
    chunks = []
    for i in range(len(dims) - 1):
        fi, fo = dims[i], dims[i + 1]
        bound = 1.0 / np.sqrt(fi)
        chunks.append(rng.uniform(-bound, bound, size=fi * fo))
        chunks.append(np.zeros(fo))
    return Network(arch, np.concatenate(chunks))


def _forward_cached(net: Network, features: np.ndarray, layers=None):
    """Forward pass keeping per-layer inputs and pre-activations for backprop.

    This is the one forward primitive: every other forward goes through it.
    `layers` may pass precomputed (W, b) views of `net`, or of a stack of K
    nets like it, which then take K x N x input_dim features.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != net.arch.input_dim:
        raise ValueError(
            f"features must be N x {net.arch.input_dim}, got {x.shape}"
        )
    if layers is None:
        layers = net.layers()
    layer_inputs = []
    pre_acts = []
    a = x
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
    """Row-wise softmax with max-subtraction; accepts a vector or a matrix."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
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
    """One-hot rows of 1-d integer labels; rejects labels out of range."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d integer array")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("label out of range")
    y = np.zeros((labels.size, num_classes))
    y[np.arange(labels.size), labels] = 1.0
    return y


def cross_entropy(logits: np.ndarray, labels) -> float:
    """Mean over the batch of -log softmax probability of the true class."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree on batch size")
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise ValueError("label out of range")
    return float(_ce_terms(softmax(logits), labels).mean())


def _ce_terms(q, labels):
    """Per-row -log of the true class's probability (floored at LOG_FLOOR)."""
    picked = q[np.arange(len(labels)), labels]
    return -np.log(np.maximum(picked, LOG_FLOOR))


def kl_divergence(teacher_logits: np.ndarray, student_logits: np.ndarray) -> float:
    """Mean row-wise KL(softmax(teacher) || softmax(student)); teacher is constant."""
    t = np.asarray(teacher_logits, dtype=np.float64)
    s = np.asarray(student_logits, dtype=np.float64)
    if t.shape != s.shape:
        raise ValueError("teacher and student logits must have identical shapes")
    return kl_from_probs(softmax(t), softmax(s))


def kl_from_probs(teacher_probs: np.ndarray, student_probs: np.ndarray) -> float:
    """Mean row-wise KL between probability rows; zero teacher entries contribute 0."""
    p = np.asarray(teacher_probs, dtype=np.float64)
    q = np.asarray(student_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("probability arrays must have identical shapes")
    return float(_kl_terms(p, q).mean())


def _kl_terms(p, q):
    """Per-row KL(p || q); zero entries of p contribute 0."""
    ratio = np.log(np.maximum(p, LOG_FLOOR)) - np.log(np.maximum(q, LOG_FLOOR))
    return np.where(p > 0.0, p * ratio, 0.0).sum(axis=-1)


def loss_value(net: Network, features, labels=None, teacher_probs=None) -> float:
    """Scalar training loss: CE (if labels given) + KL from teacher (if given)."""
    logits = forward(net, features)
    total = 0.0
    if labels is not None:
        total += cross_entropy(logits, labels)
    if teacher_probs is not None:
        total += kl_from_probs(teacher_probs, softmax(logits))
    return total


def loss_gradient(net: Network, features, labels=None, teacher_probs=None) -> np.ndarray:
    """Flat gradient of loss_value w.r.t. net.params.

    At the logits layer the per-row gradient is (q - onehot) + (q - teacher),
    averaged over the batch, then backpropagated through the ReLU stack.
    """
    if labels is None and teacher_probs is None:
        raise ValueError("need labels, teacher_probs, or both")
    logits, layer_inputs, pre_acts = _forward_cached(net, features)
    n, c = logits.shape
    q = softmax(logits)
    delta = np.zeros_like(q)
    if labels is not None:
        delta += q - onehot(labels, c)
    if teacher_probs is not None:
        p = np.asarray(teacher_probs, dtype=np.float64)
        if p.shape != q.shape:
            raise ValueError("teacher_probs shape mismatch")
        delta += q - p
    delta /= n
    grad = np.empty_like(net.params)
    _backward_into(_layer_views(net.arch, grad), net.layers(), layer_inputs, pre_acts, delta)
    return grad


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


def row_terms(q, labels=None, teacher_probs=None):
    """Per-row loss terms of the softmax rows `q`, in loss order.

    CE toward `labels` (if given), then KL from `teacher_probs` (if given).
    The training loss of a batch is the sum over terms of each term's batch
    mean; see batch_means.
    """
    terms = []
    if labels is not None:
        terms.append(_ce_terms(q, labels))
    if teacher_probs is not None:
        terms.append(_kl_terms(teacher_probs, q))
    return terms


def batch_means(terms, bounds):
    """Each batch's loss from per-row terms: the batch mean of each term, summed in order.

    `bounds` are the batches' (start, stop) rows.  The sum of a contiguous
    slice divided by its length is the same arithmetic as .mean() of that
    batch alone, so the losses equal those scored batch by batch.
    """
    losses = []
    for start, stop in bounds:
        loss = float(np.add.reduce(terms[0][start:stop])) / (stop - start)
        for t in terms[1:]:
            loss += float(np.add.reduce(t[start:stop])) / (stop - start)
        losses.append(loss)
    return losses


def _divergence(what, context):
    where = ", ".join(f"{k}={v}" for k, v in context.items())
    return DivergenceError(f"non-finite {what}" + (f" ({where})" if where else ""), **context)


def check_finite(value, what, context=None, epoch=None, batch_index=None):
    """The one finiteness guard: DivergenceError carrying the `context` dict unless all finite.

    A batch's epoch and batch_index join the context only when the check fails.
    """
    if not np.logical_and.reduce(np.isfinite(value), axis=None):
        where = {} if epoch is None else {"epoch": epoch, "batch_index": batch_index}
        raise _divergence(what, {**(context or {}), **where})


def check_rows_finite(terms, bounds, what, **context):
    """check_finite over per-row terms of several batches at once.

    The DivergenceError names, as batch_index, the first batch of `bounds`
    holding a non-finite row in any of the terms.
    """
    finite = np.logical_and.reduce([np.isfinite(t) for t in terms])
    if not finite.all():
        row = int(np.argmin(finite))
        batch = next(b for b, (_, stop) in enumerate(bounds) if row < stop)
        raise _divergence(what, dict(context, batch_index=batch))


def sgd_step(net: Network, grad: np.ndarray, lr: float) -> Network:
    """One vanilla gradient step; rejects non-finite gradients."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != net.params.shape:
        raise ValueError("gradient length mismatch")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    check_finite(grad, "gradient")
    return Network(net.arch, net.params - lr * grad)


class Trainer:
    """`copies` private copies of a network: the rows of one (K, P) block, stepped in place by SGD.

    Steps use (W, b) views into the block (views()) and one reused gradient
    block, so a step allocates no Network.  A stacked step is, member by
    member, the arithmetic of sgd_step(net, loss_gradient(...), lr):
    np.matmul runs each slice as a 2-D call would.
    """

    def __init__(self, net: Network, lr: float, copies=1):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.params = np.repeat(net.params[None], copies, axis=0)
        self._grad = np.empty_like(self.params)
        self.nets = [Network(net.arch, p) for p in self.params]
        self.net = self.nets[0]
        self._one = self.views(0)

    def views(self, rows):
        """(layers, grad_layers, params, grad) of member `rows` alone (an int: 2-D
        views) or of the first f members as one stack (slice(f))."""
        p, g = self.params[rows], self._grad[rows]
        return _layer_views(self.net.arch, p), _layer_views(self.net.arch, g), p, g

    def probs(self, features, out, what, context=None, epoch=None, batch_index=None, views=None):
        """(softmax rows into `out` or a new array, layer_inputs, pre_acts) of `views`' members
        (default: member 0 alone); checks the logits."""
        layers = (views or self._one)[0]
        logits, layer_inputs, pre_acts = _forward_cached(self.net, features, layers)
        check_finite(logits, what, context, epoch, batch_index)
        return softmax_finite(logits, out=out), layer_inputs, pre_acts

    def step(self, layer_inputs, pre_acts, delta, context=None, epoch=None, batch_index=None,
             views=None):
        """Backpropagate `delta` through the cached forward and apply one SGD step."""
        layers, grad_layers, params, grad = views or self._one
        _backward_into(grad_layers, layers, layer_inputs, pre_acts, delta)
        check_finite(grad, "gradient", context, epoch, batch_index)
        grad *= self.lr
        params -= grad

    def trained(self, **context):
        """The trained networks, one per member, once their parameters are checked finite
        (a finite gradient can still overflow lr * grad on the last step)."""
        check_finite(self.params, "parameters", context)
        return self.nets


def _scored(net: Network, features, labels, context):
    """(top-1 accuracy, logits) of one forward; argmax ties go to the lowest class index."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = forward(net, features)
    # Finite parameters can still overflow the logits on unseen rows.
    check_finite(logits, "evaluation logits", context)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels))), logits


def accuracy(net: Network, features, labels, **context) -> float:
    """Top-1 accuracy (argmax ties to the lowest class index)."""
    return _scored(net, features, labels, context)[0]


def evaluate(net: Network, features, labels, **context):
    """Top-1 accuracy and mean CE loss, from one forward."""
    acc, logits = _scored(net, features, labels, context)
    return acc, cross_entropy(logits, labels)
