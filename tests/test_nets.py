import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fedkemf import nets
from fedkemf.errors import DivergenceError


def finite_difference_gradient(net, x, y=None, teacher=None, eps=1e-5):
    """Central-difference oracle for loss_gradient, independent of backprop."""
    grad = np.zeros_like(net.params)
    for i in range(net.params.size):
        plus = net.params.copy()
        plus[i] += eps
        minus = net.params.copy()
        minus[i] -= eps
        lp = nets.loss_value(nets.Network(net.arch, plus), x, y, teacher)
        lm = nets.loss_value(nets.Network(net.arch, minus), x, y, teacher)
        grad[i] = (lp - lm) / (2 * eps)
    return grad


def max_relative_error(a, b):
    scale = np.maximum(1e-6, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / scale))


class TestArchSpec:
    def test_parameter_count_no_hidden(self):
        assert nets.ArchSpec(2, (), 2).parameter_count() == 6

    def test_parameter_count_mnist_sized(self):
        assert nets.ArchSpec(784, (64,), 10).parameter_count() == 785 * 64 + 65 * 10 == 50890

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nets.ArchSpec(0, (), 2)
        with pytest.raises(ValueError):
            nets.ArchSpec(2, (0,), 2)
        with pytest.raises(ValueError):
            nets.ArchSpec(2, (), 1)


class TestInit:
    def test_lengths(self):
        assert nets.init_network(nets.ArchSpec(2, (), 2), 7).params.size == 6
        assert nets.init_network(nets.ArchSpec(784, (64,), 10), 0).params.size == 50890

    def test_deterministic(self):
        arch = nets.ArchSpec(5, (4, 3), 2)
        a = nets.init_network(arch, 42)
        b = nets.init_network(arch, 42)
        assert np.array_equal(a.params, b.params)
        c = nets.init_network(arch, 43)
        assert not np.array_equal(a.params, c.params)

    def test_biases_zero_weights_bounded(self):
        arch = nets.ArchSpec(9, (4,), 3)
        net = nets.init_network(arch, 1)
        for w, b in net.layers():
            assert np.all(b == 0.0)
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(w.shape[0]))


class TestForward:
    def test_zero_params_zero_logits(self):
        arch = nets.ArchSpec(3, (), 2)
        net = nets.Network(arch, np.zeros(arch.parameter_count()))
        out = nets.forward(net, np.ones((4, 3)))
        assert np.all(out == 0.0)

    def test_hand_affine(self):
        # 1 -> 2, weights [[1, -1]], biases [0, 0]
        arch = nets.ArchSpec(1, (), 2)
        net = nets.Network(arch, np.array([1.0, -1.0, 0.0, 0.0]))
        out = nets.forward(net, np.array([[3.0]]))
        assert np.allclose(out, [[3.0, -3.0]])

    def test_shape_contract(self):
        arch = nets.ArchSpec(6, (5,), 4)
        net = nets.init_network(arch, 0)
        out = nets.forward(net, np.random.default_rng(0).standard_normal((7, 6)))
        assert out.shape == (7, 4)

    def test_rejects_dimension_mismatch(self):
        net = nets.init_network(nets.ArchSpec(6, (), 4), 0)
        with pytest.raises(ValueError):
            nets.forward(net, np.zeros((3, 5)))


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(nets.softmax([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_overflow_safe(self):
        out = nets.softmax([1000.0, 0.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_two_logit_values(self):
        assert np.allclose(nets.softmax([1.0, 2.0]), [0.26894142, 0.73105858], atol=1e-8)

    def test_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.standard_normal((4, 6)) * 10
            p = nets.softmax(z)
            assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
            shifted = nets.softmax(z + rng.standard_normal((4, 1)))
            assert np.allclose(p, shifted, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(DivergenceError, match=r"^non-finite logits$"):
            nets.softmax([np.nan, 0.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_every_loss_entry_point_raises_divergence_on_non_finite_logits(bad):
    """softmax, kl_divergence, loss_value and loss_gradient check logits in one place
    (check_finite) and raise the same typed error; evaluate and accuracy check theirs in
    _scored (test_accuracy_names_context_on_divergence)."""
    logits = np.array([[0.0, 1.0], [bad, 0.0]])
    net = nets.Network(nets.ArchSpec(2, (), 2), np.array([1.0, -1.0, 2.0, 0.5, 0.0, 0.0]))
    x = np.array([[0.0, 1.0], [bad, 0.0]])  # the second row's logits are non-finite
    calls = (lambda: nets.softmax(logits), lambda: nets.kl_divergence(logits, np.zeros((2, 2))),
             lambda: nets.kl_divergence(np.zeros((2, 2)), logits),
             lambda: nets.loss_value(net, x, [0, 1]),
             lambda: nets.loss_value(net, x, teacher_probs=np.full((2, 2), 0.5)),
             lambda: nets.loss_gradient(net, x, [0, 1]))
    for call in calls:
        with np.errstate(invalid="ignore"), \
                pytest.raises(DivergenceError, match=r"^non-finite logits$"):
            call()


# below range, = num_classes, too short, and one label that would broadcast over the rows
BAD_LABELS = ([0, -1, 1], [0, 3, 1], [0, 1], [1])


@pytest.mark.parametrize("labels", BAD_LABELS)
def test_every_label_entry_point_rejects_bad_labels(labels):
    """loss_value, loss_gradient, evaluate and accuracy check their labels through one rule:
    a label outside range(num_classes) or a label vector of the wrong length is refused with
    the same message, never read as another class or broadcast over the rows."""
    net = nets.init_network(nets.ArchSpec(2, (4,), 3), 0)
    x = np.random.default_rng(0).standard_normal((3, 2))
    teacher = np.full((3, 3), 1 / 3)
    calls = (lambda: nets.loss_value(net, x, labels), lambda: nets.loss_gradient(net, x, labels),
             lambda: nets.loss_value(net, x, labels, teacher),
             lambda: nets.loss_gradient(net, x, labels, teacher),
             lambda: nets.evaluate(net, x, labels), lambda: nets.accuracy(net, x, labels))
    for call in calls:
        with pytest.raises(ValueError, match=r"^labels must be 3 integers in range\(3\)$"):
            call()


def test_loss_value_needs_a_target():
    net = nets.init_network(nets.ArchSpec(2, (), 2), 0)
    with pytest.raises(ValueError, match="need labels, teacher_probs, or both"):
        nets.loss_value(net, np.zeros((3, 2)))


# Any finite logit, with the extremes drawn often: a row holding both makes the
# max-subtraction overflow to -inf.
FINITE_LOGIT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([1.7e308, -1.7e308, 0.0]))


@st.composite
def logits_labels_logits(draw):
    n, c = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    return (draw(hnp.arrays(np.float64, (n, c), elements=FINITE_LOGIT)), labels,
            draw(hnp.arrays(np.float64, (n, c), elements=FINITE_LOGIT)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(logits_labels_logits())
def test_loss_terms_of_finite_logits_are_finite(drawn):
    """The training loops check logits, not loss rows: softmax of finite logits is finite
    (each exp is in [0, 1], each row sums to at least 1), and the CE and KL terms floor
    their logs, so no scored row can be non-finite."""
    z, labels, other = drawn
    with np.errstate(over="ignore"):
        q, p = nets.softmax_finite(z), nets.softmax_finite(other)
    terms = nets.row_terms(q, nets.onehot(labels, z.shape[1]), p)
    assert len(terms) == 2 and all(np.isfinite(t).all() for t in terms)


def old_ce_terms(q, labels):
    """The per-row CE term row_terms computed before a one-hot block's KL replaced it."""
    return -np.log(np.maximum(q[np.arange(len(labels)), labels], nets.LOG_FLOOR))


# A probability drawn anywhere in [0, 1], with the edges drawn often: exactly 0 or 1,
# LOG_FLOOR itself and values below it down to the smallest subnormal.
PROB = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [0.0, 1.0, nets.LOG_FLOOR, 5e-13, 1e-300, 5e-324, 1.0 - 2 ** -53, 0.5]))


@st.composite
def rows_and_labels(draw):
    """(q, labels): each row a saturated one (1.0 at its label, 0 elsewhere) or drawn
    entry by entry."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(2, 8))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    q = draw(hnp.arrays(np.float64, (n, c), elements=PROB))
    saturated = draw(hnp.arrays(np.bool_, n))
    q[saturated] = nets.onehot(labels[saturated], c)
    return q, labels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows_and_labels())
def test_kl_from_a_onehot_block_is_the_old_ce_term(drawn):
    """row_terms toward a one-hot block gives the old CE term bit for bit, except that an
    exactly-zero term may be +0.0 where the old term was -0.0."""
    q, labels = drawn
    (got,) = nets.row_terms(q, nets.onehot(labels, q.shape[1]))
    want = old_ce_terms(q, labels)
    assert np.abs(got).tobytes() == np.abs(want).tobytes()


def old_kl_terms(p, q):
    """The per-row KL _kl_terms computed before it dropped its mask of p's zero entries."""
    ratio = np.log(np.maximum(p, nets.LOG_FLOOR)) - np.log(np.maximum(q, nets.LOG_FLOOR))
    return np.where(p > 0.0, p * ratio, 0.0).sum(axis=-1)


@st.composite
def probability_rows(draw, n, c):
    """n rows of c probabilities, each row drawn as a softmax (whose extreme logits leave
    exact zeros, and logits within 800 of each other entries below LOG_FLOOR), a one-hot
    row or a vote-fraction teacher row (majority_vote's)."""
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["softmax", "onehot", "votes"]))
        if kind == "softmax":
            z = draw(hnp.arrays(np.float64, c, elements=st.one_of(FINITE_LOGIT,
                                                                  st.floats(-800.0, 800.0))))
            with np.errstate(over="ignore"):
                rows.append(nets.softmax_finite(z))
        elif kind == "onehot":
            rows.append(nets.onehot([draw(st.integers(0, c - 1))], c)[0])
        else:
            votes = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=10))
            rows.append(np.bincount(votes, minlength=c) / len(votes))
    return np.array(rows)


@st.composite
def two_probability_blocks(draw):
    n, c = draw(st.integers(1, 8)), draw(st.integers(2, 8))
    return draw(probability_rows(n, c)), draw(probability_rows(n, c))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(two_probability_blocks())
def test_kl_terms_without_the_mask_are_the_masked_terms(drawn):
    """Without np.where, every row of probabilities keeps its old KL bit for bit, the sign
    of a zero included, in both argument orders."""
    p, q = drawn
    for a, b in ((p, q), (q, p)):
        assert nets._kl_terms(a, b).tobytes() == old_kl_terms(a, b).tobytes()


@st.composite
def nets_rows_labels(draw):
    """(net, x, labels): a net of 0-2 hidden layers with bounded parameters, 1-20 rows."""
    dims = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
    arch = nets.ArchSpec(dims[0], tuple(dims[1:-1]), max(dims[-1], 2))
    bounded = st.floats(-4.0, 4.0, allow_nan=False)
    params = draw(hnp.arrays(np.float64, arch.parameter_count(), elements=bounded))
    n = draw(st.integers(1, 20))
    x = draw(hnp.arrays(np.float64, (n, arch.input_dim), elements=bounded))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, arch.num_classes - 1)))
    return nets.Network(arch, params), x, labels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nets_rows_labels())
def test_evaluate_loss_is_the_training_loss(drawn):
    """evaluate's mean CE is loss_value's toward the labels alone, bit for bit."""
    net, x, labels = drawn
    loss = nets.evaluate(net, x, labels)[1]
    assert np.float64(loss).tobytes() == np.float64(nets.loss_value(net, x, labels)).tobytes()


def evaluated_ce(logits_row, labels):
    """evaluate's mean CE on a bias-only net (zero weights, biases = `logits_row`) over one
    zero input row per label, so that every row's logits are `logits_row`."""
    net = nets.Network(nets.ArchSpec(1, (), 2), np.array([0.0, 0.0, *logits_row]))
    return nets.evaluate(net, np.zeros((len(labels), 1)), labels)[1]


class TestCrossEntropy:
    def test_uniform_prediction(self):
        assert evaluated_ce([0.0, 0.0], [0]) == pytest.approx(np.log(2))

    def test_certain_prediction_goes_to_zero(self):
        assert evaluated_ce([50.0, 0.0], [0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert evaluated_ce([1.0, 2.0], [1]) == pytest.approx(0.31326, abs=1e-5)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            evaluated_ce([0.0, 0.0], [2])

    def test_mean_over_batch(self):
        assert evaluated_ce([0.0, 0.0], [0, 1]) == pytest.approx(np.log(2))


class TestKlDivergence:
    def test_identical_is_zero(self):
        z = np.array([[1.0, -2.0, 0.5]])
        assert nets.kl_divergence(z, z) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        got = nets.kl_divergence(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert got == pytest.approx(0.12011, abs=1e-4)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = rng.standard_normal((3, 5)) * 5
            s = rng.standard_normal((3, 5)) * 5
            assert nets.kl_divergence(t, s) >= 0.0

    def test_shift_invariance_zero_case(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 3))
        shifted = z + rng.standard_normal((4, 1))
        assert nets.kl_divergence(z, shifted) < 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            nets.kl_divergence(np.zeros((2, 3)), np.zeros((2, 4)))


class TestLossGradient:
    def test_logits_layer_identity_no_teacher(self):
        # Zero-hidden net with zero params gives uniform logits; gradient of CE
        # w.r.t. biases is the mean per-row (q - onehot).
        arch = nets.ArchSpec(3, (), 4)
        net = nets.Network(arch, np.zeros(arch.parameter_count()))
        x = np.zeros((1, 3))
        g = nets.loss_gradient(net, x, [0])
        bias_grad = g[-4:]
        assert np.allclose(bias_grad, [0.25 - 1.0, 0.25, 0.25, 0.25])

    def test_teacher_equal_to_self_adds_nothing(self):
        arch = nets.ArchSpec(4, (3,), 3)
        net = nets.init_network(arch, 9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        own = nets.softmax(nets.forward(net, x))
        assert np.allclose(
            nets.loss_gradient(net, x, y),
            nets.loss_gradient(net, x, y, teacher_probs=own),
            atol=1e-12,
        )

    def test_combined_logits_gradient_identity(self):
        # On a zero-hidden net the bias gradient is exactly the batch mean of
        # (q - onehot) + (q - p).
        arch = nets.ArchSpec(2, (), 3)
        net = nets.init_network(arch, 3)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        y = rng.integers(0, 3, 6)
        p = nets.softmax(rng.standard_normal((6, 3)))
        q = nets.softmax(nets.forward(net, x))
        onehot = np.zeros((6, 3))
        onehot[np.arange(6), y] = 1.0
        expected_bias = ((q - onehot) + (q - p)).mean(axis=0)
        assert np.allclose(nets.loss_gradient(net, x, y, p)[-3:], expected_bias)

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 8)])
    def test_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(hash(hidden) % (2**32))
        for seed in range(5):
            arch = nets.ArchSpec(4, hidden, 3)
            while True:
                net = nets.init_network(arch, seed)
                x = rng.standard_normal((6, 4))
                # Resample if any hidden pre-activation sits on the ReLU kink,
                # where central differences are not valid.
                _, _, pre_acts = nets._forward_cached(net, x)
                if all(np.min(np.abs(z)) > 1e-3 for z in pre_acts[:-1]) or not hidden:
                    break
                seed += 1000
            y = rng.integers(0, 3, 6)
            teacher = nets.softmax(rng.standard_normal((6, 3)))
            for t in (None, teacher):
                analytic = nets.loss_gradient(net, x, y, t)
                numeric = finite_difference_gradient(net, x, y, t)
                assert max_relative_error(analytic, numeric) < 1e-4

    def test_rejects_bad_arguments(self):
        net = nets.init_network(nets.ArchSpec(2, (3,), 4), 0)
        x = np.zeros((5, 2))
        for args in ((x,), (np.zeros((5, 3)), [0] * 5), (np.zeros((1, 5, 2)), [0] * 5),
                     (x, None, np.full((5, 3), 1 / 3)), (x, [0] * 5, np.full((4, 4), 0.25))):
            with pytest.raises(ValueError):
                nets.loss_gradient(net, *args)

    def test_non_finite_logits_raise_divergence(self):
        net = nets.init_network(nets.ArchSpec(2, (3,), 2), 0)
        x = np.array([[1.0, 2.0], [np.inf, 0.0]])
        half = np.full((2, 2), 0.5)
        for labels, teacher in (([0, 1], None), (None, half), ([0, 1], half)):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(DivergenceError, match=r"^non-finite logits$"):
                nets.loss_gradient(net, x, labels, teacher)


def scalar_loss_gradient(net, features, labels=None, teacher_probs=None):
    """The scalar gradient loss_gradient computed before it became a one-member Trainer's:
    its own delta from zeros, += and /= n, backpropagated into a fresh flat vector."""
    logits, layer_inputs, pre_acts = nets._forward_cached(net, features)
    n, c = logits.shape
    q = nets.softmax(logits)
    delta = np.zeros_like(q)
    if labels is not None:
        delta += q - nets.onehot(labels, c)
    if teacher_probs is not None:
        delta += q - np.asarray(teacher_probs, dtype=np.float64)
    delta /= n
    grad = np.empty_like(net.params)
    nets._backward_into(nets._layer_views(net.arch, grad), net.layers(), layer_inputs, pre_acts,
                        delta)
    return grad


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hidden=st.lists(st.integers(1, 16), max_size=2), input_dim=st.integers(1, 16),
       n=st.integers(1, 40), classes=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_loss_gradient_equals_the_scalar_gradient(hidden, input_dim, n, classes, seed):
    """The one-member Trainer's gradient is the scalar one byte for byte: labels only, teacher
    only, and both."""
    rng = np.random.default_rng(seed)
    net = nets.init_network(nets.ArchSpec(input_dim, hidden, classes), rng)
    x = rng.standard_normal((n, input_dim)) * 3.0
    y = rng.integers(0, classes, n)
    teacher = nets.softmax(rng.standard_normal((n, classes)) * 3.0)
    for labels, t in ((y, None), (None, teacher), (y, teacher)):
        got = nets.loss_gradient(net, x, labels, t)
        assert got.shape == net.params.shape
        assert got.tobytes() == scalar_loss_gradient(net, x, labels, t).tobytes()


class TestSgdStep:
    def test_zero_grad_fixed_point(self):
        net = nets.init_network(nets.ArchSpec(2, (), 2), 0)
        stepped = nets.sgd_step(net, np.zeros_like(net.params), 0.1)
        assert np.array_equal(stepped.params, net.params)

    def test_one_step_arithmetic(self):
        arch = nets.ArchSpec(1, (), 2)
        net = nets.Network(arch, np.array([1.0, 1.0, 0.0, 0.0]))
        out = nets.sgd_step(net, np.array([1.0, -1.0, 0.0, 0.0]), 0.5)
        assert np.allclose(out.params, [0.5, 1.5, 0.0, 0.0])

    def test_two_steps_linear(self):
        net = nets.init_network(nets.ArchSpec(3, (), 2), 1)
        g = np.ones_like(net.params)
        twice = nets.sgd_step(nets.sgd_step(net, g, 0.1), g, 0.1)
        assert np.allclose(twice.params, net.params - 0.2 * g)

    def test_rejects_non_finite_grad(self):
        net = nets.init_network(nets.ArchSpec(2, (), 2), 0)
        bad = np.zeros_like(net.params)
        bad[0] = np.inf
        with pytest.raises(DivergenceError):
            nets.sgd_step(net, bad, 0.1)


class TestTrainer:
    def test_stack_of_different_networks_steps_each_as_alone(self):
        arch = nets.ArchSpec(3, (4,), 2)
        members = [nets.init_network(arch, s) for s in (1, 2)]
        before = [m.params.copy() for m in members]
        x = np.random.default_rng(0).standard_normal((2, 5, 3))
        target = np.eye(2)[[0, 1, 1, 0, 1]]
        stack = nets.Trainer(members, 0.1)
        views = stack.views(slice(2))
        q, inputs, pre = stack.probs(x, None, "logits", views=views)
        stack.step(inputs, pre, nets.logit_delta(q, target), views=views)
        for m, params, xk, trained in zip(members, before, x, stack.trained()):
            assert np.array_equal(m.params, params)  # the inputs are copied, not stepped
            alone = nets.sgd_step(m, nets.loss_gradient(m, xk, [0, 1, 1, 0, 1]), 0.1)
            assert np.array_equal(trained.params, alone.params)


class TestEvaluate:
    def test_tie_break_to_lowest_class(self):
        arch = nets.ArchSpec(2, (), 2)
        net = nets.Network(arch, np.zeros(arch.parameter_count()))
        labels = np.array([0, 0, 1, 1])
        acc, _ = nets.evaluate(net, np.zeros((4, 2)), labels)
        assert acc == 0.5  # everything predicted class 0

    def test_perfect_separator(self):
        # sign of x decides the class
        arch = nets.ArchSpec(1, (), 2)
        net = nets.Network(arch, np.array([-1.0, 1.0, 0.0, 0.0]))
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        acc, _ = nets.evaluate(net, x, np.array([0, 0, 1, 1]))
        assert acc == 1.0

    def test_range_contract(self):
        net = nets.init_network(nets.ArchSpec(3, (4,), 3), 17)
        rng = np.random.default_rng(17)
        acc, loss = nets.evaluate(net, rng.standard_normal((20, 3)), rng.integers(0, 3, 20))
        assert 0.0 <= acc <= 1.0
        assert loss >= 0.0

    def test_rejects_empty(self):
        net = nets.init_network(nets.ArchSpec(3, (), 2), 0)
        with pytest.raises(ValueError):
            nets.evaluate(net, np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            nets.accuracy(net, np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_accuracy_is_evaluates_first_value(self):
        net = nets.init_network(nets.ArchSpec(3, (4,), 3), 5)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((30, 3)), rng.integers(0, 3, 30)
        assert nets.accuracy(net, x, y) == nets.evaluate(net, x, y)[0]

    def test_accuracy_names_context_on_divergence(self):
        net = nets.Network(nets.ArchSpec(2, (), 2), np.full(6, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                nets.accuracy(net, np.full((3, 2), 1e308), np.zeros(3, dtype=int), round_index=4)
        assert err.value.round_index == 4


# Layer (fan_in, fan_out) shapes of the shipped configs: input 16, hidden
# 16 / 32 / 64 / 64,32, and 4 or 10 classes.
SHIPPED_LAYERS = [(16, 16), (16, 32), (16, 64), (64, 32),
                  (16, 4), (16, 10), (32, 4), (32, 10), (64, 4), (64, 10)]


class TestStackedProductsPremise:
    """Lockstep training relies on each slice of a stacked product being
    bit-identical to the 2-D product of that slice alone.  A numpy or BLAS
    change that breaks this fails here first."""

    @pytest.mark.parametrize("n", [1, 7, 13, 32])
    @pytest.mark.parametrize("fan_in, fan_out", SHIPPED_LAYERS)
    def test_per_slice_identical(self, fan_in, fan_out, n):
        self.check_stack(fan_in, fan_out, n, k=4)

    @pytest.mark.parametrize("n", [1, 7, 13, 32])
    @pytest.mark.parametrize("fan_in, fan_out", SHIPPED_LAYERS)
    def test_per_slice_identical_ten_wide(self, fan_in, fan_out, n):
        # kemf-many samples 10 clients a round; none of its stacks is higher
        self.check_stack(fan_in, fan_out, n, k=10)

    @pytest.mark.parametrize("n", [1, 7, 13, 32])
    @pytest.mark.parametrize("fan_in, fan_out", SHIPPED_LAYERS)
    def test_per_slice_identical_one_wide(self, fan_in, fan_out, n):
        # a lone member (a partial batch, or one client) steps as a (1, n, d) stack
        self.check_stack(fan_in, fan_out, n, k=1)

    @staticmethod
    def check_stack(fan_in, fan_out, n, k):
        seed = fan_in * 1000 + fan_out * 10 + n
        rng = np.random.default_rng(seed if k == 4 else (seed, k))
        # Laid out as the trainer lays them out: weights and gradients are
        # views into (K, P) blocks, inputs a row range of a padded (K, pad, d) block.
        block = rng.standard_normal((k, fan_in * fan_out + fan_out + 3))
        w = block[:, :fan_in * fan_out].reshape(k, fan_in, fan_out)
        b = block[:, None, fan_in * fan_out:fan_in * fan_out + fan_out]
        padded = rng.standard_normal((k, n + 5, fan_in))
        a = padded[:, 2:2 + n]
        delta = rng.standard_normal((k, n, fan_out))
        grad = np.empty_like(block)
        gw = grad[:, :fan_in * fan_out].reshape(k, fan_in, fan_out)
        gb = grad[:, None, fan_in * fan_out:fan_in * fan_out + fan_out]

        z = a @ w
        z += b
        np.matmul(a.mT, delta, out=gw)
        np.add.reduce(delta, axis=-2, keepdims=True, out=gb)
        back = delta @ w.mT
        for j in range(k):
            aj, wj, dj = (np.ascontiguousarray(v[j]) for v in (a, w, delta))
            zj = aj @ wj
            zj += b[j, 0]
            assert np.array_equal(z[j], zj)
            assert np.array_equal(gw[j], aj.T @ dj)
            assert np.array_equal(gb[j, 0], np.add.reduce(dj, axis=0))
            assert np.array_equal(back[j], dj @ wj.T)


@pytest.mark.parametrize("shape", ["partial_only", "whole_only", "whole_and_partial"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batch_size=st.integers(2, 300), whole=st.integers(1, 6), epochs=st.integers(2, 4),
       n_terms=st.integers(1, 2), offset=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_means_equal_per_batch_means(shape, batch_size, whole, epochs, n_terms, offset,
                                           seed):
    """Each batch's loss is the sum over terms of its .mean(), bit for bit, whatever mix of
    whole and partial batches a member has; the terms are column slices of wider blocks, as
    _lockstep_epochs passes them."""
    rng = np.random.default_rng(seed)
    partial = int(rng.integers(1, batch_size))
    n = {"partial_only": partial, "whole_only": whole * batch_size,
         "whole_and_partial": whole * batch_size + partial}[shape]
    wide = rng.standard_exponential((n_terms, epochs, offset + n + 3)) * 10.0 ** rng.integers(
        -3, 4, size=(n_terms, epochs, offset + n + 3))
    terms = [w[:, offset:offset + n] for w in wide]
    expected = np.array([[sum((t[e, s:s + batch_size].mean() for t in terms[1:]),
                              terms[0][e, s:s + batch_size].mean())
                          for s in range(0, n, batch_size)] for e in range(epochs)])
    got = nets.batch_means(terms, batch_size)
    assert got.shape == expected.shape == (epochs, -(-n // batch_size))
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40), st.integers(1, 80), st.integers(1, 80), st.integers(1, 12))
def test_stacked_products_premise_at_any_shape(n, fan_in, fan_out, k):
    """The premise above for random (n, fan_in, fan_out, K), not only the shipped layers."""
    TestStackedProductsPremise.check_stack(fan_in, fan_out, n, k)


def test_training_trajectory_determinism():
    arch = nets.ArchSpec(4, (5,), 3)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((10, 4))
    y = rng.integers(0, 3, 10)

    def run():
        net = nets.init_network(arch, 77)
        for _ in range(10):
            net = nets.sgd_step(net, nets.loss_gradient(net, x, y), 0.1)
        return net.params

    assert np.array_equal(run(), run())
