import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            nets.softmax([np.nan, 0.0])


class TestCrossEntropy:
    def test_uniform_prediction(self):
        assert nets.cross_entropy(np.array([[0.0, 0.0]]), [0]) == pytest.approx(np.log(2))

    def test_certain_prediction_goes_to_zero(self):
        assert nets.cross_entropy(np.array([[50.0, 0.0]]), [0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert nets.cross_entropy(np.array([[1.0, 2.0]]), [1]) == pytest.approx(0.31326, abs=1e-5)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            nets.cross_entropy(np.array([[0.0, 0.0]]), [2])

    def test_mean_over_batch(self):
        logits = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert nets.cross_entropy(logits, [0, 1]) == pytest.approx(np.log(2))


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
        rng = np.random.default_rng(fan_in * 1000 + fan_out * 10 + n)
        k = 4
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
