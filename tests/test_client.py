import numpy as np
import pytest

from fedkemf import nets
from fedkemf.client import ClientState, batch_iterator, client_update, local_train
from fedkemf.data import synth_blobs
from fedkemf.errors import DivergenceError


def make_state(client_id=0, arch=(8,), epochs=5, lr=0.1, seed=0, n_train=None, data=None,
               batch_size=16):
    """(data, state, recipe): recipe is the keywords the training entry points take."""
    data = data if data is not None else synth_blobs(2, 60, 2, 0.5, seed=1)
    idx = np.arange(len(data))
    n_train = n_train or int(0.8 * len(data))
    return data, ClientState(
        client_id=client_id,
        local_model=nets.init_network(nets.ArchSpec(data.dim, arch, data.num_classes), seed + 50),
        train_indices=list(idx[:n_train]),
        eval_indices=list(idx[n_train:]),
    ), {"lr": lr, "epochs": epochs, "batch_size": batch_size, "seed": seed}


def knowledge_net(data, hidden=(4,), seed=99):
    return nets.init_network(nets.ArchSpec(data.dim, hidden, data.num_classes), seed)


class TestBatchIterator:
    def test_sizes(self):
        batches = batch_iterator(list(range(10)), 4, epoch_seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_deterministic_and_seed_sensitive(self):
        idx = list(range(20))
        a = batch_iterator(idx, 6, epoch_seed=5)
        b = batch_iterator(idx, 6, epoch_seed=5)
        c = batch_iterator(idx, 6, epoch_seed=6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_covers_indices_exactly_once(self):
        idx = list(range(17))
        batches = batch_iterator(idx, 5, epoch_seed=3)
        assert sorted(i for b in batches for i in b) == idx


class TestClientUpdate:
    def test_zero_epochs_is_identity(self):
        data, state, recipe = make_state(epochs=0)
        theta_before = state.local_model.params.copy()
        kn = knowledge_net(data)
        out, loss, local = client_update([state], kn, data, 0, **recipe)[0]
        assert np.array_equal(out.params, kn.params)
        assert np.array_equal(local.params, theta_before)
        assert loss == 0.0

    def test_input_knowledge_net_unmodified(self):
        data, state, recipe = make_state(epochs=2)
        kn = knowledge_net(data)
        before = kn.params.copy()
        client_update([state], kn, data, 0, **recipe)
        assert np.array_equal(kn.params, before)

    def test_symmetric_first_step(self):
        # Identical archs + identical init: for the local model's first step the
        # KL term vanishes (q == p), so that step equals a plain-CE step.
        data, state, _ = make_state(arch=(4,), epochs=1)
        kn = knowledge_net(data, hidden=(4,))
        state.local_model = kn.copy()
        x = data.features[state.train_indices[:8]]
        y = data.labels[state.train_indices[:8]]
        own = nets.softmax(nets.forward(kn, x))
        with_kl = nets.loss_gradient(kn, x, y, teacher_probs=own)
        without = nets.loss_gradient(kn, x, y)
        assert np.allclose(with_kl, without, atol=1e-12)

    def test_learns_separable_shard(self):
        data, state, recipe = make_state(epochs=5, lr=0.1, batch_size=16)
        kn = knowledge_net(data)
        untrained_acc, _ = nets.evaluate(
            state.local_model, data.features[state.eval_indices], data.labels[state.eval_indices]
        )
        _, _, local = client_update([state], kn, data, 0, **recipe)[0]
        val_acc, _ = nets.evaluate(
            local, data.features[state.eval_indices], data.labels[state.eval_indices]
        )
        assert val_acc >= 0.9
        assert val_acc > untrained_acc

    def test_strong_teacher_lifts_knowledge_net(self):
        data, state, recipe = make_state(epochs=10, lr=0.2)
        # pre-train the local model alone to act as a strong teacher
        pre, _ = local_train([state], state.local_model, data, 0, **recipe)[0]
        shard_x = data.features[state.train_indices]
        shard_y = data.labels[state.train_indices]
        acc, _ = nets.evaluate(pre, shard_x, shard_y)
        assert acc >= 0.95
        state.local_model = pre
        recipe["epochs"] = 2
        kn = knowledge_net(data)
        before, _ = nets.evaluate(kn, shard_x, shard_y)
        updated, _, _ = client_update([state], kn, data, 0, **recipe)[0]
        after, _ = nets.evaluate(updated, shard_x, shard_y)
        assert after > before

    def test_mutual_kl_helps_under_scarcity(self):
        # With a strong knowledge-net teacher and very little data, the local
        # model should beat a same-budget run without the KL term on >= 80% of
        # 20 seeds (a tie is no win), and gain accuracy on average.
        gains = []
        for seed in range(20):
            data = synth_blobs(2, 100, 2, 0.6, seed=seed)
            # strong teacher trained centrally
            teacher = nets.init_network(nets.ArchSpec(2, (8,), 2), seed)
            for _ in range(300):
                teacher = nets.sgd_step(
                    teacher, nets.loss_gradient(teacher, data.features, data.labels), 0.3
                )
            rng = np.random.default_rng(seed)
            shard = rng.choice(len(data), size=10, replace=False)
            _, state, recipe = make_state(arch=(8,), epochs=3, lr=0.05, seed=seed, data=data,
                                  batch_size=5)
            state.train_indices = list(shard)
            _, _, local = client_update([state], teacher, data, round_index=0, **recipe)[0]
            with_kl, _ = nets.evaluate(local, data.features, data.labels)
            plain, _ = local_train([state], state.local_model, data, round_index=0, **recipe)[0]
            without_kl, _ = nets.evaluate(plain, data.features, data.labels)
            gains.append(with_kl - without_kl)
        assert sum(g > 0 for g in gains) >= 16, gains
        assert np.mean(gains) > 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_error_carries_context(self):
        data, state, recipe = make_state(epochs=10, lr=1e12)  # absurd lr forces overflow
        with pytest.raises(DivergenceError) as err:
            client_update([state], knowledge_net(data), data, round_index=3, **recipe)
        assert err.value.client_id == 0
        assert err.value.round_index == 3
        assert err.value.epoch is not None

    def test_deterministic_given_same_inputs(self):
        def run():
            data, state, recipe = make_state(epochs=3)
            out, loss, local = client_update([state], knowledge_net(data), data, round_index=2,
                                             **recipe)[0]
            return out.params, loss, local.params

        a, b = run(), run()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[2], b[2])
        assert a[1] == b[1]


class TestLocalTrain:
    def test_divergence_names_client_and_round(self):
        data, state, recipe = make_state(client_id=2, epochs=10, lr=1e12,
                                 data=synth_blobs(3, 60, 4, 1.0, seed=1))
        model = nets.init_network(state.local_model.arch, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                local_train([state], model, data, round_index=4, **recipe)
        assert (err.value.client_id, err.value.round_index) == (2, 4)
        assert "client_id=2, round_index=4, epoch=" in str(err.value)
