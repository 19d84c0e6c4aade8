"""The lean training loops against the straightforward loops they replaced.

The reference loops below are built only from the public, pure primitives
(`forward`, `loss_gradient`, `sgd_step`, and a per-batch
`teacher_distributions`), one fresh forward per use.  The fused loops must
reproduce them bit for bit.
"""

import math
import sys

import numpy as np
import pytest

from fedkemf import nets
from fedkemf import client
from fedkemf.client import (
    ClientState, batch_iterator, client_update, local_train, local_train_lockstep,
)
from fedkemf.data import synth_blobs
from fedkemf.errors import DivergenceError
from fedkemf.seeding import SALT_DISTILL, derive_seed
from fedkemf.server import (
    ServerState, distill, fedavg_aggregate, run_round, teacher_distributions,
)


def reference_client_update(state, knowledge_net, data, round_index=0):
    """Deep mutual learning as five forwards per batch; returns (kn, theta, loss, acc)."""
    kn = knowledge_net.copy()
    theta = state.local_model
    losses = []
    for epoch in range(state.epochs):
        seed = derive_seed(state.rng_seed, state.client_id, round_index, epoch)
        for batch_idx in batch_iterator(state.train_indices, state.batch_size, seed):
            x, y = data.features[batch_idx], data.labels[batch_idx]
            g_logits = nets.forward(kn, x)
            t_logits = nets.forward(theta, x)
            teacher = nets.softmax(g_logits)
            loss = nets.cross_entropy(t_logits, y) + nets.kl_from_probs(
                teacher, nets.softmax(t_logits))
            theta = nets.sgd_step(theta, nets.loss_gradient(theta, x, y, teacher), state.lr)
            losses.append(loss)
            teacher = nets.softmax(nets.forward(theta, x))
            kn = nets.sgd_step(kn, nets.loss_gradient(kn, x, y, teacher), state.lr)
    idx = state.val_indices if len(state.val_indices) else state.train_indices
    acc, _ = nets.evaluate(theta, data.features[idx], data.labels[idx])
    return kn, theta, float(np.mean(losses)) if losses else 0.0, acc


def reference_local_train(state, model, data, round_index=0):
    net = model.copy()
    losses = []
    for epoch in range(state.epochs):
        seed = derive_seed(state.rng_seed, state.client_id, round_index, epoch)
        for batch_idx in batch_iterator(state.train_indices, state.batch_size, seed):
            x, y = data.features[batch_idx], data.labels[batch_idx]
            losses.append(nets.cross_entropy(nets.forward(net, x), y))
            net = nets.sgd_step(net, nets.loss_gradient(net, x, y), state.lr)
    return net, float(np.mean(losses)) if losses else 0.0


def reference_distill(server, members, data):
    """Ensemble distillation re-running every member on every batch."""
    if server.init_mode == "warm_start":
        student = server.global_knowledge.copy()
    else:
        student = nets.Network(members[0].arch, np.mean([m.params for m in members], axis=0))
    last_loss = 0.0
    for epoch in range(server.distill_epochs):
        seed = derive_seed(server.rng_seed, SALT_DISTILL, server.round, epoch)
        epoch_losses = []
        for batch_idx in batch_iterator(server.distill_indices, server.batch_size, seed):
            x = data.features[batch_idx]
            teacher = teacher_distributions([nets.forward(m, x) for m in members],
                                            server.strategy)
            epoch_losses.append(nets.kl_from_probs(teacher, nets.softmax(nets.forward(student, x))))
            student = nets.sgd_step(
                student, nets.loss_gradient(student, x, teacher_probs=teacher), server.distill_lr)
        last_loss = float(np.mean(epoch_losses))
    return student, last_loss


def make_data():
    return synth_blobs(4, 60, 5, 0.8, seed=21)


def make_client(data, cid=0, hidden=(8, 4), n_train=90, n_val=20, epochs=3, batch_size=7,
                lr=0.1):
    idx = np.random.default_rng(cid).permutation(len(data))
    return ClientState(
        client_id=cid,
        local_model=nets.init_network(nets.ArchSpec(data.dim, hidden, data.num_classes), 50 + cid),
        train_indices=list(idx[:n_train]),
        val_indices=list(idx[n_train:n_train + n_val]),
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        rng_seed=5,
    )


def make_server(data, strategy="max_logits", init_mode="avg_members", count=75, epochs=3):
    arch = nets.ArchSpec(data.dim, (6,), data.num_classes)
    return ServerState(
        global_knowledge=nets.init_network(arch, 3),
        distill_indices=list(range(len(data) - count, len(data))),
        distill_epochs=epochs,
        distill_lr=0.1,
        strategy=strategy,
        init_mode=init_mode,
        batch_size=16,
        rng_seed=9,
        round=2,
    )


def trained_members(data, count=3):
    arch = nets.ArchSpec(data.dim, (6,), data.num_classes)
    members = []
    for s in range(count):
        net = nets.init_network(arch, 100 + s)
        for _ in range(5 + 5 * s):
            net = nets.sgd_step(net, nets.loss_gradient(net, data.features, data.labels), 0.2)
        members.append(net)
    return members


class TestReferenceEquivalence:
    @pytest.mark.parametrize("hidden", [(), (8,), (8, 4)])
    def test_client_update(self, hidden):
        data = make_data()
        knowledge = nets.init_network(nets.ArchSpec(data.dim, (6,), data.num_classes), 7)
        state, twin = make_client(data, hidden=hidden), make_client(data, hidden=hidden)
        kn, loss, acc = client_update(state, knowledge, data, round_index=4)
        ref_kn, ref_theta, ref_loss, ref_acc = reference_client_update(twin, knowledge, data, 4)
        assert np.array_equal(kn.params, ref_kn.params)
        assert np.array_equal(state.local_model.params, ref_theta.params)
        assert loss == ref_loss
        assert acc == ref_acc == state.val_accuracy

    def test_client_update_leaves_inputs_untouched(self):
        data = make_data()
        knowledge = nets.init_network(nets.ArchSpec(data.dim, (6,), data.num_classes), 7)
        state = make_client(data)
        local_before, kn_before = state.local_model, knowledge.params.copy()
        theta_before = local_before.params.copy()
        client_update(state, knowledge, data)
        assert np.array_equal(knowledge.params, kn_before)
        assert np.array_equal(local_before.params, theta_before)
        assert state.local_model is not local_before

    def test_local_train(self):
        data = make_data()
        model = nets.init_network(nets.ArchSpec(data.dim, (8,), data.num_classes), 11)
        before = model.params.copy()
        net, loss = local_train(make_client(data), model, data, round_index=2)
        ref_net, ref_loss = reference_local_train(make_client(data), model, data, 2)
        assert np.array_equal(net.params, ref_net.params)
        assert loss == ref_loss
        assert np.array_equal(model.params, before)

    @pytest.mark.parametrize("strategy", ["max_logits", "majority_vote"])
    @pytest.mark.parametrize("init_mode", ["avg_members", "warm_start"])
    def test_distill(self, strategy, init_mode):
        data = make_data()
        members = trained_members(data)
        server = make_server(data, strategy=strategy, init_mode=init_mode)
        student, loss = distill(server, members, data)
        ref_student, ref_loss = reference_distill(server, members, data)
        assert np.array_equal(student.params, ref_student.params)
        assert loss == ref_loss

    def test_cached_val_accuracy_matches_full_reevaluation(self):
        data = synth_blobs(3, 80, 4, 0.8, seed=5)
        clients = [make_client(data, cid=c, hidden=(8,) if c % 2 else (4,), n_train=40,
                               n_val=8 if c != 3 else 0, epochs=1, batch_size=16)
                   for c in range(6)]
        server = make_server(data, count=40, epochs=1)
        server.round = 0
        for _ in range(3):
            stats = run_round(server, clients, data, "fedkemf", sample_ratio=0.5)
            assert len(stats["sampled"]) < len(clients)
            full = [st.accuracy(st.local_model, data) for st in clients]
            assert stats["mean_client_val_accuracy"] == float(np.mean(full))


class TestLockstep:
    """Sampled fedavg clients train as one stack; each must equal its own serial run."""

    # batch_size 8: one shard smaller than a batch (5), one exactly a batch (8),
    # one a multiple of it (24), one ragged (19), and two of equal size (13).
    SIZES = (13, 5, 24, 8, 19, 13)

    @staticmethod
    def clients(data, sizes, per_client=None, **keys):
        keys = {"epochs": 3, "batch_size": 8, **keys}
        return [make_client(data, cid=c, n_train=n, **{**keys, **(per_client or {}).get(c, {})})
                for c, n in enumerate(sizes)]

    @staticmethod
    def model(data):
        return nets.init_network(nets.ArchSpec(data.dim, (8, 4), data.num_classes), 17)

    @pytest.mark.parametrize("per_client", [
        {},
        {1: {"lr": 0.05}, 2: {"batch_size": 5}, 4: {"epochs": 2}, 5: {"batch_size": 5}},
    ], ids=["one_group", "mixed_groups"])
    def test_each_client_equals_its_serial_reference(self, per_client):
        data = make_data()
        model = self.model(data)
        states = self.clients(data, self.SIZES, per_client)
        results = local_train_lockstep(states, model, data, round_index=3)
        for st, (net, loss) in zip(states, results):
            ref_net, ref_loss = reference_local_train(st, model, data, 3)
            assert np.array_equal(net.params, ref_net.params)
            assert loss == ref_loss

    @pytest.mark.parametrize("sizes", [SIZES, (19,)], ids=["six_clients", "one_client"])
    def test_fedavg_round_equals_serial_reference(self, sizes, monkeypatch):
        data = make_data()
        states = self.clients(data, sizes)
        server = make_server(data, epochs=0)
        server.global_knowledge = broadcast = self.model(data)
        aggregated = []

        def spy(members, weights):
            aggregated.append(members)
            return fedavg_aggregate(members, weights)

        monkeypatch.setattr("fedkemf.server.fedavg_aggregate", spy)
        stats = run_round(server, states, data, "fedavg", sample_ratio=1.0)
        refs = [reference_local_train(st, broadcast, data, server.round) for st in states]
        assert stats["sampled"] == list(range(len(sizes)))
        for member, (ref_net, _) in zip(aggregated[0], refs):
            assert np.array_equal(member.params, ref_net.params)
        assert stats["mean_train_loss"] == float(np.mean([loss for _, loss in refs]))
        expected = fedavg_aggregate([net for net, _ in refs], [len(st.train_indices) for st in states])
        assert np.array_equal(server.global_knowledge.params, expected.params)

    def test_divergence_names_the_serial_loops_client(self, monkeypatch):
        # The larger shard (client 1) diverges at an earlier lockstep step than
        # client 0, yet a serial loop would raise for client 0 first.
        data = make_data()
        states = self.clients(data, (8, 40), lr=1e12, epochs=16)
        model = nets.init_network(nets.ArchSpec(data.dim, (8,), data.num_classes), 0)
        alone = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for st in states:
                with pytest.raises(DivergenceError) as err:
                    local_train(st, model, data, round_index=1)
                alone[st.client_id] = err.value
        assert alone[1].epoch < alone[0].epoch
        lockstep_errors = []

        def replay(state, *args):
            if not lockstep_errors:
                lockstep_errors.append(sys.exc_info()[1])  # the error that started the replay
            return local_train(state, *args)

        monkeypatch.setattr(client, "local_train", replay)
        server = make_server(data, epochs=0)
        server.global_knowledge, server.round = model, 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_round(server, states, data, "fedavg", sample_ratio=1.0)
        assert lockstep_errors[0].epoch == alone[1].epoch
        got, want = err.value, alone[0]
        assert (got.client_id, got.round_index, got.epoch, got.batch_index, str(got)) == (
            want.client_id, want.round_index, want.epoch, want.batch_index, str(want))


class TestForwardCounts:
    """One forward primitive, counted per use: the noise-free cost of a loop."""

    @pytest.fixture
    def forwards(self, monkeypatch):
        calls = []
        primitive = nets._forward_cached

        def counting(*args, **kwargs):
            calls.append(1)
            return primitive(*args, **kwargs)

        monkeypatch.setattr(nets, "_forward_cached", counting)
        return calls

    @staticmethod
    def batches(state):
        return state.epochs * math.ceil(len(state.train_indices) / state.batch_size)

    def test_client_update_three_per_batch(self, forwards):
        data = make_data()
        state = make_client(data)
        client_update(state, nets.init_network(
            nets.ArchSpec(data.dim, (6,), data.num_classes), 7), data)
        assert len(forwards) == 3 * self.batches(state) + 1  # + the val evaluation

    def test_local_train_one_per_batch(self, forwards):
        data = make_data()
        state = make_client(data)
        local_train(state, nets.init_network(
            nets.ArchSpec(data.dim, (8,), data.num_classes), 11), data)
        assert len(forwards) == self.batches(state)

    def test_distill_members_once_per_call(self, forwards):
        data = make_data()
        members = trained_members(data, count=4)
        server = make_server(data)
        forwards.clear()
        distill(server, members, data)
        batches = server.distill_epochs * math.ceil(len(server.distill_indices) / server.batch_size)
        assert len(forwards) == len(members) + batches

    def test_round_scores_only_unscored_clients(self, forwards):
        data = synth_blobs(3, 80, 4, 0.8, seed=5)
        clients = [make_client(data, cid=c, hidden=(4,), n_train=40, epochs=0)
                   for c in range(6)]
        server = make_server(data, count=40, epochs=0)
        run_round(server, clients, data, "fedkemf", sample_ratio=0.5)
        assert len(forwards) == len(clients)  # 3 in client_update, 3 in run_round
        forwards.clear()
        run_round(server, clients, data, "fedkemf", sample_ratio=0.5)
        assert len(forwards) == 3  # the sampled clients' own evaluations


class TestLossTermCounts:
    """Losses are scored once per epoch: the per-row term helpers run a fixed
    number of times per epoch, however many batches the epoch has."""

    @pytest.fixture
    def terms(self, monkeypatch):
        calls = {"_ce_terms": 0, "_kl_terms": 0}
        for name in calls:
            def counting(*args, _name=name, _helper=getattr(nets, name)):
                calls[_name] += 1
                return _helper(*args)
            monkeypatch.setattr(nets, name, counting)
        return calls

    @pytest.mark.parametrize("batch_size", [4, 13, 200])
    def test_client_update(self, terms, batch_size):
        data = make_data()
        state = make_client(data, batch_size=batch_size)
        client_update(state, nets.init_network(
            nets.ArchSpec(data.dim, (6,), data.num_classes), 7), data)
        # two nets, CE + KL each, per epoch; the val evaluation scores accuracy only
        assert terms == {"_ce_terms": 2 * state.epochs, "_kl_terms": 2 * state.epochs}

    @pytest.mark.parametrize("batch_size", [4, 13, 200])
    def test_local_train(self, terms, batch_size):
        data = make_data()
        state = make_client(data, batch_size=batch_size)
        local_train(state, nets.init_network(
            nets.ArchSpec(data.dim, (8,), data.num_classes), 11), data)
        assert terms == {"_ce_terms": state.epochs, "_kl_terms": 0}

    @pytest.mark.parametrize("batch_size", [4, 13, 200])
    def test_distill(self, terms, batch_size):
        data = make_data()
        members = trained_members(data)
        server = make_server(data)
        server.batch_size = batch_size
        terms.update(_ce_terms=0, _kl_terms=0)
        distill(server, members, data)
        assert terms == {"_ce_terms": 0, "_kl_terms": server.distill_epochs}


def test_rows_check_names_first_failing_batch():
    ce, kl = np.zeros(10), np.zeros(10)
    kl[9], ce[6] = np.inf, np.nan
    with pytest.raises(DivergenceError) as err:
        nets.check_rows_finite([ce, kl], [(0, 4), (4, 8), (8, 10)], "loss", client_id=2, epoch=1)
    assert (err.value.client_id, err.value.epoch, err.value.batch_index) == (2, 1, 1)
    nets.check_rows_finite([np.zeros(10)], [(0, 10)], "loss")


def test_trained_rejects_overflowed_parameters():
    trainer = nets.Trainer(nets.init_network(nets.ArchSpec(2, (), 2), 0), 1e308)
    _, inputs, pre = trainer.probs(np.array([[4.0, 4.0]]), None, "logits")
    with np.errstate(over="ignore", invalid="ignore"):
        trainer.step(inputs, pre, np.array([[-1.0, 1.0]]))  # finite gradient, lr * grad = inf
    with pytest.raises(DivergenceError) as err:
        trainer.trained(client_id=3)
    assert err.value.client_id == 3


def test_distill_divergence_is_typed():
    data = make_data()
    server = make_server(data)
    server.distill_lr = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            distill(server, trained_members(data), data)
    assert err.value.round_index == server.round
    assert err.value.epoch is not None and err.value.batch_index is not None
