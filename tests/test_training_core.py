"""The lean training loops against the straightforward loops they replaced.

The reference loops below are built only from the public, pure primitives
(`forward`, `loss_value`, `loss_gradient`, `sgd_step` and
`teacher_distributions`), one fresh forward per use; each batch's loss is
`loss_value`, the training loss acceptance criterion 1 gates.  Only the
distillation teacher is built once per call, over the whole split, as distill
defines it.  The fused loops must reproduce them bit for bit.  `loss_gradient`
is itself a one-member Trainer's gradient, so these serial references check the
stacking and the lockstep order against one-member steps; test_nets pins that
gradient to the scalar one it replaced, and acceptance criterion 1 to finite
differences.
"""

import math

import numpy as np
import pytest

from fedkemf import nets
from fedkemf import client
from fedkemf.config import ExperimentConfig
from fedkemf.costs import WireAudit
from fedkemf.client import ClientState, batch_iterator, client_update, local_train, step_plan
from fedkemf.data import synth_blobs
from fedkemf.errors import DivergenceError
from fedkemf.seeding import SALT_DISTILL, SALT_ORDERS, stream
from fedkemf.server import (
    ServerState, distill, fedavg_aggregate, run_round, teacher_distributions,
)


def reference_client_update(state, knowledge_net, data, round_index, *, lr, epochs,
                            batch_size, seed):
    """Deep mutual learning as five forwards per batch; returns (kn, theta, loss, acc)."""
    kn = knowledge_net.copy()
    theta = state.local_model
    losses = []
    orders = stream(seed, SALT_ORDERS, state.client_id, round_index)  # every epoch's order
    for _ in range(epochs):
        for batch_idx in batch_iterator(state.train_indices, batch_size, orders):
            x, y = data.features[batch_idx], data.labels[batch_idx]
            teacher = nets.softmax(nets.forward(kn, x))
            loss = nets.loss_value(theta, x, y, teacher)
            theta = nets.sgd_step(theta, nets.loss_gradient(theta, x, y, teacher), lr)
            losses.append(loss)
            teacher = nets.softmax(nets.forward(theta, x))
            kn = nets.sgd_step(kn, nets.loss_gradient(kn, x, y, teacher), lr)
    idx = state.eval_indices
    acc, _ = nets.evaluate(theta, data.features[idx], data.labels[idx])
    return kn, theta, float(np.mean(losses)) if losses else 0.0, acc


def reference_local_train(state, model, data, round_index, *, lr, epochs, batch_size, seed):
    net = model.copy()
    losses = []
    orders = stream(seed, SALT_ORDERS, state.client_id, round_index)
    for _ in range(epochs):
        for batch_idx in batch_iterator(state.train_indices, batch_size, orders):
            x, y = data.features[batch_idx], data.labels[batch_idx]
            losses.append(nets.loss_value(net, x, y))
            net = nets.sgd_step(net, nets.loss_gradient(net, x, y), lr)
    return net, float(np.mean(losses)) if losses else 0.0


def reference_distill(server, members, data, round_index):
    """Ensemble distillation as serial SGD on per-batch KL.  The teacher is the one
    distill defines: one forward per member over the whole split, each batch
    taking its rows of it (under some BLAS kernels a row of X @ W depends on
    X's height, so a teacher forwarded batch by batch is a different one)."""
    config = server.config
    if config.server_init == "warm_start":
        student = server.global_knowledge.copy()
    else:
        student = nets.Network(members[0].arch, np.mean([m.params for m in members], axis=0))
    split = np.asarray(server.distill_indices, dtype=np.int64)
    teacher = teacher_distributions([nets.forward(m, data.features[split]) for m in members],
                                    config.strategy)
    last_loss = 0.0
    orders = stream(config.experiment_seed, SALT_DISTILL, 0, round_index)
    for _ in range(config.distill_epochs):
        epoch_losses = []
        for batch in batch_iterator(np.arange(len(split)), config.batch_size, orders):
            x, t = data.features[split[batch]], teacher[batch]
            epoch_losses.append(nets.loss_value(student, x, teacher_probs=t))
            student = nets.sgd_step(
                student, nets.loss_gradient(student, x, teacher_probs=t), config.distill_lr)
        last_loss = float(np.mean(epoch_losses))
    return student, last_loss


def make_data():
    return synth_blobs(4, 60, 5, 0.8, seed=21)


def make_client(data, cid=0, hidden=(8, 4), n_train=90, n_val=20, epochs=3, batch_size=7,
                lr=0.1):
    """(state, recipe): recipe is the keywords the training entry points take."""
    idx = np.random.default_rng(cid).permutation(len(data))
    return ClientState(
        client_id=cid,
        local_model=nets.init_network(nets.ArchSpec(data.dim, hidden, data.num_classes), 50 + cid),
        train_indices=list(idx[:n_train]),
        eval_indices=list(idx[n_train:n_train + n_val]),
    ), {"lr": lr, "epochs": epochs, "batch_size": batch_size, "seed": 5}


def server_config(**keys):
    """The ExperimentConfig a test server reads: `keys` over the required keys.  The
    required keys the server never reads (the data and partition keys) are placeholders."""
    return ExperimentConfig(**{
        "mode": "fedkemf", "num_clients": 1, "sample_ratio": 1.0, "rounds": 1, "alpha": 1.0,
        "batch_size": 16, "lr": 0.1, "knowledge_arch": (), "experiment_seed": 0, "out_dir": "",
        "dataset_kind": "synth", **keys})


def make_server(data, strategy="max_logits", init_mode="avg_members", count=75, epochs=3,
                recipe=None, mode="fedkemf", sample_ratio=1.0):
    """A `mode` server distilling for `epochs`, whose rounds sample `sample_ratio` of the
    clients and train them with `recipe` (the entry points' keywords, over lr 0.1,
    3 epochs, batch_size 16 and seed 9)."""
    recipe = {"lr": 0.1, "epochs": 3, "batch_size": 16, "seed": 9, **(recipe or {})}
    arch = nets.ArchSpec(data.dim, (6,), data.num_classes)
    return ServerState(
        global_knowledge=nets.init_network(arch, 3),
        distill_indices=list(range(len(data) - count, len(data))),
        config=server_config(
            mode=mode, sample_ratio=sample_ratio, local_epochs=recipe["epochs"],
            lr=recipe["lr"], distill_epochs=epochs, distill_lr=0.1, strategy=strategy,
            server_init=init_mode, batch_size=recipe["batch_size"],
            experiment_seed=recipe["seed"]),
    )


@pytest.fixture
def training_passes(monkeypatch):
    """Every training pass of the test, as (clients trained, the trainers' guard): one
    client._lockstep_epochs call each."""
    seen = []
    epochs = client._lockstep_epochs

    def recorded(members, batch_size, step, score, n_probs, trainers, scored):
        seen.append((len(members), trainers[0].guard))
        return epochs(members, batch_size, step, score, n_probs, trainers, scored)
    monkeypatch.setattr(client, "_lockstep_epochs", recorded)
    return seen


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
    @pytest.mark.parametrize("hidden, batch_size", [
        pytest.param((), 7, id="hidden0"),
        pytest.param((8,), 7, id="hidden1"),
        pytest.param((8, 4), 7, id="hidden2"),
        pytest.param((8, 4), 2 ** 60, id="batch_above_every_shard"),  # one partial batch
    ])
    def test_client_update(self, hidden, batch_size):
        data = make_data()
        knowledge = nets.init_network(nets.ArchSpec(data.dim, (6,), data.num_classes), 7)
        state, recipe = make_client(data, hidden=hidden, batch_size=batch_size)
        twin, _ = make_client(data, hidden=hidden, batch_size=batch_size)
        kn, loss, local = client_update([state], knowledge, data, round_index=4, **recipe)[0]
        ref_kn, ref_theta, ref_loss, _ = reference_client_update(twin, knowledge, data, 4,
                                                                 **recipe)
        assert np.array_equal(kn.params, ref_kn.params)
        assert np.array_equal(local.params, ref_theta.params)
        assert loss == ref_loss

    def test_client_update_leaves_inputs_untouched(self):
        data = make_data()
        knowledge = nets.init_network(nets.ArchSpec(data.dim, (6,), data.num_classes), 7)
        state, recipe = make_client(data)
        state.val_accuracy = 0.25
        local_before, kn_before = state.local_model, knowledge.params.copy()
        theta_before = local_before.params.copy()
        (_, _, local), = client_update([state], knowledge, data, 0, **recipe)
        assert np.array_equal(knowledge.params, kn_before)
        assert state.local_model is local_before
        assert np.array_equal(local_before.params, theta_before)
        assert state.val_accuracy == 0.25
        assert local.params.base is None  # a copy, not a row view of the trained stack

    def test_local_train(self):
        data = make_data()
        model = nets.init_network(nets.ArchSpec(data.dim, (8,), data.num_classes), 11)
        before = model.params.copy()
        state, recipe = make_client(data)
        net, loss = local_train([state], model, data, round_index=2, **recipe)[0]
        ref_net, ref_loss = reference_local_train(make_client(data)[0], model, data, 2, **recipe)
        assert np.array_equal(net.params, ref_net.params)
        assert loss == ref_loss
        assert np.array_equal(model.params, before)

    @pytest.mark.parametrize("strategy", ["max_logits", "majority_vote"])
    @pytest.mark.parametrize("init_mode", ["avg_members", "warm_start"])
    def test_distill(self, strategy, init_mode):
        data = make_data()
        members = trained_members(data)
        server = make_server(data, strategy=strategy, init_mode=init_mode)
        student, loss = distill(server, members, data, 3)
        ref_student, ref_loss = reference_distill(server, members, data, 3)
        assert np.array_equal(student.params, ref_student.params)
        assert loss == ref_loss

    def test_cached_val_accuracy_matches_full_reevaluation(self):
        data = synth_blobs(3, 80, 4, 0.8, seed=5)
        clients = [make_client(data, cid=c, hidden=(8,) if c % 2 else (4,), n_train=40,
                               n_val=8 if c != 3 else 0)[0]
                   for c in range(6)]
        # set-up scores a client whose val split is empty on its train rows
        clients[3].eval_indices = clients[3].train_indices
        server = make_server(data, count=40, epochs=1, recipe={"epochs": 1}, sample_ratio=0.5)
        for round_index in (1, 2, 3):
            stats = run_round(server, clients, data, WireAudit(None, "upload_only"), round_index)
            assert len(stats["sampled"]) < len(clients)
            full = [st.accuracy(data) for st in clients]
            assert stats["mean_client_val_accuracy"] == float(np.mean(full))


class TestLockstep:
    """Sampled fedavg clients train as one stack; each must equal its own serial run."""

    # batch_size 8: one shard smaller than a batch (5), one exactly a batch (8),
    # one a multiple of it (24), one ragged (19), and two of equal size (13).
    SIZES = (13, 5, 24, 8, 19, 13)

    @staticmethod
    def clients(data, sizes, **keys):
        """(states, recipe) of clients with shards of `sizes` rows, sharing one recipe."""
        keys = {"epochs": 3, "batch_size": 8, **keys}
        made = [make_client(data, cid=c, n_train=n, **keys) for c, n in enumerate(sizes)]
        return [state for state, _ in made], made[0][1]

    @staticmethod
    def model(data):
        return nets.init_network(nets.ArchSpec(data.dim, (8, 4), data.num_classes), 17)

    def test_each_client_equals_its_serial_reference(self):
        data = make_data()
        model = self.model(data)
        states, recipe = self.clients(data, self.SIZES)
        results = local_train(states, model, data, round_index=3, **recipe)
        for st, (net, loss) in zip(states, results):
            ref_net, ref_loss = reference_local_train(st, model, data, 3, **recipe)
            assert np.array_equal(net.params, ref_net.params)
            assert loss == ref_loss

    @pytest.mark.parametrize("sizes", [SIZES, (19,)], ids=["six_clients", "one_client"])
    def test_fedavg_round_equals_serial_reference(self, sizes, monkeypatch):
        data = make_data()
        states, recipe = self.clients(data, sizes)
        server = make_server(data, epochs=0, recipe=recipe, mode="fedavg")
        server.global_knowledge = broadcast = self.model(data)
        aggregated = []

        def spy(members, weights):
            aggregated.append(members)
            return fedavg_aggregate(members, weights)

        monkeypatch.setattr("fedkemf.server.fedavg_aggregate", spy)
        stats = run_round(server, states, data, WireAudit(None, "upload_only"), 3)
        refs = [reference_local_train(st, broadcast, data, 3, **recipe) for st in states]
        assert stats["sampled"] == list(range(len(sizes)))
        for member, (ref_net, _) in zip(aggregated[0], refs):
            assert np.array_equal(member.params, ref_net.params)
        assert stats["mean_train_loss"] == float(np.mean([loss for _, loss in refs]))
        expected = fedavg_aggregate([net for net, _ in refs], [len(st.train_indices) for st in states])
        assert np.array_equal(server.global_knowledge.params, expected.params)

    def test_divergence_names_the_serial_loops_client(self, training_passes):
        # The larger shard (client 1) diverges at an earlier lockstep step than
        # client 0, yet a serial loop would raise for client 0 first.
        data = make_data()
        states, recipe = self.clients(data, (8, 40), lr=1e12, epochs=16)
        model = nets.init_network(nets.ArchSpec(data.dim, (8,), data.num_classes), 0)
        alone = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for st in states:
                with pytest.raises(DivergenceError) as err:
                    local_train([st], model, data, round_index=1, **recipe)
                alone[st.client_id] = err.value
        assert alone[1].epoch < alone[0].epoch
        del training_passes[:]
        server = make_server(data, epochs=0, recipe=recipe, mode="fedavg")
        server.global_knowledge = model
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_round(server, states, data, WireAudit(None, "upload_only"), 1)
        got, want = err.value, alone[0]
        assert (got.client_id, got.round_index, got.epoch, got.batch_index, str(got)) == (
            want.client_id, want.round_index, want.epoch, want.batch_index, str(want))
        # the unguarded lockstep pass, then the serial replay: client 0 alone diverges, and
        # client 1 never trains again
        assert training_passes == [(2, None), (1, {"client_id": 0, "round_index": 1})]


class TestMutualLockstep:
    """Sampled fedkemf clients train as one knowledge/local pair of stacks per
    architecture; each must equal its own serial run."""

    # batch_size 8, as in TestLockstep; the shipped kemf archs, round-robin, so
    # every pair holds clients of interleaved shard sizes.
    SIZES = TestLockstep.SIZES
    ARCHS = ((32,), (64,), (64, 32))

    @classmethod
    def clients(cls, data, sizes, **keys):
        """(states, recipe) of clients with shards of `sizes` rows, sharing one recipe."""
        keys = {"epochs": 3, "batch_size": 8, **keys}
        made = [make_client(data, cid=c, n_train=n, hidden=cls.ARCHS[c % len(cls.ARCHS)], **keys)
                for c, n in enumerate(sizes)]
        return [state for state, _ in made], made[0][1]

    @staticmethod
    def data():
        # ten classes, as kemf-many: the per-row KL sums then run over 10 entries
        return synth_blobs(10, 30, 5, 0.8, seed=21)

    @staticmethod
    def knowledge(data):
        return nets.init_network(nets.ArchSpec(data.dim, (16,), data.num_classes), 7)

    def test_each_client_equals_its_serial_reference(self):
        data = self.data()
        knowledge = self.knowledge(data)
        states, recipe = self.clients(data, self.SIZES)
        twins, _ = self.clients(data, self.SIZES)
        results = client_update(states, knowledge, data, round_index=3, **recipe)
        for twin, (kn, loss, local) in zip(twins, results):
            ref_kn, ref_theta, ref_loss, _ = reference_client_update(twin, knowledge, data, 3,
                                                                     **recipe)
            assert np.array_equal(kn.params, ref_kn.params)
            assert np.array_equal(local.params, ref_theta.params)
            assert loss == ref_loss

    @pytest.mark.parametrize("sizes", [SIZES, (19,)], ids=["six_clients", "one_client"])
    def test_fedkemf_round_equals_serial_reference(self, sizes, monkeypatch):
        data = self.data()
        (states, recipe), (twins, _) = self.clients(data, sizes), self.clients(data, sizes)
        server = make_server(data, epochs=0, recipe=recipe)
        server.global_knowledge = broadcast = self.knowledge(data)
        distilled = []

        def spy(server, members, data, round_index):
            distilled.append(members)
            return distill(server, members, data, round_index)

        monkeypatch.setattr("fedkemf.server.distill", spy)
        stats = run_round(server, states, data, WireAudit(None, "upload_only"), 3)
        refs = [reference_client_update(twin, broadcast, data, 3, **recipe) for twin in twins]
        assert stats["sampled"] == list(range(len(sizes)))
        for member, st, (ref_kn, ref_theta, _, ref_acc) in zip(distilled[0], states, refs):
            assert np.array_equal(member.params, ref_kn.params)
            assert np.array_equal(st.local_model.params, ref_theta.params)
            assert st.val_accuracy == ref_acc
        assert stats["mean_train_loss"] == float(np.mean([ref[2] for ref in refs]))
        assert stats["mean_client_val_accuracy"] == float(np.mean([ref[3] for ref in refs]))

    def test_divergence_names_the_serial_loops_client(self, training_passes):
        # The larger shard (client 1) diverges at an earlier lockstep step than
        # client 0, yet a serial loop would raise for client 0 first.
        data = self.data()
        states, recipe = self.clients(data, (8, 40), lr=1e12, epochs=16)
        twins, _ = self.clients(data, (8, 40), lr=1e12, epochs=16)
        knowledge = self.knowledge(data)
        alone = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for twin in twins:
                with pytest.raises(DivergenceError) as err:
                    client_update([twin], knowledge, data, round_index=1, **recipe)
                alone[twin.client_id] = err.value
        assert alone[1].epoch < alone[0].epoch
        del training_passes[:]
        server = make_server(data, epochs=0, recipe=recipe)
        server.global_knowledge = knowledge
        before = [st.local_model for st in states]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                run_round(server, states, data, WireAudit(None, "upload_only"), 1)
        got, want = err.value, alone[0]
        assert (got.client_id, got.round_index, got.epoch, got.batch_index, str(got)) == (
            want.client_id, want.round_index, want.epoch, want.batch_index, str(want))
        # the unguarded pass diverges in the first pair (client 1's architecture), so the
        # other pair never trains; then the serial replay: client 0 alone diverges, and
        # client 1 never trains again
        assert training_passes == [(1, None), (1, {"client_id": 0, "round_index": 1})]
        # the serial loop failed on client 0, before any state changed
        assert all(st.local_model is model for st, model in zip(states, before))

    def test_evaluation_divergence_is_not_replayed(self, monkeypatch, training_passes):
        # Client 1's val evaluation diverges after every pair has trained healthily.
        # Evaluation runs in run_round, outside the checked training call, so its
        # error is raised as it is and no client trains again.
        data = self.data()
        states, recipe = self.clients(data, (19, 13))
        server = make_server(data, epochs=0, recipe=recipe)
        server.global_knowledge = self.knowledge(data)
        scored = ClientState.accuracy

        def accuracy(state, data, **context):
            if state.client_id == 1:
                raise DivergenceError("non-finite evaluation logits", client_id=1, **context)
            return scored(state, data, **context)

        monkeypatch.setattr(ClientState, "accuracy", accuracy)
        with pytest.raises(DivergenceError) as err:
            run_round(server, states, data, WireAudit(None, "upload_only"), 2)
        assert (err.value.client_id, err.value.round_index) == (1, 2)
        # one unguarded pass per architecture, and no guarded replay
        assert training_passes == [(1, None), (1, None)]

    @pytest.mark.parametrize("sizes, batch_size", [
        ((24, 19, 13, 13, 8, 5), 8), ((7,), 8), ((8,), 8), ((40, 3), 8), ((5, 5, 5), 1)])
    def test_step_plan_covers_each_members_batches_in_order(self, sizes, batch_size):
        seen = [[] for _ in sizes]
        for rows, batches in step_plan(sizes, batch_size):
            assert isinstance(rows, slice) and rows.step is None  # every step is a (K, n, d) stack
            for start, stop, b in batches:
                for k in range(len(sizes))[rows]:
                    assert stop <= sizes[k] and stop - start <= batch_size
                    seen[k].append((b, start, stop))
        for k, n in enumerate(sizes):
            assert seen[k] == [(b, start, min(start + batch_size, n))
                               for b, start in enumerate(range(0, n, batch_size))]


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
    def batches(state, recipe):
        return recipe["epochs"] * math.ceil(len(state.train_indices) / recipe["batch_size"])

    def test_client_update_three_per_batch(self, forwards):
        data = make_data()
        state, recipe = make_client(data)
        client_update([state], nets.init_network(
            nets.ArchSpec(data.dim, (6,), data.num_classes), 7), data, 0, **recipe)
        assert len(forwards) == 3 * self.batches(state, recipe)

    def test_client_update_mixed_architectures(self, forwards, monkeypatch):
        # per step of each architecture's pair of stacks: three forwards and two SGD steps
        steps = []
        stepped = nets.Trainer.step

        def counting(self, *args, **kwargs):
            steps.append(1)
            return stepped(self, *args, **kwargs)

        monkeypatch.setattr(nets.Trainer, "step", counting)
        data = TestMutualLockstep.data()
        states, recipe = TestMutualLockstep.clients(data, TestMutualLockstep.SIZES)
        by_arch = {}
        for st in states:
            by_arch.setdefault(st.local_model.arch, []).append(len(st.train_indices))
        assert all(len(sizes) >= 2 for sizes in by_arch.values())
        pair_steps = recipe["epochs"] * sum(
            len(batches) for sizes in by_arch.values()
            for _, batches in step_plan(sorted(sizes, reverse=True), recipe["batch_size"]))
        client_update(states, TestMutualLockstep.knowledge(data), data, 0, **recipe)
        assert len(forwards) == 3 * pair_steps
        assert len(steps) == 2 * pair_steps

    def test_local_train_one_per_batch(self, forwards):
        data = make_data()
        state, recipe = make_client(data)
        local_train([state], nets.init_network(
            nets.ArchSpec(data.dim, (8,), data.num_classes), 11), data, 0, **recipe)
        assert len(forwards) == self.batches(state, recipe)

    def test_distill_members_once_per_call(self, forwards):
        data = make_data()
        members = trained_members(data, count=4)
        server = make_server(data)
        forwards.clear()
        distill(server, members, data, 3)
        config = server.config
        batches = config.distill_epochs * math.ceil(len(server.distill_indices) / config.batch_size)
        assert len(forwards) == len(members) + batches

    def test_round_scores_only_unscored_clients(self, forwards):
        data = synth_blobs(3, 80, 4, 0.8, seed=5)
        clients = [make_client(data, cid=c, hidden=(4,), n_train=40)[0] for c in range(6)]
        server = make_server(data, count=40, epochs=0, recipe={"epochs": 0}, sample_ratio=0.5)
        run_round(server, clients, data, WireAudit(None, "upload_only"), 3)
        assert len(forwards) == len(clients)  # all 6 in run_round
        forwards.clear()
        run_round(server, clients, data, WireAudit(None, "upload_only"), 4)
        assert len(forwards) == 3  # the sampled clients' own evaluations


class TestLossTermCounts:
    """Losses are scored once per scored epoch: the per-row term helper, one call per loss
    term (CE is the KL from a one-hot block), runs a fixed number of times per epoch a
    caller reads, however many batches the epoch has."""

    @pytest.fixture
    def terms(self, monkeypatch):
        calls = []

        def counting(*args, _helper=nets._kl_terms):
            calls.append(1)
            return _helper(*args)
        monkeypatch.setattr(nets, "_kl_terms", counting)
        return calls

    @pytest.mark.parametrize("batch_size", [4, 13, 200])
    def test_client_update(self, terms, batch_size):
        data = make_data()
        state, recipe = make_client(data, batch_size=batch_size)
        client_update([state], nets.init_network(
            nets.ArchSpec(data.dim, (6,), data.num_classes), 7), data, 0, **recipe)
        # the local model's CE + KL per epoch
        assert len(terms) == 2 * recipe["epochs"]

    @pytest.mark.parametrize("batch_size", [4, 13, 200])
    def test_local_train(self, terms, batch_size):
        data = make_data()
        state, recipe = make_client(data, batch_size=batch_size)
        local_train([state], nets.init_network(
            nets.ArchSpec(data.dim, (8,), data.num_classes), 11), data, 0, **recipe)
        assert len(terms) == recipe["epochs"]

    @pytest.mark.parametrize("batch_size", [4, 13, 200])
    def test_distill(self, terms, batch_size):
        data = make_data()
        members = trained_members(data)
        server = make_server(data)
        server.config.batch_size = batch_size
        terms.clear()
        distill(server, members, data, 3)
        # distill reads only its last epoch's loss, so only that epoch is scored
        assert server.config.distill_epochs > 1
        assert len(terms) == 1


def test_trained_rejects_overflowed_parameters():
    trainer = nets.Trainer([nets.init_network(nets.ArchSpec(2, (), 2), 0)], 1e308,
                           guard={"client_id": 3})
    views = trainer.views(slice(1))
    _, inputs, pre = trainer.probs(np.array([[[4.0, 4.0]]]), None, views=views)
    with np.errstate(over="ignore", invalid="ignore"):
        # finite gradient, lr * grad = inf
        trainer.step(inputs, pre, np.array([[[-1.0, 1.0]]]), views=views)
    with pytest.raises(DivergenceError) as err:
        trainer.trained()
    assert err.value.client_id == 3


def test_distill_divergence_is_typed():
    data = make_data()
    server = make_server(data)
    server.config.distill_lr = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            distill(server, trained_members(data), data, 3)
    assert err.value.round_index == 3
    assert err.value.epoch is not None and err.value.batch_index is not None
    # the student Trainer names its logits
    assert str(err.value) == ("non-finite distillation logits (round_index=3, "
                              "epoch=0, batch_index=1)")
