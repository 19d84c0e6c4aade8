import inspect
import itertools

import numpy as np
import pytest

from fedkemf import nets, server as server_module
from fedkemf.client import ClientState
from fedkemf.config import STRATEGIES
from fedkemf.costs import WireAudit
from fedkemf.data import synth_blobs
from fedkemf.errors import DivergenceError
from fedkemf.server import (
    ServerState, average_init, distill, ensemble_logits, fedavg_aggregate,
    run_round, sample_clients, teacher_distributions,
)

from test_training_core import server_config


def brute_force_max(member_logits):
    """Independent element-wise maximum oracle: explicit triple loop."""
    members = [np.asarray(m) for m in member_logits]
    n, c = members[0].shape
    out = np.full((n, c), -np.inf)
    for m in members:
        for i in range(n):
            for j in range(c):
                if m[i, j] > out[i, j]:
                    out[i, j] = m[i, j]
    return out


def brute_force_avg(member_logits):
    """Independent mean oracle: explicit loops, members summed in the order given."""
    members = [np.asarray(m) for m in member_logits]
    n, c = members[0].shape
    out = np.zeros((n, c))
    for i in range(n):
        for j in range(c):
            for m in members:
                out[i, j] += m[i, j]
            out[i, j] /= len(members)
    return out


def brute_force_vote(member_logits):
    """Independent vote oracle: each member's first largest column per row gets one vote."""
    members = [np.asarray(m) for m in member_logits]
    n, c = members[0].shape
    out = np.zeros((n, c))
    for i in range(n):
        for m in members:
            best = 0
            for j in range(1, c):
                if m[i, j] > m[i, best]:
                    best = j
            out[i, best] += 1
    return out / len(members)


# one by-hand oracle per strategy the config accepts
ORACLES = {"max_logits": brute_force_max, "avg_logits": brute_force_avg,
           "majority_vote": brute_force_vote}


class TestSampleClients:
    def test_table_arithmetic(self):
        assert len(sample_clients(30, 0.4, round_index=1, experiment_seed=0)) == 12

    def test_full_participation(self):
        assert sample_clients(5, 1.0, 1, 0) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = sample_clients(20, 0.3, 7, 99)
        b = sample_clients(20, 0.3, 7, 99)
        assert a == b
        assert a != sample_clients(20, 0.3, 8, 99)

    def test_at_least_one(self):
        assert len(sample_clients(10, 0.01, 0, 0)) == 1

    def test_without_replacement(self):
        s = sample_clients(10, 0.8, 3, 5)
        assert len(set(s)) == len(s)


class TestEnsembleLogits:
    def test_max_by_hand(self):
        out = ensemble_logits([np.array([[1.0, 4.0]]), np.array([[3.0, 2.0]])], "max_logits")
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_avg_by_hand(self):
        out = ensemble_logits([np.array([[1.0, 4.0]]), np.array([[3.0, 2.0]])], "avg_logits")
        assert np.array_equal(out, [[2.0, 3.0]])

    def test_majority_vote_fractions(self):
        members = [np.array([[5.0, 0.0]]), np.array([[5.0, 0.0]]), np.array([[0.0, 5.0]])]
        out = ensemble_logits(members, "majority_vote")
        assert np.allclose(out, [[2 / 3, 1 / 3]])

    def test_singleton_identity(self):
        z = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(ensemble_logits([z], "max_logits"), z)
        assert np.array_equal(ensemble_logits([z], "avg_logits"), z)
        assert np.array_equal(ensemble_logits([z], "majority_vote"), [[1.0, 0.0, 0.0]])

    def test_singleton_strategy_equivalence_on_argmax(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((6, 4))
        argmaxes = {
            s: np.argmax(teacher_distributions([z], s), axis=1)
            for s in ("max_logits", "avg_logits", "majority_vote")
        }
        for a, b in itertools.combinations(argmaxes.values(), 2):
            assert np.array_equal(a, b)

    def test_max_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            members = [rng.standard_normal((4, 5)) for _ in range(5)]
            assert np.array_equal(
                ensemble_logits(members, "max_logits"), brute_force_max(members)
            )

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(13)
        members = [rng.standard_normal((3, 4)) for _ in range(4)]
        for strategy in ("max_logits", "avg_logits", "majority_vote"):
            base = ensemble_logits(members, strategy)
            for perm in itertools.permutations(range(4)):
                assert np.array_equal(
                    ensemble_logits([members[i] for i in perm], strategy), base
                )

    def test_max_argmax_dominance(self):
        rng = np.random.default_rng(8)
        members = [rng.standard_normal((5, 3)) for _ in range(4)]
        combined = ensemble_logits(members, "max_logits")
        stacked = np.stack(members)  # K x N x C
        column_max = stacked.max(axis=0)
        assert np.array_equal(np.argmax(combined, axis=1), np.argmax(column_max, axis=1))

    def test_oracles_are_keyed_by_every_strategy(self):
        # a strategy the config accepts without its own branch would fall through to the vote
        assert tuple(ORACLES) == STRATEGIES

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_matches_its_oracle(self, strategy):
        rng = np.random.default_rng(34)
        for k in (1, 2, 5):
            members = [rng.standard_normal((4, 5)) for _ in range(k)]
            members[0][0] = 0.0  # a row whose columns tie: its vote goes to column 0
            expected = ORACLES[strategy](members)
            assert np.allclose(ensemble_logits(members, strategy), expected, rtol=1e-15, atol=0)


class TestTeacherDistributions:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_non_finite_member_raises_divergence(self, strategy):
        finite = np.array([[0.0, 1.0], [2.0, -1.0]])
        hidden = finite.copy()
        hidden[1, 1] = -np.inf  # below the other member's entry, so max_logits drops it
        with pytest.raises(DivergenceError) as caught:
            teacher_distributions([finite, hidden], strategy, round_index=1)
        assert str(caught.value) == "non-finite teacher logits (round_index=1)"


class TestAggregation:
    def arch(self):
        return nets.ArchSpec(2, (), 2)

    def test_average_of_identical_is_identity(self):
        net = nets.init_network(self.arch(), 5)
        out = average_init([net, net.copy(), net.copy()])
        assert np.array_equal(out.params, net.params)

    def test_average_by_hand(self):
        a = nets.Network(self.arch(), np.array([0.0, 2.0, 0.0, 0.0, 0.0, 0.0]))
        b = nets.Network(self.arch(), np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert np.array_equal(average_init([a, b]).params[:2], [1.0, 1.0])

    def test_fedavg_equal_weights_reduces_to_average(self):
        members = [nets.init_network(self.arch(), s) for s in range(3)]
        assert np.allclose(
            fedavg_aggregate(members, [1, 1, 1]).params, average_init(members).params
        )

    def test_fedavg_degenerate_weight(self):
        members = [nets.init_network(self.arch(), s) for s in range(2)]
        assert np.array_equal(fedavg_aggregate(members, [1, 0]).params, members[0].params)

    def test_fedavg_shard_size_weighting(self):
        a = nets.Network(self.arch(), np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        b = nets.Network(self.arch(), np.array([4.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        out = fedavg_aggregate([a, b], [30, 10])
        assert out.params[0] == pytest.approx(1.0)


def make_server(data, hidden=(8,), distill_epochs=3, distill_lr=0.05, strategy="max_logits",
                init_mode="avg_members", seed=0, distill_count=100, local_epochs=2, lr=0.1,
                mode="fedkemf", sample_ratio=1.0):
    arch = nets.ArchSpec(data.dim, hidden, data.num_classes)
    return ServerState(
        global_knowledge=nets.init_network(arch, seed),
        distill_indices=list(range(distill_count)),
        config=server_config(
            mode=mode, sample_ratio=sample_ratio, local_epochs=local_epochs, lr=lr,
            distill_epochs=distill_epochs, distill_lr=distill_lr, strategy=strategy,
            server_init=init_mode, batch_size=16, experiment_seed=seed),
    )


def trained_member(data, hidden, steps=200, lr=0.3, seed=0):
    net = nets.init_network(nets.ArchSpec(data.dim, hidden, data.num_classes), seed)
    for _ in range(steps):
        net = nets.sgd_step(net, nets.loss_gradient(net, data.features, data.labels), lr)
    return net


class TestDistill:
    def test_noop_on_single_member_zero_epochs(self):
        data = synth_blobs(3, 40, 3, 0.5, seed=2)
        server = make_server(data, distill_epochs=0)
        member = nets.init_network(server.global_knowledge.arch, 42)
        student, loss = distill(server, [member], data, 1)
        assert np.array_equal(student.params, member.params)
        assert loss == 0.0

    def test_student_matches_single_strong_teacher(self):
        data = synth_blobs(3, 60, 3, 0.5, seed=7)
        teacher = trained_member(data, (8,), seed=1)
        server = make_server(data, distill_epochs=10, distill_lr=0.2)
        student, _ = distill(server, [teacher], data, 1)
        split = np.asarray(server.distill_indices)
        x = data.features[split]
        t_pred = np.argmax(nets.forward(teacher, x), axis=1)
        s_pred = np.argmax(nets.forward(student, x), axis=1)
        assert np.mean(t_pred == s_pred) >= 0.9

    def test_loss_non_increasing_most_seeds(self):
        improved = 0
        for seed in range(5):
            data = synth_blobs(3, 60, 3, 0.5, seed=seed)
            members = [trained_member(data, (8,), steps=100, seed=s) for s in (seed, seed + 10)]
            server = make_server(data, distill_epochs=1, distill_lr=0.05, seed=seed,
                                 init_mode="warm_start")
            _, first = distill(server, members, data, 1)
            server2 = make_server(data, distill_epochs=4, distill_lr=0.05, seed=seed,
                                  init_mode="warm_start")
            _, last = distill(server2, members, data, 1)
            improved += last <= first
        assert improved >= 4

    def test_majority_vote_teacher_is_usable(self):
        data = synth_blobs(3, 40, 3, 0.5, seed=3)
        members = [trained_member(data, (8,), steps=50, seed=s) for s in range(3)]
        server = make_server(data, strategy="majority_vote", distill_epochs=2)
        student, loss = distill(server, members, data, 1)
        assert np.all(np.isfinite(student.params))
        assert loss >= 0.0


def make_clients(data, partition_sizes, hidden=(8,), epochs=2, lr=0.1, seed=0):
    """(clients, recipe): recipe is the keywords the training entry points take."""
    clients = []
    start = 0
    for cid, size in enumerate(partition_sizes):
        idx = list(range(start, start + size))
        start += size
        n_val = max(1, size // 10)
        clients.append(ClientState(
            client_id=cid,
            local_model=nets.init_network(nets.ArchSpec(data.dim, hidden, data.num_classes), seed + cid),
            train_indices=idx[n_val:],
            eval_indices=idx[:n_val],
        ))
    return clients, {"lr": lr, "epochs": epochs, "batch_size": 16, "seed": seed}


class TestRunRound:
    def test_singleton_composition(self):
        # 1 client, full participation, no distillation epochs: the new global
        # knowledge is exactly the client's returned knowledge network.
        data = synth_blobs(2, 60, 2, 0.5, seed=4)
        clients, recipe = make_clients(data, [100], epochs=1)
        server = make_server(data, distill_epochs=0, distill_count=20, local_epochs=1)
        server.distill_indices = list(range(100, 120))
        from fedkemf.client import client_update

        (twin,), _ = make_clients(data, [100], epochs=1)
        expected, _, _ = client_update([twin], server.global_knowledge, data, round_index=1,
                                       **recipe)[0]
        stats = run_round(server, clients, data, WireAudit(None, "upload_only"), 1)
        assert stats["sampled"] == [0]
        assert np.array_equal(server.global_knowledge.params, expected.params)

    def test_round_index_keys_every_draw_of_the_round(self, monkeypatch):
        # A fresh server runs whichever round it is handed: the sampling, the client
        # training and the distillation all take round 5, with no counter on the server.
        data = synth_blobs(2, 60, 2, 0.5, seed=4)
        clients, _ = make_clients(data, [20] * 6, epochs=1)
        server = make_server(data, distill_epochs=1, distill_count=20, local_epochs=1,
                             sample_ratio=0.5)
        seen = {"client_update": [], "distill": []}
        for name in seen:
            def recording(*args, _name=name, _fn=getattr(server_module, name), **kwargs):
                seen[_name].append(inspect.signature(_fn).bind(*args, **kwargs)
                                   .arguments["round_index"])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(server_module, name, recording)
        stats = run_round(server, clients, data, WireAudit(None, "upload_only"), 5)
        assert stats["sampled"] == sample_clients(len(clients), 0.5, 5,
                                                  server.config.experiment_seed)
        assert seen == {"client_update": [5], "distill": [5]}

    def test_fedavg_identical_members_aggregate_identically(self):
        data = synth_blobs(2, 60, 2, 0.5, seed=4)
        clients, _ = make_clients(data, [50, 50])
        server = make_server(data, distill_count=20, local_epochs=0, mode="fedavg")
        server.distill_indices = list(range(100, 120))
        before = server.global_knowledge.params.copy()
        run_round(server, clients, data, WireAudit(None, "upload_only"), 1)
        # zero epochs: every member equals the broadcast model
        assert np.array_equal(server.global_knowledge.params, before)

    @pytest.mark.parametrize("mode, entry", [("fedkemf", "client_update"),
                                             ("fedavg", "local_train")])
    def test_round_trains_its_clients_in_one_call_by_name(self, monkeypatch, mode, entry):
        # The benchmark spans the client phase by patching these two names in the
        # server module; a round that trained through any other name would read 0.
        data = synth_blobs(2, 60, 2, 0.5, seed=4)
        clients, _ = make_clients(data, [20] * 6, epochs=1)
        server = make_server(data, distill_epochs=1, distill_count=20, local_epochs=1, mode=mode,
                             sample_ratio=0.5)
        calls = {"client_update": [], "local_train": []}
        for name in calls:
            def recording(states, *args, _name=name, _train=getattr(server_module, name),
                          **kwargs):
                calls[_name].append([id(st) for st in states])
                return _train(states, *args, **kwargs)
            monkeypatch.setattr(server_module, name, recording)
        audit = WireAudit(None, "upload_only")
        sampled = [run_round(server, clients, data, audit, r)["sampled"] for r in (1, 2)]
        other = "local_train" if entry == "client_update" else "client_update"
        assert calls[other] == []
        assert calls[entry] == [[id(clients[cid]) for cid in ids] for ids in sampled]
        assert all(ids == sorted(ids) and len(ids) == 3 for ids in sampled)
