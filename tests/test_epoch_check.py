"""The per-epoch check against the per-step guards it stands in for.

Training runs without per-step finiteness guards, checks its softmax blocks
once per epoch (nets.check_epoch) and its parameters once, when the call hands
its networks back (Trainer.trained()); a failed check replays the call with the
guards on (nets.per_epoch_checked).  Each case here runs a call both ways, the
normal pass and the guarded pass alone, and requires the same error or the
same bits, and the same numpy warnings.
"""

import warnings

import numpy as np
import pytest

from fedkemf import client, nets, seeding, server
from fedkemf.client import ClientState, batch_iterator, local_train
from fedkemf.data import Dataset
from fedkemf.errors import DivergenceError
from fedkemf.seeding import SALT_DISTILL, SALT_ORDERS, stream
from fedkemf.server import distill

from test_training_core import (
    make_client, make_data, make_server, reference_local_train, trained_members,
)

ROUND, SEED, CLIENT = 2, 5, 4
REAL_PER_EPOCH_CHECKED = nets.per_epoch_checked


@pytest.fixture
def passes(monkeypatch):
    """Records each pass's `guarded` flag; run(fn, strict_only) calls fn with the normal
    two-pass scheme, or with the guarded pass alone."""
    seen = []

    def run(fn, strict_only=False):
        def checked(call):
            def recorded(guarded):
                seen.append(guarded)
                return call(guarded)
            return recorded(True) if strict_only else REAL_PER_EPOCH_CHECKED(recorded)
        monkeypatch.setattr(nets, "per_epoch_checked", checked)
        return fn()
    run.seen = seen
    return run


def outcome(fn):
    """('error', what the error says) or ('ok', the result's parameters and losses), and the
    numpy warnings the call emitted, under errstate(all="warn")."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        try:
            result = fn()
        except DivergenceError as err:
            result = ("error", (err.client_id, err.round_index, err.epoch, err.batch_index,
                                str(err)))
        else:
            result = ("ok", [(net.params.tobytes(), loss) for net, loss in result])
    return result, [(w.category, str(w.message)) for w in caught]


def shard_data(x, labels):
    """A 1-feature, 2-class dataset whose client trains and is scored on every row."""
    data = Dataset(np.asarray(x, dtype=np.float64).reshape(-1, 1), np.asarray(labels), 2)
    rows = np.arange(len(labels))
    state = ClientState(CLIENT, nets.init_network(nets.ArchSpec(1, (), 2), 0), rows, rows)
    return data, state


RECIPE = {"lr": 0.1, "epochs": 2, "batch_size": 2, "seed": SEED}


def train(data, states, params, hidden=(), **recipe):
    model = nets.Network(nets.ArchSpec(1, hidden, 2), np.array(params, dtype=np.float64))
    return lambda: local_train(states, model, data, ROUND, **{**RECIPE, **recipe})


def last_batch_row(n, batch_size, epoch=0):
    """The shard row that epoch `epoch` puts first in its last batch."""
    orders = stream(SEED, SALT_ORDERS, CLIENT, ROUND)
    batches = [batch_iterator(np.arange(n), batch_size, orders) for _ in range(epoch + 1)]
    return int(batches[-1][-1][0])


def assert_same_as_strict(passes, fn):
    """The outcome of fn, after checking that the normal pass failed its check, was replayed
    strict, and ended as the strict pass alone does."""
    normal = outcome(lambda: passes(fn))
    assert passes.seen == [False, True]
    del passes.seen[:]
    strict = outcome(lambda: passes(fn, strict_only=True))
    assert passes.seen == [True]
    assert normal == strict
    return normal


def test_minus_inf_logit_with_finite_parameters(passes):
    # W = [1e-300, -1e10]: the 1e300 row's logits are [1, -inf], its softmax [1, 0]; label 0
    # makes its gradient 0, so the parameters stay finite and only the softmax check sees it.
    x = np.zeros(5)
    x[last_batch_row(5, 2)] = 1e300
    data, state = shard_data(x, np.zeros(5, dtype=int))
    (kind, err), _ = assert_same_as_strict(passes, train(data, [state], [1e-300, -1e10, 0.0, 0.0]))
    assert kind == "error" and err[2:4] == (0, 2) and "non-finite logits" in err[4]


def test_non_finite_gradient_on_an_epochs_last_batch(passes):
    # One hidden unit: W1 = 1e-308 keeps h = 1e-298 and the logits [100, -100] finite on the
    # 1e10 row, but W2 = [1e300, -1e300] backpropagates ~1e300 into dW1 = 1e10 * 1e300 = inf.
    x = np.zeros(5)
    x[last_batch_row(5, 2)] = 1e10
    data, state = shard_data(x, np.ones(5, dtype=int))
    fn = train(data, [state], [1e-308, 0.0, 1e300, -1e300, 0.0, 0.0], hidden=(1,))
    (kind, err), _ = assert_same_as_strict(passes, fn)
    assert kind == "error" and err[2:4] == (0, 2) and "non-finite gradient" in err[4]


def test_lr_times_gradient_overflowing_on_the_final_step(passes):
    # One batch, one epoch: the gradient is finite, lr * gradient is not, and no step follows
    # that would see it, so the error is trained()'s, on the parameters.
    data, state = shard_data([10.0, 10.0], [0, 1])
    fn = train(data, [state], [0.5, -0.5, 0.0, 0.0], lr=1e308, epochs=1, batch_size=2)
    (kind, err), _ = assert_same_as_strict(passes, fn)
    assert kind == "error" and err[2:4] == (None, None) and "non-finite parameters" in err[4]


def test_parameters_overflowing_before_a_later_epoch(passes):
    # Two epochs of one batch: epoch 0's softmax is healthy and its lr * gradient overflows
    # the weights to -inf and +inf.  The epoch check reads only softmax blocks, so the
    # unguarded pass goes on into epoch 1, whose logits the guarded pass refuses first.
    data, state = shard_data([10.0, 10.0], [0, 1])
    fn = train(data, [state], [0.5, -0.5, 0.0, 0.0], lr=1e308, epochs=2, batch_size=2)
    (kind, err), _ = assert_same_as_strict(passes, fn)
    assert kind == "error" and err[2:4] == (1, 0) and "non-finite logits" in err[4]


@pytest.mark.parametrize("clients", [1, 2], ids=["one_client", "two_clients"])
def test_healthy_softmax_underflow_returns_the_strict_result(passes, clients):
    # W = [0, -100]: the x = 10 rows' logits are [0, -1000], softmax exactly [1, 0].  Nothing
    # is non-finite, yet the check cannot tell, so the call is replayed (with two clients, as
    # the serial loop) and must return the same bits (and the same underflow warnings).
    data, state = shard_data([10.0, 0.0, 10.0, 1.0, 10.0], [0, 1, 0, 1, 0])
    other = ClientState(CLIENT + 1, state.local_model, np.arange(3), np.arange(3))
    states = [state, other][:clients]
    params = [0.0, -100.0, 0.0, 0.0]
    (kind, result), _ = assert_same_as_strict(passes, train(data, states, params))
    model = nets.Network(nets.ArchSpec(1, (), 2), np.array(params))
    refs = [reference_local_train(st, model, data, ROUND, **RECIPE) for st in states]
    assert kind == "ok" and result == [(net.params.tobytes(), loss) for net, loss in refs]


def test_healthy_call_runs_one_pass(passes):
    data, state = shard_data([1.0, -1.0, 2.0, 0.5, -2.0], [0, 1, 0, 1, 1])
    outcome(lambda: passes(train(data, [state], [0.3, -0.3, 0.0, 0.0])))
    assert passes.seen == [False]


def test_diverging_call_warns_as_the_strict_path(passes):
    # A huge distillation lr overflows the student; both paths warn the same, in order.
    data = make_data()
    server = make_server(data)
    server.config.distill_lr = 1e300
    members = trained_members(data)

    def fn():
        return [distill(server, members, data, 3)]
    (kind, err), warned = assert_same_as_strict(passes, fn)
    assert kind == "error" and warned and all(c is RuntimeWarning for c, _ in warned)


def test_check_epoch_sees_each_kind_of_failure():
    with np.errstate(all="ignore"):
        rows = {name: nets.softmax_finite(np.array([[0.0, v]]))
                for name, v in (("nan", np.nan), ("+inf", np.inf), ("-inf", -np.inf))}
    for q in rows.values():
        with pytest.raises(DivergenceError, match="per-epoch check"):
            nets.check_epoch([np.ones((2, 2)), q])
    nets.check_epoch([np.full((2, 2), 0.5)])


def test_guarded_replay_draws_the_orders_of_the_unguarded_pass(monkeypatch):
    # Both passes run to the end, the unguarded one first.  Per stream, the replay must draw
    # the orders the unguarded pass drew, in the same sequence, although that pass trains the
    # clients in stacks, largest shard first, and the replay each client alone.
    contexts, drawn = {}, []
    real_batch_iterator = client.batch_iterator

    def keyed(seed, salt, stream_id=0, word2=0):
        gen = seeding.stream(seed, salt, stream_id, word2)
        contexts[id(gen)] = (gen, (salt, stream_id, word2))  # gen kept alive: ids stay unique
        return gen

    def batches(indices, batch_size, epoch_seed):
        out = real_batch_iterator(indices, batch_size, epoch_seed)
        drawn[-1].setdefault(contexts[id(epoch_seed)][1], []).append(np.concatenate(out).tolist())
        return out

    def both_passes(call):
        drawn.append({})
        call(False)
        drawn.append({})
        return call(True)

    for module in (client, server):
        monkeypatch.setattr(module, "stream", keyed)
        monkeypatch.setattr(module, "batch_iterator", batches)
    monkeypatch.setattr(nets, "per_epoch_checked", both_passes)
    data = make_data()
    states = [make_client(data, cid, n_train=n)[0] for cid, n in enumerate((40, 90, 65))]
    model = nets.init_network(states[0].local_model.arch, 3)
    local_train(states, model, data, ROUND, lr=0.1, epochs=3, batch_size=7, seed=SEED)
    distill(make_server(data), trained_members(data), data, 3)
    unguarded, guarded = drawn[0::2], drawn[1::2]
    assert [sorted(d) for d in unguarded] == [[(SALT_ORDERS, cid, ROUND) for cid in range(3)],
                                              [(SALT_DISTILL, 0, 3)]]
    assert all(len(orders) == 3 for d in unguarded for orders in d.values())
    assert guarded == unguarded
