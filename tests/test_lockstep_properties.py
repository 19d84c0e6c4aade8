"""Property: lockstep training is each client's serial run, for any group of clients.

Both entry points (local_train for fedavg, client_update for fedkemf) stack
the sampled clients and step them together.  Hypothesis draws the groups:
one (lr, epochs, batch_size) recipe that every client of the example trains
with, shard sizes down to one row and below the batch size, mixes of the
shipped `32 | 64 | 64,32` local architectures, and up to 12 clients.  Every
client's lockstep result must be bit-identical to the reference loop built
from the public primitives, and a forced divergence must raise exactly the
error of the serial loop (each client alone, in the given order).  Sizes
stay small, so an example takes milliseconds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fedkemf import nets
from fedkemf.client import client_update, local_train
from fedkemf.data import Dataset, synth_blobs
from fedkemf.errors import DivergenceError

from test_training_core import make_client, reference_client_update, reference_local_train

ARCHS = ((32,), (64,), (64, 32))
ROUND = 3
BOUNDED = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def make_data():
    # ten classes, as kemf-many, so the per-row KL sums run over 10 entries
    return synth_blobs(10, 30, 5, 0.8, seed=21)


@st.composite
def groups(draw, lrs=(0.1, 0.05)):
    """(recipe keys, [client keys]): one lr, epochs and batch_size for the whole group, and
    each client's shard size and local architecture."""
    recipe = {"lr": draw(st.sampled_from(lrs)), "epochs": draw(st.sampled_from((0, 1, 2))),
              "batch_size": draw(st.sampled_from((1, 3, 5, 8)))}
    keys = [{"n_train": draw(st.integers(1, 20)), "hidden": draw(st.sampled_from(ARCHS))}
            for _ in range(draw(st.integers(1, 12)))]
    return recipe, keys


def clients(data, group):
    """(states, recipe) of a drawn group."""
    recipe, keys = group
    made = [make_client(data, cid=c, n_val=4, **recipe, **k) for c, k in enumerate(keys)]
    return [state for state, _ in made], made[0][1]


def knowledge(data):
    return nets.init_network(nets.ArchSpec(data.dim, (16,), data.num_classes), 7)


def shared_model(data, group):
    return nets.init_network(nets.ArchSpec(data.dim, group[1][0]["hidden"], data.num_classes), 17)


@BOUNDED
@given(groups())
def test_mutual_lockstep_equals_serial_reference(group):
    data = make_data()
    net = knowledge(data)
    (states, recipe), (twins, _) = clients(data, group), clients(data, group)
    results = client_update(states, net, data, round_index=ROUND, **recipe)
    for twin, (kn, loss, local) in zip(twins, results):
        ref_kn, ref_theta, ref_loss, _ = reference_client_update(twin, net, data, ROUND, **recipe)
        assert np.array_equal(kn.params, ref_kn.params)
        assert np.array_equal(local.params, ref_theta.params)
        assert loss == ref_loss


@BOUNDED
@given(groups())
def test_plain_lockstep_equals_serial_reference(group):
    data = make_data()
    model = shared_model(data, group)
    states, recipe = clients(data, group)
    results = local_train(states, model, data, round_index=ROUND, **recipe)
    for st_, (net, loss) in zip(states, results):
        ref_net, ref_loss = reference_local_train(st_, model, data, ROUND, **recipe)
        assert np.array_equal(net.params, ref_net.params)
        assert loss == ref_loss


def serial(train, states, model, data, recipe):
    """(results, error) of a serial loop: each client alone, in order, until one raises."""
    results = []
    for st_ in states:
        try:
            results.append(train([st_], model, data, ROUND, **recipe)[0])
        except DivergenceError as err:
            return results, err
    return results, None


def outcome(err):
    return (err.client_id, err.round_index, err.epoch, err.batch_index, str(err))


@BOUNDED
@given(st.sampled_from(("mutual", "plain")), groups(lrs=(0.1, 1e12, 1e300)),
       st.none() | st.tuples(st.integers(0, 11), st.integers(0, 19)))
def test_divergence_names_the_serial_loops_client(mode, group, poison):
    # Huge learning rates diverge at varied epochs and batches; a NaN feature
    # row in one client's shard diverges at the first batch that holds it.
    data = make_data()
    data = Dataset(data.features.copy(), data.labels, data.num_classes)
    (states, recipe), (twins, _) = clients(data, group), clients(data, group)
    if poison is not None:
        target = states[poison[0] % len(states)]
        if recipe["epochs"]:
            data.features[target.train_indices[poison[1] % len(target.train_indices)]] = np.nan
    if mode == "mutual":
        train, model = client_update, knowledge(data)
    else:
        train, model = local_train, shared_model(data, group)
    before = [st_.local_model for st_ in states]
    with np.errstate(all="ignore"):
        want, want_err = serial(train, twins, model, data, recipe)
        try:
            got, got_err = train(states, model, data, round_index=ROUND, **recipe), None
        except DivergenceError as err:
            got, got_err = None, err
    assert poison is None or recipe["epochs"] == 0 or want_err is not None
    if want_err is None:
        assert got_err is None
        # (knowledge, loss, local) or (net, loss)
        for (net, loss, *local), (want_net, want_loss, *want_local) in zip(got, want):
            assert np.array_equal(net.params, want_net.params) and loss == want_loss
            assert all(np.array_equal(a.params, b.params) for a, b in zip(local, want_local))
    else:
        assert got_err is not None and outcome(got_err) == outcome(want_err)
    for st_, model in zip(states, before):  # training changes no state, whatever it raised
        assert st_.local_model is model and st_.val_accuracy is None
