"""bench/tracing.py's targets against the program: every name it patches still exists, and
every argument and result its hooks read is still where and what they expect.

The tracer skips a target that no longer exists and leaves its metrics out,
so a renamed function would silently drop per-layer metrics from a traced
benchmark run.  Its hooks read call arguments by position or name, and the
results of run_round and of both batch_iterator names, so a reordered
signature or a reshaped result would silently miscount.  The module is loaded
by path and never installed: the result tests call its hooks directly on
results of the program.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from fedkemf import checkpoint, client, nets, runner, server
from fedkemf.costs import WireAudit

from test_training_core import make_client, make_data, make_server

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# (function a hook's target calls, argument index, argument name) of each _arg read
ARGUMENT_READS = ((runner.run_round, 1, "clients"), (server.distill, 1, "members"),
                  (nets.forward, 0, "net"), (checkpoint.save, 1, "path"))


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_target_is_a_callable_in_fedkemf():
    tracing = load_tracing()
    assert tracing.ALL_TARGETS
    for module, attribute, span in tracing.ALL_TARGETS:
        found = getattr(importlib.import_module(f"fedkemf.{module}"), attribute, None)
        assert callable(found), (module, attribute, span)


def test_every_argument_the_hooks_read_is_at_its_position():
    reads = re.findall(r'_arg\(args, kwargs, (\d+), "(\w+)"\)', TRACING.read_text())
    assert sorted((int(i), name) for i, name in reads) == sorted(
        (index, name) for _, index, name in ARGUMENT_READS)
    for fn, index, name in ARGUMENT_READS:
        assert list(inspect.signature(fn).parameters)[index] == name, fn.__qualname__


def test_run_round_result_holds_the_sampled_ids_the_round_hook_reads(monkeypatch):
    # _after_round counts local_epochs x the train shard of each id in result["sampled"]
    data = make_data()
    clients = [make_client(data, cid=c, hidden=(4,), n_train=20 + c)[0] for c in range(4)]
    srv = make_server(data, count=40, epochs=1, recipe={"epochs": 2}, sample_ratio=0.5)
    trained = []

    def recording(states, *args, _train=server.client_update, **kwargs):
        trained.extend(st.client_id for st in states)
        return _train(states, *args, **kwargs)
    monkeypatch.setattr(server, "client_update", recording)
    args = (srv, clients, data, WireAudit(None, "upload_only"), 3)
    result = server.run_round(*args)
    assert result["sampled"] == trained and len(trained) == 2
    tracer = load_tracing().Tracer({}, (), local_epochs=2)
    tracer._after_round(args, {}, result)
    assert tracer.round_samples == [2 * sum(20 + cid for cid in trained)]


@pytest.mark.parametrize("module", [client, server], ids=["client", "server"])
def test_batch_iterator_returns_the_sized_batches_the_counting_hook_reads(module):
    # _counting adds len(result) of client.batch_iterator and server.batch_iterator calls
    args = (np.arange(10), 4, 0)
    batches = module.batch_iterator(*args)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))
    tracer = load_tracing().Tracer({}, (), local_epochs=1)
    tracer._counting("batches")(args, {}, batches)
    assert tracer.counters["batches"] == 3
