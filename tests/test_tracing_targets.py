"""bench/tracing.py's targets against the program: every name it patches still exists.

The tracer skips a target that no longer exists and leaves its metrics out,
so a renamed function would silently drop per-layer metrics from a traced
benchmark run.  Its hooks read call arguments by position or name, so a
reordered signature would silently miscount.  The module is loaded by path
and only read.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from fedkemf import checkpoint, nets, runner, server

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# (function a hook's target calls, argument index, argument name) of each _arg read
ARGUMENT_READS = ((runner.run_round, 1, "clients"), (server.distill, 1, "members"),
                  (nets.forward, 0, "net"), (checkpoint.save, 1, "path"))


def test_every_traced_target_is_a_callable_in_fedkemf():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
