"""bench/tracing.py's targets against the program: every name it patches still exists.

The tracer skips a target that no longer exists and leaves its metrics out,
so a renamed function would silently drop per-layer metrics from a traced
benchmark run.  The module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_is_a_callable_in_fedkemf():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ALL_TARGETS
    for module, attribute, span in tracing.ALL_TARGETS:
        found = getattr(importlib.import_module(f"fedkemf.{module}"), attribute, None)
        assert callable(found), (module, attribute, span)
