"""Spans around the calls into each fedkemf module, recorded from outside the program.

A target is patched at the name its caller looks up: `server.client_update`
is the name `run_round` calls, so patching `client.client_update` would miss
it.  Functions in `nets` are patched on the module itself, because every
caller (and `nets` internally) looks them up there.  A target that no longer
exists is recorded in `Tracer.absent` and skipped, and the metrics that need
it are left out of the result.

Spans are (id, name, parent id, start, end) tuples kept in memory; the
caller writes them out when the run ends.  Worker threads start with an
empty stack, so their top-level spans take the main thread's innermost open
span (the `run_round` that submitted them) as parent.
"""

import itertools
import os
import threading
import time
from collections import defaultdict

ROUND_SPAN = "server.run_round"
EMIT_SPAN = "costs.emit_metrics"
CLIENT_TRAIN_SPANS = ("client.client_update", "client.local_train")

# (module the caller looks the name up in, attribute, span name)
ALL_TARGETS = (
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "run_experiment", "runner.run_experiment"),
    ("runner", "build_datasets", "runner.build_datasets"),
    ("runner", "build_partition", "runner.build_partition"),
    ("runner", "build_states", "runner.build_states"),
    ("runner", "synth_blobs", "data.synth_blobs"),
    ("runner", "dirichlet_partition", "data.dirichlet_partition"),
    ("runner", "run_round", ROUND_SPAN),
    ("runner", "emit_metrics", EMIT_SPAN),
    ("checkpoint", "save", "checkpoint.save"),
    ("server", "sample_clients", "server.sample_clients"),
    ("server", "client_update", "client.client_update"),
    ("server", "local_train", "client.local_train"),
    ("server", "distill", "server.distill"),
    ("server", "teacher_distributions", "server.teacher_distributions"),
    ("server", "fedavg_aggregate", "server.fedavg_aggregate"),
    ("server", "batch_iterator", "server.batch_iterator"),
    ("client", "batch_iterator", "client.batch_iterator"),
    ("nets", "forward", "nets.forward"),
    ("nets", "loss_gradient", "nets.loss_gradient"),
    ("nets", "sgd_step", "nets.sgd_step"),
    ("nets", "evaluate", "nets.evaluate"),
    ("nets", "softmax", "nets.softmax"),
)

# The untraced run patches only the round boundaries that end-to-end timing needs.
CLOCK_TARGETS = tuple(t for t in ALL_TARGETS if t[2] in (ROUND_SPAN, EMIT_SPAN))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, modules, targets, local_epochs):
        self.modules = modules          # short module name -> module object
        self.targets = targets
        self.local_epochs = local_epochs
        self.spans = []
        self.counters = defaultdict(int)
        self.round_samples = []         # per round: sum of epochs x train-shard size
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._patched = []
        self._members = frozenset()
        self._count_lock = threading.Lock()  # client hooks run on --jobs worker threads

    def _count(self, counter, n):
        with self._count_lock:
            self.counters[counter] += n

    # -- hooks that turn call arguments and results into exact counts --

    def _after_round(self, args, kwargs, result):
        clients = _arg(args, kwargs, 1, "clients")
        self.round_samples.append(sum(
            self.local_epochs * len(clients[cid].train_indices) for cid in result["sampled"]
        ))

    def _before_distill(self, args, kwargs):
        self._members = frozenset(id(m) for m in _arg(args, kwargs, 1, "members"))

    def _after_distill(self, args, kwargs, result):
        self._members = frozenset()

    def _before_forward(self, args, kwargs):
        if id(_arg(args, kwargs, 0, "net")) in self._members:
            self._count("server.distill.member_forwards", 1)

    def _counting(self, counter):
        def after(args, kwargs, result):
            self._count(counter, len(result))
        return after

    def _after_save(self, args, kwargs, result):
        self._count("checkpoint.save.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    def _hooks(self, span_name):
        return {
            ROUND_SPAN: (None, self._after_round),
            "server.distill": (self._before_distill, self._after_distill),
            "nets.forward": (self._before_forward, None),
            "client.batch_iterator": (None, self._counting("client.batches")),
            "server.batch_iterator": (None, self._counting("server.distill.batches")),
            "checkpoint.save": (None, self._after_save),
        }.get(span_name, (None, None))

    # -- patching --

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            on_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if on_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name):
        before, after = self._hooks(name)
        ids, spans, perf = self._ids, self.spans, time.perf_counter
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else -1
            sid = next(ids)
            if before is not None:
                before(args, kwargs)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, name, parent, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, span_name in self.targets:
            module = self.modules[module_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(span_name)
                continue
            setattr(module, attr, self._wrap(fn, span_name))
            self._patched.append((module, attr, fn))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class SpanTree:
    def __init__(self, spans):
        self.spans = {sid: (name, parent, t0, t1) for sid, name, parent, t0, t1 in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for sid, (name, parent, t0, t1) in self.spans.items():
            self.children[parent].append(sid)
            self.by_name[name].append(sid)

    def duration(self, sid):
        _, _, t0, t1 = self.spans[sid]
        return t1 - t0

    def self_time(self, sid):
        _, _, t0, t1 = self.spans[sid]
        kids = [self.spans[c][2:] for c in self.children[sid]]
        return (t1 - t0) - _covered(kids, t0, t1)

    def ancestors(self, sid):
        parent = self.spans[sid][1]
        while parent in self.spans:
            yield parent
            parent = self.spans[parent][1]

    def nearest(self, sid, names):
        """Name of the closest ancestor whose name is in `names`, else None."""
        for a in self.ancestors(sid):
            if self.spans[a][0] in names:
                return self.spans[a][0]
        return None

    def calls(self, name):
        return len(self.by_name[name])

    def total(self, name, parent=None):
        return sum(self.duration(s) for s in self.by_name[name]
                   if parent is None or self.parent_name(s) == parent)

    def self_total(self, name):
        return sum(self.self_time(s) for s in self.by_name[name])

    def round_ids(self):
        return sorted(self.by_name[ROUND_SPAN], key=lambda s: self.spans[s][2])

    def descendants(self, sid, names):
        out, todo = [], list(self.children[sid])
        while todo:
            c = todo.pop()
            if self.spans[c][0] in names:
                out.append(c)
            todo.extend(self.children[c])
        return out

    def parent_name(self, sid):
        parent = self.spans[sid][1]
        return self.spans[parent][0] if parent in self.spans else None
