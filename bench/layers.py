"""Per-layer metrics of one traced fedkemf run, computed from its spans and counters.

Times (`.s`, `.self_s`) are seconds summed over the whole run; `us_per_call`
is the mean span length.  Counts are exact and must repeat between two
traced runs at one seed.
"""

from tracing import CLIENT_TRAIN_SPANS, ROUND_SPAN, SpanTree

CLIENT = CLIENT_TRAIN_SPANS
EVAL = "nets.evaluate"
FORWARD = "nets.forward"
LOSS_GRAD = "nets.loss_gradient"

# name -> (unit, exact count?, span names the value needs)
METRICS = {
    "runner.build_datasets.s": ("s", False, ("runner.build_datasets",)),
    "runner.build_partition.s": ("s", False, ("runner.build_partition",)),
    "runner.build_states.s": ("s", False, ("runner.build_states",)),
    "runner.test_eval.s": ("s", False, (EVAL, "runner.run_experiment")),
    "data.synth_blobs.s": ("s", False, ("data.synth_blobs",)),
    "data.dirichlet_partition.s": ("s", False, ("data.dirichlet_partition",)),
    "config.parse_config.s": ("s", False, ("config.parse_config",)),
    "client.client_update.calls": ("count", True, ("client.client_update",)),
    "client.client_update.s": ("s", False, ("client.client_update",)),
    "client.client_update.self_s": ("s", False, ("client.client_update",)),
    "client.local_train.calls": ("count", True, ("client.local_train",)),
    "client.local_train.s": ("s", False, ("client.local_train",)),
    "client.local_train.self_s": ("s", False, ("client.local_train",)),
    "client.batches": ("count", True, ("client.batch_iterator",)),
    "client.forwards_per_batch": (
        "1/batch", True, CLIENT + (FORWARD, LOSS_GRAD, EVAL, "client.batch_iterator")),
    "client.sgd_steps_per_batch": (
        "1/batch", True, CLIENT + ("nets.sgd_step", "client.batch_iterator")),
    "nets.forward.calls": ("count", True, (FORWARD,)),
    "nets.forward.us_per_call": ("us", False, (FORWARD,)),
    "nets.loss_gradient.calls": ("count", True, (LOSS_GRAD,)),
    "nets.loss_gradient.us_per_call": ("us", False, (LOSS_GRAD,)),
    "nets.sgd_step.calls": ("count", True, ("nets.sgd_step",)),
    "nets.sgd_step.us_per_call": ("us", False, ("nets.sgd_step",)),
    "nets.evaluate.calls": ("count", True, (EVAL,)),
    "nets.evaluate.us_per_call": ("us", False, (EVAL,)),
    "nets.softmax.calls": ("count", True, ("nets.softmax",)),
    "server.run_round.self_s": ("s", False, (ROUND_SPAN,)),
    "server.sample_clients.s": ("s", False, ("server.sample_clients",)),
    "server.client_phase.wall_s": ("s", False, (ROUND_SPAN,) + CLIENT),
    "server.client_phase.wait_s": ("s", False, (ROUND_SPAN,) + CLIENT),
    "server.distill.s": ("s", False, ("server.distill",)),
    "server.distill.self_s": ("s", False, ("server.distill",)),
    "server.distill.batches": ("count", True, ("server.batch_iterator",)),
    "server.distill.member_forwards_per_batch": (
        "1/batch", True, ("server.distill", FORWARD, "server.batch_iterator")),
    "server.teacher_distributions.calls": ("count", True, ("server.teacher_distributions",)),
    "server.teacher_distributions.s": ("s", False, ("server.teacher_distributions",)),
    "server.client_eval.s": ("s", False, (ROUND_SPAN, EVAL)),
    "server.client_eval.calls_per_round": ("1/round", True, (ROUND_SPAN, EVAL)),
    "server.fedavg_aggregate.s": ("s", False, ("server.fedavg_aggregate",)),
    "checkpoint.save.calls": ("count", True, ("checkpoint.save",)),
    "checkpoint.save.s": ("s", False, ("checkpoint.save",)),
    "checkpoint.save.bytes": ("bytes", True, ("checkpoint.save",)),
    "costs.emit_metrics.s": ("s", False, ("costs.emit_metrics",)),
    # traced run_s minus untraced run_s; filled in by run_bench.py
    "trace.overhead_s": ("s", False, ()),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _client_phase(tree, jobs):
    """Summed over rounds: client-phase wall time, and worker-idle time in it."""
    wall = wait = 0.0
    for r in tree.round_ids():
        kids = tree.descendants(r, CLIENT)
        if not kids:
            continue
        starts = [tree.spans[k][2] for k in kids]
        ends = [tree.spans[k][3] for k in kids]
        phase = max(ends) - min(starts)
        wall += phase
        wait += jobs * phase - sum(tree.duration(k) for k in kids)
    return wall, wait


def layer_values(spans, counters, absent, jobs):
    """Per-layer metric values of one traced run; metrics needing an absent span are omitted."""
    tree = SpanTree(spans)
    rounds = len(tree.round_ids())
    client_batches = counters["client.batches"]
    distill_batches = counters["server.distill.batches"]

    def under_client(name, stop=()):
        return sum(1 for s in tree.by_name[name] if tree.nearest(s, CLIENT + stop) in CLIENT)

    client_forwards = under_client(FORWARD, stop=(EVAL, LOSS_GRAD)) + under_client(LOSS_GRAD)
    client_evals = [s for s in tree.by_name[EVAL] if tree.parent_name(s) == ROUND_SPAN]
    phase_wall, phase_wait = _client_phase(tree, jobs)

    v = {
        "runner.build_datasets.s": tree.total("runner.build_datasets"),
        "runner.build_partition.s": tree.total("runner.build_partition"),
        "runner.build_states.s": tree.total("runner.build_states"),
        "runner.test_eval.s": tree.total(EVAL, parent="runner.run_experiment"),
        "data.synth_blobs.s": tree.total("data.synth_blobs"),
        "data.dirichlet_partition.s": tree.total("data.dirichlet_partition"),
        "config.parse_config.s": tree.total("config.parse_config"),
        "client.batches": client_batches,
        "client.forwards_per_batch": _ratio(client_forwards, client_batches),
        "client.sgd_steps_per_batch": _ratio(under_client("nets.sgd_step"), client_batches),
        "nets.softmax.calls": tree.calls("nets.softmax"),
        "server.run_round.self_s": tree.self_total(ROUND_SPAN),
        "server.sample_clients.s": tree.total("server.sample_clients"),
        "server.client_phase.wall_s": phase_wall,
        "server.client_phase.wait_s": phase_wait,
        "server.distill.s": tree.total("server.distill"),
        "server.distill.self_s": tree.self_total("server.distill"),
        "server.distill.batches": distill_batches,
        "server.distill.member_forwards_per_batch": _ratio(
            counters["server.distill.member_forwards"], distill_batches),
        "server.teacher_distributions.calls": tree.calls("server.teacher_distributions"),
        "server.teacher_distributions.s": tree.total("server.teacher_distributions"),
        "server.client_eval.s": sum(tree.duration(s) for s in client_evals),
        "server.client_eval.calls_per_round": _ratio(len(client_evals), rounds),
        "server.fedavg_aggregate.s": tree.total("server.fedavg_aggregate"),
        "checkpoint.save.calls": tree.calls("checkpoint.save"),
        "checkpoint.save.s": tree.total("checkpoint.save"),
        "checkpoint.save.bytes": counters["checkpoint.save.bytes"],
        "costs.emit_metrics.s": tree.total("costs.emit_metrics"),
    }
    for name in ("client.client_update", "client.local_train"):
        v[f"{name}.calls"] = tree.calls(name)
        v[f"{name}.s"] = tree.total(name)
        v[f"{name}.self_s"] = tree.self_total(name)
    for name in (FORWARD, LOSS_GRAD, "nets.sgd_step", EVAL):
        v[f"{name}.calls"] = tree.calls(name)
        v[f"{name}.us_per_call"] = 1e6 * _ratio(tree.total(name), tree.calls(name))

    missing = set(absent)
    return {k: val for k, val in v.items() if not missing.intersection(METRICS[k][2])}
