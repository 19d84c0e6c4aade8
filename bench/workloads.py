"""The benchmark's workloads: generated fedkemf configs and the facts the gate checks.

Each workload is a closed loop: one process runs fedkemf runs of `rounds`
rounds back to back, each through `fedkemf.cli.main(["run", cfg, "--jobs", N])`.
The shapes are written out here rather than read from `configs/`, so that
editing a shipped config does not silently change the benchmark.
"""

from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict       # config keys, without rounds, experiment_seed and out_dir
    rounds: int      # rounds per fedkemf run
    jobs: int        # the CLI's --jobs
    sampled: int     # clients sampled per round: sample_ratio x num_clients

    def config_text(self, seed, out_dir):
        keys = dict(self.keys, rounds=self.rounds, experiment_seed=seed, out_dir=out_dir)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    @property
    def knowledge_hidden(self):
        return tuple(int(h) for h in str(self.keys["knowledge_arch"]).split(","))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="kemf-many",
        why="fedkemf at the shipped net shapes with 200 clients, 10 sampled: mutual-learning "
            "clients, 10-member distillation and 200 val evals a round; the largest set-up",
        keys={
            "mode": "fedkemf", "num_clients": 200, "sample_ratio": 0.05, "alpha": 0.3,
            "local_epochs": 5, "batch_size": 32, "lr": 0.1,
            "knowledge_arch": "16", "client_archs": "32 | 64 | 64,32",
            "strategy": "max_logits", "server.init": "avg_members",
            "distill_epochs": 3, "distill_lr": 0.05, "target_accuracy": 0.85,
            "dataset.kind": "synth", "dataset.classes": 10, "dataset.per_class": 1500,
            "dataset.dim": 16, "dataset.spread": 1.0,
        },
        rounds=25, jobs=1, sampled=10,
    ),
    Workload(
        name="avg-small",
        why="shipped blobs_fedavg shapes, serial: the only plain-CE local_train and "
            "fedavg_aggregate path; shortest rounds",
        keys={
            "mode": "fedavg", "num_clients": 8, "sample_ratio": 0.5, "alpha": 0.1,
            "local_epochs": 5, "batch_size": 32, "lr": 0.1,
            "knowledge_arch": "16", "client_archs": "16", "target_accuracy": 0.85,
            "dataset.kind": "synth", "dataset.classes": 4, "dataset.per_class": 500,
            "dataset.dim": 16, "dataset.spread": 1.0,
        },
        rounds=100, jobs=1, sampled=4,
    ),
)}
