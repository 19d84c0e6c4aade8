"""Strict flat key=value experiment configuration."""

import math
import os
from dataclasses import dataclass

from .costs import DIRECTIONS, MB
from .errors import ConfigError
from .server import INIT_MODES, MODES, STRATEGIES


def _parse_hidden_dims(text):
    """'64,32' -> (64, 32); '-' or '' -> no hidden layers."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        dims = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"bad architecture spec {text!r}") from None
    if any(d < 1 for d in dims):
        raise ConfigError(f"hidden dims must be positive in {text!r}")
    return dims


@dataclass
class ExperimentConfig:
    mode: str
    num_clients: int
    sample_ratio: float
    rounds: int
    alpha: float
    batch_size: int
    lr: float
    knowledge_arch: tuple        # hidden dims of the shared knowledge network
    client_archs: list           # list of hidden-dim tuples, assigned round-robin
    experiment_seed: int
    out_dir: str
    dataset_kind: str            # "synth" or "idx"
    local_epochs: int = 5
    distill_epochs: int = 3
    distill_lr: float = 0.05
    strategy: str = "max_logits"
    server_init: str = "avg_members"
    min_per_client: int = 10
    server_fraction: float = 0.1
    val_fraction: float = 0.1
    target_accuracy: float = None
    payload_mb: float = None     # override for cost accounting; None = measured
    directions: str = "upload_only"
    # synth dataset parameters
    synth_classes: int = 4
    synth_per_class: int = 500
    synth_dim: int = 16
    synth_spread: float = 1.0
    synth_test_per_class: int = None  # default: per_class // 4
    # idx dataset paths
    idx_train_images: str = None
    idx_train_labels: str = None
    idx_test_images: str = None
    idx_test_labels: str = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be {' or '.join(MODES)}, got {self.mode!r}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not (0 < self.sample_ratio <= 1):
            raise ConfigError("sample_ratio must be in (0, 1]")
        if not (0 < self.alpha < math.inf):
            raise ConfigError("alpha must be positive and finite")
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if not (0 < self.lr < math.inf and 0 < self.distill_lr < math.inf):
            raise ConfigError("learning rates must be positive and finite")
        if self.local_epochs < 0 or self.distill_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.min_per_client < 1:
            raise ConfigError("min_per_client must be >= 1")
        # 0 is a valid partition-only setting; run_experiment rejects an
        # empty distillation split where one is needed.
        if not (0 <= self.server_fraction < 1):
            raise ConfigError("server_fraction must be in [0, 1)")
        if not (0 <= self.val_fraction < 1):
            raise ConfigError("val_fraction must be in [0, 1)")
        if self.target_accuracy is not None and not (0 <= self.target_accuracy <= 1):
            raise ConfigError("target_accuracy must be in [0, 1]")
        # The cost model counts whole bytes, so a payload must be at least one.
        if self.payload_mb is not None and not (1 / MB <= self.payload_mb < math.inf):
            raise ConfigError("payload_mb must be at least one byte and finite")
        if self.synth_classes < 2:
            raise ConfigError("dataset.classes must be >= 2")
        if self.synth_per_class < 1 or self.synth_dim < 1:
            raise ConfigError("dataset.per_class and dataset.dim must be >= 1")
        if self.synth_test_per_class is not None and self.synth_test_per_class < 1:
            raise ConfigError("dataset.test_per_class must be >= 1")
        if not (0 < self.synth_spread < math.inf):
            raise ConfigError("dataset.spread must be positive and finite")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.server_init not in INIT_MODES:
            raise ConfigError(f"unknown server.init {self.server_init!r}")
        if self.directions not in DIRECTIONS:
            raise ConfigError(f"unknown directions {self.directions!r}")
        if self.dataset_kind not in ("synth", "idx"):
            raise ConfigError(f"dataset.kind must be synth or idx, got {self.dataset_kind!r}")
        if self.dataset_kind == "idx":
            for key, val in (("dataset.train_images", self.idx_train_images),
                             ("dataset.train_labels", self.idx_train_labels),
                             ("dataset.test_images", self.idx_test_images),
                             ("dataset.test_labels", self.idx_test_labels)):
                if not val:
                    raise ConfigError(f"missing required key {key} for dataset.kind=idx")
        if not self.client_archs:
            self.client_archs = [self.knowledge_arch]
        if self.mode == "fedavg" and any(a != self.knowledge_arch for a in self.client_archs):
            raise ConfigError(
                "fedavg mode requires every client arch to equal knowledge_arch"
            )
        if self.synth_test_per_class is None:
            self.synth_test_per_class = max(1, self.synth_per_class // 4)


# key -> (config attribute, parser)
_KEYS = {
    "mode": ("mode", str),
    "num_clients": ("num_clients", int),
    "sample_ratio": ("sample_ratio", float),
    "rounds": ("rounds", int),
    "alpha": ("alpha", float),
    "local_epochs": ("local_epochs", int),
    "batch_size": ("batch_size", int),
    "lr": ("lr", float),
    "knowledge_arch": ("knowledge_arch", _parse_hidden_dims),
    "client_archs": ("client_archs", lambda t: [_parse_hidden_dims(p) for p in t.split("|")]),
    "strategy": ("strategy", str),
    "server.init": ("server_init", str),
    "distill_epochs": ("distill_epochs", int),
    "distill_lr": ("distill_lr", float),
    "experiment_seed": ("experiment_seed", int),
    "out_dir": ("out_dir", str),
    "target_accuracy": ("target_accuracy", float),
    "min_per_client": ("min_per_client", int),
    "server_fraction": ("server_fraction", float),
    "val_fraction": ("val_fraction", float),
    "payload_mb": ("payload_mb", float),
    "directions": ("directions", str),
    "dataset.kind": ("dataset_kind", str),
    "dataset.classes": ("synth_classes", int),
    "dataset.per_class": ("synth_per_class", int),
    "dataset.dim": ("synth_dim", int),
    "dataset.spread": ("synth_spread", float),
    "dataset.test_per_class": ("synth_test_per_class", int),
    "dataset.train_images": ("idx_train_images", str),
    "dataset.train_labels": ("idx_train_labels", str),
    "dataset.test_images": ("idx_test_images", str),
    "dataset.test_labels": ("idx_test_labels", str),
}

_REQUIRED = [
    "mode", "num_clients", "sample_ratio", "rounds", "alpha", "batch_size",
    "lr", "knowledge_arch", "experiment_seed", "out_dir", "dataset.kind",
]


def parse_config_text(text) -> ExperimentConfig:
    values = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser = _KEYS[key]
        try:
            values[attr] = parser(val)
        except ConfigError:
            raise
        except (ValueError, TypeError):
            raise ConfigError(f"line {lineno}: bad value {val!r} for key {key!r}") from None
    missing = [k for k in _REQUIRED if _KEYS[k][0] not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    values.setdefault("client_archs", [])
    env_seed = os.environ.get("FEDKEMF_SEED")
    if env_seed is not None:
        try:
            values["experiment_seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"FEDKEMF_SEED must be an integer, got {env_seed!r}") from None
    return ExperimentConfig(**values)


def parse_config(path) -> ExperimentConfig:
    """Parse an experiment config file; unknown keys are rejected."""
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text)
