"""Strict flat key=value experiment configuration."""

import math
import os
from dataclasses import MISSING, dataclass, fields

from .costs import MB
from .errors import ConfigError

# Each setting's allowed values; the checks below are the only ones made on them.
MODES = ("fedkemf", "fedavg")
STRATEGIES = ("max_logits", "avg_logits", "majority_vote")  # server.ensemble_logits
INIT_MODES = ("avg_members", "warm_start")  # server.distill's student start
DIRECTIONS = ("upload_only", "up_and_down")  # costs.WireAudit.directions
DATASET_KINDS = ("synth", "idx")  # runner.build_datasets


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
    experiment_seed: int
    out_dir: str
    dataset_kind: str            # a DATASET_KINDS entry
    client_archs: list = None    # hidden-dim tuples, assigned round-robin; default [knowledge_arch]
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
        if self.dataset_kind not in DATASET_KINDS:
            raise ConfigError(f"dataset.kind must be {' or '.join(DATASET_KINDS)}, "
                              f"got {self.dataset_kind!r}")
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


# The fields of ExperimentConfig are the schema: a field is required when it has no
# default, its type parses its value, and its name is its key, except for these.
_DOTTED = {"server_init": "server.init", "dataset_kind": "dataset.kind",
           **{f"synth_{k}": f"dataset.{k}"
              for k in ("classes", "per_class", "dim", "spread", "test_per_class")},
           **{f"idx_{k}": f"dataset.{k}"
              for k in ("train_images", "train_labels", "test_images", "test_labels")}}
_FIELDS = {_DOTTED.get(f.name, f.name): f for f in fields(ExperimentConfig)}
_PARSERS = {tuple: _parse_hidden_dims,
            list: lambda t: [_parse_hidden_dims(p) for p in t.split("|")]}


def parse_config_text(text) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        field = _FIELDS.get(key)
        if field is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if field.name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field.name] = _PARSERS.get(field.type, field.type)(val)
        except (ValueError, TypeError):
            raise ConfigError(f"line {lineno}: bad value {val!r} for key {key!r}") from None
    missing = [k for k, f in _FIELDS.items() if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    env_seed = os.environ.get("FEDKEMF_SEED")
    if env_seed is not None:
        try:
            values["experiment_seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"FEDKEMF_SEED must be an integer, got {env_seed!r}") from None
    return ExperimentConfig(**values)


def parse_config(path) -> ExperimentConfig:
    """Parse an experiment config file, UTF-8 text; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file is not UTF-8 text: {path} (byte {e.start})") from None
    return parse_config_text(text)
