import re

import pytest

from fedkemf.config import parse_config, parse_config_text
from fedkemf.errors import ConfigError
from fedkemf.server import sample_clients

GOOD = """
# desk-scale experiment
mode = fedkemf
num_clients = 30
sample_ratio = 0.4
rounds = 10
alpha = 0.1
batch_size = 32
lr = 0.1
knowledge_arch = 16
client_archs = 32 | 64 | 64,32
experiment_seed = 7
out_dir = /tmp/fedkemf-test
dataset.kind = synth
dataset.classes = 4
dataset.per_class = 100
dataset.dim = 16
dataset.spread = 1.0
"""


def test_parse_good_config():
    cfg = parse_config_text(GOOD)
    assert cfg.mode == "fedkemf"
    assert cfg.knowledge_arch == (16,)
    assert cfg.client_archs == [(32,), (64,), (64, 32)]
    assert cfg.local_epochs == 5       # default
    assert cfg.distill_epochs == 3     # default
    assert cfg.distill_lr == 0.05      # default
    assert cfg.strategy == "max_logits"
    assert cfg.synth_test_per_class == 25


def test_sampling_implied_by_ratio():
    cfg = parse_config_text(GOOD)
    sampled = sample_clients(cfg.num_clients, cfg.sample_ratio, 1, cfg.experiment_seed)
    assert len(sampled) == 12


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="foo"):
        parse_config_text(GOOD + "foo = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(GOOD + "mode = fedavg\n")


def test_missing_required_key():
    broken = GOOD.replace("experiment_seed = 7\n", "")
    with pytest.raises(ConfigError, match="experiment_seed"):
        parse_config_text(broken)


def test_required_keys_are_the_fields_without_defaults():
    with pytest.raises(ConfigError) as err:
        parse_config_text("")
    assert str(err.value) == (
        "missing required keys: mode, num_clients, sample_ratio, rounds, alpha, batch_size, "
        "lr, knowledge_arch, experiment_seed, out_dir, dataset.kind")


@pytest.mark.parametrize("name", ["synth_classes", "server_init", "dataset_kind",
                                  "idx_train_images"])
def test_field_name_of_a_dotted_key_is_unknown(name):
    with pytest.raises(ConfigError, match=f"unknown key '{name}'"):
        parse_config_text(GOOD + f"{name} = 4\n")


def test_bad_value_type():
    with pytest.raises(ConfigError, match="rounds"):
        parse_config_text(GOOD.replace("rounds = 10", "rounds = ten"))


@pytest.mark.parametrize("spec, message", [
    ("16,x", "bad architecture spec '16,x'"),
    ("16,0", "hidden dims must be positive in '16,0'"),
])
def test_bad_architecture_keeps_its_own_message(spec, message):
    # the architecture parser's ConfigError passes through, not the generic "bad value" line
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace("knowledge_arch = 16", f"knowledge_arch = {spec}"))
    assert str(err.value) == message


def test_fedavg_requires_homogeneous_archs():
    broken = GOOD.replace("mode = fedkemf", "mode = fedavg")
    with pytest.raises(ConfigError, match="fedavg"):
        parse_config_text(broken)


def test_fedavg_with_matching_archs_ok():
    text = GOOD.replace("mode = fedkemf", "mode = fedavg") \
               .replace("client_archs = 32 | 64 | 64,32", "client_archs = 16")
    assert parse_config_text(text).mode == "fedavg"


def test_constraint_violations():
    with pytest.raises(ConfigError):
        parse_config_text(GOOD.replace("sample_ratio = 0.4", "sample_ratio = 1.5"))
    with pytest.raises(ConfigError):
        parse_config_text(GOOD.replace("rounds = 10", "rounds = 0"))
    with pytest.raises(ConfigError):
        parse_config_text(GOOD.replace("alpha = 0.1", "alpha = -1"))


def test_idx_dataset_requires_paths():
    text = GOOD.replace("dataset.kind = synth", "dataset.kind = idx")
    with pytest.raises(ConfigError, match="dataset.train_images"):
        parse_config_text(text)


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("FEDKEMF_SEED", "123")
    assert parse_config_text(GOOD).experiment_seed == 123
    monkeypatch.setenv("FEDKEMF_SEED", "not-a-number")
    with pytest.raises(ConfigError, match="FEDKEMF_SEED"):
        parse_config_text(GOOD)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD)
    assert parse_config(path).num_clients == 30


@pytest.mark.parametrize("key", ["mode", "strategy", "server.init", "directions", "dataset.kind"])
def test_unknown_enum_value_names_its_key(key):
    # The config is the one place these rules are checked; the server and runner trust it.
    text = "".join(f"{line}\n" for line in GOOD.splitlines() if not line.startswith(f"{key} ="))
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        parse_config_text(f"{text}{key} = bogus\n")
    assert "'bogus'" in str(err.value)
