import json
import os
import warnings

import numpy as np
import pytest

from fedkemf import checkpoint, nets
from fedkemf.cli import main


def write_config(tmp_path, **overrides):
    values = {
        "mode": "fedkemf",
        "num_clients": 4,
        "sample_ratio": 1.0,
        "rounds": 2,
        "alpha": 1.0,
        "local_epochs": 1,
        "batch_size": 16,
        "lr": 0.1,
        "knowledge_arch": "8",
        "experiment_seed": 3,
        "out_dir": str(tmp_path / "out"),
        "dataset.kind": "synth",
        "dataset.classes": "3",
        "dataset.per_class": "60",
        "dataset.dim": "4",
        "dataset.spread": "1.0",
        "min_per_client": 5,
    }
    values.update(overrides)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestCost:
    def test_flagship_total(self, capsys):
        assert main(["cost", "--rounds", "163", "--payload-mb", "2.1", "--clients", "12"]) == 0
        assert "total: 4.01 GB" in capsys.readouterr().out

    def test_speedup(self, capsys):
        rc = main(["cost", "--rounds", "65", "--payload-mb", "2.1", "--clients", "12",
                   "--baseline-gb", "81.70"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total: 1.60 GB" in out
        assert "speedup: 51.0" in out

    def test_usage_error_nonzero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["cost", "--rounds", "10"])
        assert e.value.code != 0


class TestRun:
    def test_full_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "partition.json").exists()
        assert (out_dir / "round_1.fkmf").exists()
        assert (out_dir / "round_2.fkmf").exists()
        assert "final_acc:" in capsys.readouterr().out

    def test_degenerate_single_client(self, tmp_path):
        cfg = write_config(tmp_path, num_clients=1, rounds=1, local_epochs=0,
                           distill_epochs=0)
        assert main(["run", str(cfg)]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode="bogus")
        assert main(["run", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00" * 32)
        cfg = write_config(
            tmp_path, **{
                "dataset.kind": "idx",
                "dataset.train_images": bad, "dataset.train_labels": bad,
                "dataset.test_images": bad, "dataset.test_labels": bad,
            }
        )
        assert main(["run", str(cfg)]) == 3

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lr="1e12", local_epochs=20)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "client_id=" in err and "round_index=" in err

    def test_fedavg_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode="fedavg", lr="1e12", local_epochs=20)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and "client_id=" in err

    def test_divergence_on_final_step_is_typed_and_quiet(self, tmp_path, capsys):
        # One distillation step leaves finite but huge parameters; nothing in
        # the loops runs after it, so the overflow first shows in evaluation.
        cfg = write_config(tmp_path, num_clients=12, alpha=0.05, min_per_client=1,
                           distill_lr="1e300", distill_epochs=1, experiment_seed=1,
                           **{"dataset.per_class": "20"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg)]) == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and err.count("\n") == 1
        assert "round_index=" in err

    @pytest.mark.parametrize("key, value", [
        ("batch_size", "-4"),
        ("batch_size", "0"),
        ("server_fraction", "0"),
        ("val_fraction", "1"),
        ("dataset.spread", "0"),
        ("min_per_client", "0"),
        ("alpha", "nan"),
        ("lr", "inf"),
        ("target_accuracy", "2"),
        ("payload_mb", "0"),
        ("dataset.classes", "1"),
        ("dataset.test_per_class", "0"),
    ])
    def test_bad_numeric_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["run", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no" / "such.idx"
        cfg = write_config(
            tmp_path, **{
                "dataset.kind": "idx",
                "dataset.train_images": missing, "dataset.train_labels": missing,
                "dataset.test_images": missing, "dataset.test_labels": missing,
            }
        )
        assert main(["run", str(cfg)]) == 5


class TestPartition:
    def test_histograms_cover_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, server_fraction=0.0)
        assert main(["partition", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        total = sum(sum(h) for h in report["histograms"])
        assert total == 3 * 60
        flat = sorted(i for shard in report["clients"] for i in shard)
        assert flat == list(range(180))


class TestEval:
    def test_fresh_checkpoint_near_chance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"dataset.classes": "10", "dataset.per_class": "100",
                                        "min_per_client": 1})
        arch = nets.ArchSpec(4, (8,), 10)
        accs = []
        for seed in range(5):
            ck = tmp_path / f"fresh{seed}.fkmf"
            checkpoint.save(nets.init_network(arch, seed), ck)
            assert main(["eval", str(ck), str(cfg)]) == 0
            out = capsys.readouterr().out
            accs.append(float(out.split("test_accuracy:")[1].split()[0]))
        assert abs(sum(accs) / len(accs) - 0.10) <= 0.05

    def test_trained_checkpoint_reports_accuracy(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "out" / "round_2.fkmf"), str(cfg)]) == 0
        assert "test_accuracy:" in capsys.readouterr().out
