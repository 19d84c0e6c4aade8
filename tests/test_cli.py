import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedkemf import checkpoint, nets
from fedkemf.cli import main
from fedkemf.data import Dataset, save_idx, synth_blobs

ROOT = Path(__file__).resolve().parent.parent
RUN = ("import sys; sys.path.insert(0, sys.argv[1]); from fedkemf.cli import main; "
       "sys.exit(main(['run', sys.argv[2]]))")


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


def idx_keys(tmp_path, splits):
    """The dataset keys of an IDX config whose file pairs hold `splits`, {split: Dataset}, each
    written with save_idx (which stores round(features * 255) as bytes)."""
    keys = {"dataset.kind": "idx"}
    for split, data in splits.items():
        keys[f"dataset.{split}_images"] = tmp_path / f"{split}-images.idx"
        keys[f"dataset.{split}_labels"] = tmp_path / f"{split}-labels.idx"
        save_idx(data, keys[f"dataset.{split}_images"], keys[f"dataset.{split}_labels"])
    return keys


def blob_splits():
    """Train and test blobs of 3 classes and 4 features, scaled into [0, 1], since save_idx
    stores bytes."""
    return {split: Dataset(np.clip(blobs.features / 8 + 0.5, 0, 1), blobs.labels, 3)
            for split, blobs in (("train", synth_blobs(3, 60, 4, 1.0, seed=1)),
                                 ("test", synth_blobs(3, 60, 4, 1.0, seed=2)))}


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

    @pytest.mark.parametrize("argv, message", [
        (["--rounds", "-1", "--payload-mb", "1", "--clients", "1"],
         "cost inputs must be finite and non-negative"),
        (["--rounds", "0", "--payload-mb", "1", "--clients", "1", "--baseline-gb", "1"],
         "speedup needs finite positive costs, got baseline 1.0 and method 0.0"),
        (["--rounds", "1", "--payload-mb", "nan", "--clients", "1"],
         "cost inputs must be finite and non-negative"),
        (["--rounds", "1", "--payload-mb", "1", "--clients", "1", "--baseline-gb", "-2"],
         "speedup needs finite positive costs, got baseline -2.0 and method 0.0009765625"),
        (["--rounds", "1000000", "--payload-mb", "1e300", "--clients", "1000000"],
         "total cost overflows"),
    ], ids=["negative_rounds", "zero_total_speedup", "nan_payload", "negative_baseline",
            "overflowing_total"])
    def test_bad_value_is_one_error_line(self, capsys, argv, message):
        assert main(["cost", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    @pytest.mark.parametrize("command", [["run"], ["partition"], ["eval", "any.fkmf"]],
                             ids=["run", "partition", "eval"])
    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        cfg.write_bytes(b"\xff\xfe = 1\n" + cfg.read_bytes())
        assert main(command + [str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert str(cfg) in err

    @pytest.mark.parametrize("command", [["run"], ["partition"], ["eval", "any.fkmf"]],
                             ids=["run", "partition", "eval"])
    def test_line_without_equals_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text() + "  no equals sign  \n")
        lineno = len(cfg.read_text().splitlines())
        assert main(command + [str(cfg)]) == 2
        assert capsys.readouterr() == (
            "", f"error: line {lineno}: expected key=value, got 'no equals sign'\n")

    @pytest.mark.parametrize("command", ["run", "partition"])
    def test_bad_labels_magic_is_data_error(self, tmp_path, capsys, command):
        keys = idx_keys(tmp_path, blob_splits())
        labels = keys["dataset.train_labels"]
        labels.write_bytes(struct.pack(">I", 0x802) + labels.read_bytes()[4:])
        cfg = write_config(tmp_path, **keys)
        assert main([command, str(cfg)]) == 3
        assert capsys.readouterr() == ("", f"error: {labels}: bad labels magic 0x00000802\n")

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

    @pytest.mark.parametrize("train, test", [  # (classes, width) of each IDX file pair
        ((3, 16), (3, 9)), ((1, 16), (3, 16)), ((0, 16), (3, 16)), ((3, 8), (5, 8)),
        ((3, 0), (3, 0))],
        ids=["different_widths", "one_class", "zero_items", "test_classes_train_lacks",
             "zero_width"])
    def test_idx_data_that_cannot_train_is_data_error(self, tmp_path, capsys, train, test):
        splits = {}
        for split, (classes, dim) in (("train", train), ("test", test)):
            blobs = synth_blobs(5, 60, max(dim, 1), 1.0, seed=1)
            keep = blobs.labels < classes
            splits[split] = Dataset(np.clip(blobs.features[keep, :dim] / 8 + 0.5, 0, 1),
                                    blobs.labels[keep], max(classes, 1))
        cfg = write_config(tmp_path, min_per_client=1, **idx_keys(tmp_path, splits))
        ck = tmp_path / "fresh.fkmf"  # any valid checkpoint: the data is rejected first
        checkpoint.save(nets.init_network(nets.ArchSpec(1, (), 3), 0), ck)
        for argv in (["run", str(cfg)], ["partition", str(cfg)], ["eval", str(ck), str(cfg)]):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_idx_header_claiming_more_than_the_file_holds_is_data_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, *[2 ** 32 - 1] * 3) + bytes(8))
        labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
        paths = {f"dataset.{split}_{kind}": path for split in ("train", "test")
                 for kind, path in (("images", images), ("labels", labels))}
        cfg = write_config(tmp_path, **{"dataset.kind": "idx", **paths})
        ck = tmp_path / "fresh.fkmf"  # any valid checkpoint: the data is rejected first
        checkpoint.save(nets.init_network(nets.ArchSpec(1, (), 3), 0), ck)
        for argv in (["run", str(cfg)], ["partition", str(cfg)], ["eval", str(ck), str(cfg)]):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_idx_data_runs_evals_and_partitions(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **idx_keys(tmp_path, blob_splits()))
        assert main(["run", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        final_acc = json.loads((out_dir / "metrics.json").read_text())["final_acc"]
        assert (out_dir / "round_2.fkmf").exists()
        capsys.readouterr()
        assert main(["eval", str(out_dir / "round_2.fkmf"), str(cfg)]) == 0
        assert f"test_accuracy: {final_acc:.4f}\n" in capsys.readouterr().out
        assert main(["partition", str(cfg)]) == 0

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
        cfg = write_config(tmp_path, num_clients=12, alpha=1.0, min_per_client=1,
                           distill_lr="1e300", distill_epochs=1, experiment_seed=1,
                           **{"dataset.per_class": "20"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg)]) == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and err.count("\n") == 1
        assert "round_index=" in err

    @pytest.mark.parametrize("strategy, knowledge_arch, lr", [
        ("max_logits", "16", "1e200"), ("avg_logits", "16", "1e200"),
        ("majority_vote", "16", "1e200"), ("avg_logits", "-", "7e306")],
        ids=["max_logits", "avg_logits", "majority_vote", "avg_logits_sum"])
    def test_teacher_overflow_is_typed_and_quiet(self, tmp_path, capsys, strategy, knowledge_arch,
                                                 lr):
        # One huge full-shard step leaves each knowledge copy with finite parameters
        # whose logits overflow; the distillation teacher is their first forward.  In
        # avg_logits_sum every member's logits are finite, but their sum overflows.
        cfg = write_config(tmp_path, rounds=1, batch_size=1000, lr=lr,
                           knowledge_arch=knowledge_arch, client_archs="-", distill_epochs=1,
                           min_per_client=1, strategy=strategy,
                           **{"dataset.classes": "4", "dataset.per_class": "50",
                              "dataset.dim": "16"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg)]) == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == "error: non-finite teacher logits (round_index=1)\n"

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

    # The child's address space is capped, so each array is refused at once; uncapped, the
    # first would ask for ~24 GiB.
    @pytest.mark.skipif(sys.platform != "linux", reason="caps the child with RLIMIT_AS")
    @pytest.mark.parametrize("key, value", [("knowledge_arch", "200000000"),
                                            ("dataset.dim", "50000000")])
    def test_an_array_that_does_not_fit_is_one_error_line(self, tmp_path, key, value):
        def cap():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)
        text = (ROOT / "configs" / "blobs_fedkemf.cfg").read_text()
        for k, v in ((key, value), ("out_dir", tmp_path / "out")):
            text = re.sub(rf"(?m)^{re.escape(k)} = .*$", f"{k} = {v}", text)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        child = subprocess.run(
            [sys.executable, "-c", RUN, str(ROOT / "src"), str(cfg)],
            preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: out of memory: ")
        assert child.stderr.count("\n") == 1


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

    @pytest.mark.parametrize("blob, message", [
        (b"FKMF", "checkpoint header truncated"),  # too short to hold the version
        (b"FKMF" + struct.pack("<HIII", 1, 0, 0, 3),  # input_dim 0
         "checkpoint header: input_dim must be positive"),
        (b"FKMF" + struct.pack("<HIIII", 1, 4, 1, 0, 3),  # a hidden width of 0
         "checkpoint header: hidden dims must be positive"),
        (b"FKMF" + struct.pack("<HIIII", 2, 4, 1, 8, 3) + bytes(8 * 67),  # a whole 4-8-3 net
         "unsupported checkpoint version 2"),
    ], ids=["four_bytes", "input_dim_0", "hidden_width_0", "version_2"])
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, blob, message):
        cfg = write_config(tmp_path)
        ck = tmp_path / "bad.fkmf"
        ck.write_bytes(blob)
        assert main(["eval", str(ck), str(cfg)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("arch", [nets.ArchSpec(16, (8,), 3), nets.ArchSpec(4, (8,), 10),
                                      nets.ArchSpec(4, (8,), 2)],
                             ids=["input_dim", "more_classes", "fewer_classes"])
    def test_checkpoint_that_does_not_fit_the_data_is_data_error(self, tmp_path, capsys, arch):
        cfg = write_config(tmp_path)  # 4 features, 3 classes
        ck = tmp_path / "other.fkmf"
        checkpoint.save(nets.init_network(arch, 0), ck)
        assert main(["eval", str(ck), str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
