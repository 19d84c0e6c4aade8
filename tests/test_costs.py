import csv
import json

import pytest

from fedkemf.checkpoint import checkpoint_nbytes
from fedkemf.costs import (
    GB, MB, RoundRecord, WireAudit, communication_cost,
    emit_metrics, format_gb, speedup, write_metrics_row,
)
from fedkemf.nets import ArchSpec

# Published cost-table rows: (rounds, payload MB, sampled clients, total GB).
BASELINE_ROWS = [
    (163, 2.1, 12, 4.01),
    (183, 3.2, 12, 6.86),
    (166, 42.0, 12, 81.70),
    (400, 2.1, 35, 28.71),
    (400, 3.2, 35, 43.75),
    (109, 2.1, 50, 11.18),
    (109, 3.2, 50, 17.03),
]
KNOWLEDGE_NET_ROWS = [
    (76, 2.1, 12, 1.87),
    (87, 2.1, 12, 2.14),
    (65, 2.1, 12, 1.60),
    (188, 2.1, 35, 13.49),
    (40, 2.1, 35, 2.87),
    (53, 2.1, 50, 5.43),
    (45, 2.1, 50, 4.61),
]


class TestCommunicationCost:
    def test_flagship_row(self):
        total = communication_cost(163, 2.1 * MB, 12)
        assert total / MB == pytest.approx(4107.6)
        assert total / GB == pytest.approx(4.01, rel=0.01)

    def test_zero_rounds(self):
        assert communication_cost(0, 2.1 * MB, 12) == 0

    @pytest.mark.parametrize("rounds,payload_mb,clients,expected_gb",
                             BASELINE_ROWS + KNOWLEDGE_NET_ROWS)
    def test_published_rows_within_one_percent(self, rounds, payload_mb, clients, expected_gb):
        total = communication_cost(rounds, payload_mb * MB, clients)
        assert total / GB == pytest.approx(expected_gb, rel=0.01)


class TestSpeedup:
    def test_large_model_vs_knowledge_net(self):
        assert speedup(81.70, 1.60) == pytest.approx(51.1, rel=0.01)

    def test_identity(self):
        assert speedup(3.5, 3.5) == 1.0

    def test_moderate_row(self):
        assert speedup(4.01, 1.87) == pytest.approx(2.14, rel=0.01)

    def test_rejects_zero_method(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


SMALL, LARGE = ArchSpec(4, (8,), 3), ArchSpec(4, (64, 32), 3)


class TestWireAudit:
    def test_measured_charge_is_each_crossing_networks_checkpoint_size(self):
        audit = WireAudit(None, "upload_only")
        audit.record(1, 0, SMALL, SMALL)
        audit.record(1, 3, SMALL, LARGE)
        assert audit.crossing_archs() == [SMALL, LARGE, SMALL, SMALL]
        assert audit.uploaded_bytes() == checkpoint_nbytes(SMALL) + checkpoint_nbytes(LARGE)
        assert audit.total_bytes() == audit.uploaded_bytes()

    def test_payload_override_charges_every_crossing_the_same(self):
        audit = WireAudit(100, "upload_only")
        for cid in range(12):
            audit.record(1, cid, SMALL, LARGE)
        assert audit.uploaded_bytes() == audit.total_bytes() == 1200

    def test_up_and_down_doubles(self):
        audit = WireAudit(100, "up_and_down")
        for cid in range(12):
            audit.record(1, cid, SMALL, SMALL)
        assert audit.uploaded_bytes() == 1200
        assert audit.total_bytes() == 2400


    @pytest.mark.parametrize("payload, directions", [
        (None, "upload_only"), (None, "up_and_down"), (100, "upload_only"), (100, "up_and_down")])
    def test_running_totals_equal_the_ledger_sums(self, payload, directions):
        audit = WireAudit(payload, directions)
        for r in range(1, 6):
            for cid, (down, up) in enumerate([(SMALL, SMALL), (SMALL, LARGE), (LARGE, SMALL)]):
                audit.record(r, cid, down, up)
                uploaded = sum(n for *_, n in audit.uploads)
                downloaded = sum(n for *_, n in audit.downloads)
                assert audit.uploaded_bytes() == uploaded
                assert audit.total_bytes() == uploaded + (
                    downloaded if directions == "up_and_down" else 0)


def make_records(accs, bytes_per_round=1000):
    return [
        RoundRecord(round=i + 1, sampled_clients=4, global_test_accuracy=a,
                    mean_client_val_accuracy=a, mean_train_loss=1.0 - a,
                    distill_loss=0.1, cumulative_bytes=(i + 1) * bytes_per_round,
                    wall_seconds=0.5)
        for i, a in enumerate(accs)
    ]


class TestEmitMetrics:
    """write_metrics_row writes metrics.csv a row at a time; emit_metrics writes only
    metrics.json."""

    def test_rows_and_summary(self, tmp_path):
        path = tmp_path / "metrics.csv"
        records = make_records([0.5, 0.66, 0.7])
        for record in records:  # a row per round, as the runner writes them
            write_metrics_row(path, record)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["round", "sampled_clients", "global_test_acc",
                           "mean_client_val_acc", "mean_train_loss", "distill_loss",
                           "cumulative_bytes", "wall_seconds"]
        assert rows[1] == ["1", "4", "0.500000", "0.500000", "0.500000", "0.100000", "1000",
                           "0.500"]
        assert len(rows) == 4
        summary = emit_metrics(records, tmp_path / "metrics.json", 0.65, 0.125)
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["metrics.csv", "metrics.json"]
        assert summary == {"final_acc": 0.7, "best_acc": 0.7, "rounds_to_target": 2,
                           "total_bytes": 3000, "initial_acc": 0.125}
        assert json.loads((tmp_path / "metrics.json").read_text()) == summary
        untargeted = emit_metrics(records, tmp_path / "metrics.json", None, 0.25)
        assert untargeted["rounds_to_target"] is None and untargeted["initial_acc"] == 0.25
        missed = emit_metrics(records, tmp_path / "metrics.json", 0.9, 0.25)
        assert missed["rounds_to_target"] is None

    def test_round_one_starts_the_file(self, tmp_path):
        # a run's round 1 row replaces whatever an earlier run left; later rounds append
        path = tmp_path / "metrics.csv"
        first, second = make_records([0.5, 0.75])
        for record in (first, second, first):
            write_metrics_row(path, record)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows] == ["round", "1"]
        write_metrics_row(path, second)
        assert path.read_text().count("\n") == 3

    def test_cumulative_bytes_linear_under_constant_sampling(self, tmp_path):
        records = make_records([0.1, 0.2, 0.3], bytes_per_round=250)
        assert [r.cumulative_bytes for r in records] == [250, 500, 750]

    def test_byte_stable_given_identical_records(self, tmp_path):
        records = make_records([0.25, 0.5])
        for name in ("a", "b"):  # a row per round, as the runner writes them
            for record in records:
                write_metrics_row(tmp_path / f"{name}.csv", record)
            summary = emit_metrics(records, tmp_path / f"{name}.json", None, 0.125)
            assert summary["rounds_to_target"] is None and summary["initial_acc"] == 0.125
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_format_gb():
    assert format_gb(4.01 * GB) == "4.01 GB"
