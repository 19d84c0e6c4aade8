"""Communication-cost accounting and metrics emission."""

import csv
import json
import math
from dataclasses import dataclass

from .checkpoint import checkpoint_nbytes

MB = 1024 ** 2
GB = 1024 ** 3


@dataclass
class RoundRecord:
    round: int
    sampled_clients: int
    global_test_accuracy: float
    mean_client_val_accuracy: float
    mean_train_loss: float
    distill_loss: float
    cumulative_bytes: int
    wall_seconds: float


class WireAudit:
    """The byte ledger: every crossing of the client/server boundary, each charged
    `payload_bytes`, or the serialized size of the network that crosses when that is None."""

    def __init__(self, payload_bytes=None, directions="upload_only"):
        self.payload_bytes = payload_bytes
        self.directions = directions
        self.uploads = []    # (round, client_id, arch, nbytes)
        self.downloads = []  # (round, client_id, arch, nbytes)
        self._uploaded = self._downloaded = 0  # running sums of the ledgers' nbytes

    def _charge(self, arch):
        return checkpoint_nbytes(arch) if self.payload_bytes is None else self.payload_bytes

    def record(self, round_index, client_id, down_arch, up_arch):
        """One client's round: the broadcast network down, its trained copy up."""
        down, up = self._charge(down_arch), self._charge(up_arch)
        self.downloads.append((round_index, client_id, down_arch, down))
        self.uploads.append((round_index, client_id, up_arch, up))
        self._downloaded += down
        self._uploaded += up

    def crossing_archs(self):
        return [a for _, _, a, _ in self.uploads + self.downloads]

    def uploaded_bytes(self):
        return self._uploaded

    def total_bytes(self):
        """Bytes charged so far: the uploads, plus the downloads under up_and_down."""
        return self._uploaded + (self._downloaded if self.directions == "up_and_down" else 0)


def communication_cost(rounds: int, payload_bytes: float, sampled_clients: int) -> float:
    """Total bytes: rounds x per-client-per-round payload x sampled clients."""
    if not (rounds >= 0 and sampled_clients >= 0 and 0 <= payload_bytes < math.inf):
        raise ValueError("cost inputs must be finite and non-negative")
    total = rounds * payload_bytes * sampled_clients
    if not math.isfinite(total):
        raise ValueError("total cost overflows")
    return total


def speedup(baseline_bytes: float, method_bytes: float) -> float:
    """baseline / method cost; both must be finite and positive."""
    if not (0 < baseline_bytes < math.inf and 0 < method_bytes < math.inf):
        raise ValueError(f"speedup needs finite positive costs, got baseline {baseline_bytes} "
                         f"and method {method_bytes}")
    return baseline_bytes / method_bytes


def format_gb(nbytes: float) -> str:
    return f"{nbytes / GB:.2f} GB"


CSV_HEADER = [
    "round", "sampled_clients", "global_test_acc", "mean_client_val_acc",
    "mean_train_loss", "distill_loss", "cumulative_bytes", "wall_seconds",
]


def write_metrics_row(csv_path, record, first):
    """Write one round's CSV row, flushed and closed when this returns; the `first` write
    starts the file with the header, a later one appends."""
    with open(csv_path, "w" if first else "a", newline="") as f:
        writer = csv.writer(f)
        if first:
            writer.writerow(CSV_HEADER)
        writer.writerow([
            record.round, record.sampled_clients,
            f"{record.global_test_accuracy:.6f}", f"{record.mean_client_val_accuracy:.6f}",
            f"{record.mean_train_loss:.6f}", f"{record.distill_loss:.6f}",
            record.cumulative_bytes, f"{record.wall_seconds:.3f}",
        ])


def emit_metrics(records, json_path, target_accuracy, initial_accuracy):
    """Write the JSON summary of a run's records (at least one) to `json_path`; returns it."""
    rounds_to_target = None
    if target_accuracy is not None:
        for r in records:
            if r.global_test_accuracy >= target_accuracy:
                rounds_to_target = r.round
                break
    summary = {
        "final_acc": records[-1].global_test_accuracy,
        "best_acc": max(r.global_test_accuracy for r in records),
        "rounds_to_target": rounds_to_target,
        "total_bytes": records[-1].cumulative_bytes,
        "initial_acc": initial_accuracy,
    }
    with open(json_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return summary
