"""Dataset loading/synthesis and label-skewed Dirichlet partitioning."""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError, CountMismatchError, DataError, InfeasiblePartitionError, TruncatedFileError,
)
from .seeding import SALT_PARTITION, stream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray  # M x D float64
    labels: np.ndarray    # M int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass
class PartitionMap:
    client_indices: list  # per-client 1-d int64 index arrays into one Dataset
    alpha: float
    seed: int

    def to_json(self) -> str:
        clients = [shard.tolist() for shard in self.client_indices]
        return json.dumps({"alpha": self.alpha, "seed": self.seed, "clients": clients})


def _read_exact(f, n, path):
    """The next n bytes of f; a header that claims more than the file holds raises
    TruncatedFileError before anything is read or allocated."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise TruncatedFileError(f"{path}: expected {n} bytes, got {left}")
    return f.read(n)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair; pixels scaled to [0, 1], images flattened."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagicError(f"{images_path}: bad images magic 0x{magic:08x}")
        pixels = np.frombuffer(_read_exact(f, count * rows * cols, images_path), dtype=np.uint8)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagicError(f"{labels_path}: bad labels magic 0x{magic:08x}")
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    if count != label_count:
        raise CountMismatchError(
            f"images file has {count} items but labels file has {label_count}"
        )
    if count == 0:
        raise DataError(f"{images_path} and {labels_path} hold no items")
    if rows * cols == 0:
        raise DataError(f"{images_path}: images of {rows}x{cols} pixels hold no features")
    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0
    return Dataset(features, labels.astype(np.int64), int(labels.max()) + 1)


def save_idx(dataset: Dataset, images_path, labels_path):
    """Write a Dataset back to IDX files (features quantized to bytes, D x 1 images)."""
    m, d = dataset.features.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, m, d, 1))
        f.write(np.round(dataset.features * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, m))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def _blob_centers(num_classes, dim, spread):
    """Deterministic axis-aligned cluster centers with pairwise distance >= 4*spread."""
    centers = np.zeros((num_classes, dim))
    for k in range(num_classes):
        axis = k % dim
        sign = -1.0 if (k // dim) % 2 else 1.0
        magnitude = 4.0 * spread * (1 + k // (2 * dim))
        centers[k, axis] = sign * magnitude
    return centers


def synth_blobs(num_classes, per_class, dim, spread, seed) -> Dataset:
    """Seeded Gaussian clusters, one per class, linearly separable by construction."""
    if num_classes < 2 or per_class < 1 or dim < 1 or not 0 < spread < math.inf:
        raise ValueError("invalid blob parameters")
    rng = np.random.default_rng(seed)
    centers = _blob_centers(num_classes, dim, spread)
    # block k is centers[k] + spread * normals, the classes drawn in order, built in place
    features = rng.standard_normal((num_classes, per_class, dim))
    features *= spread
    features += centers[:, None]
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(features.reshape(-1, dim), labels, num_classes)


def dirichlet_partition(dataset: Dataset, num_clients, alpha, seed, min_per_client,
                        indices=None, max_attempts=100) -> PartitionMap:
    """Label-skew partition: per class, split its indices by a Dirichlet(alpha) draw.

    Partitions `indices` (defaults to the whole dataset) disjointly and
    completely across clients; redraws until every client holds at least
    min_per_client samples, draw `attempt` from stream(seed, SALT_PARTITION, 0,
    attempt).  Fewer rows than num_clients * min_per_client are refused before
    the first draw.  Each draw permutes every non-empty class's indices and cuts them
    at the draw's cumulative shares, so a client's shard is its piece of each
    class in class order; its shards are int64 views of one array.  Only an accepted
    draw's shards are built, with one stable sort of its rows by owning client.
    """
    if num_clients < 1:
        raise ValueError("need at least 1 client")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    universe = np.arange(len(dataset)) if indices is None else np.asarray(indices, dtype=np.int64)
    if num_clients * min_per_client > len(universe):  # no draw can succeed
        raise InfeasiblePartitionError(
            f"{num_clients} clients at min_per_client {min_per_client} need "
            f"{num_clients * min_per_client} samples, only {len(universe)} are partitioned"
        )
    labels = dataset.labels[universe]
    class_indices = [universe[labels == k] for k in range(dataset.num_classes)]
    for attempt in range(max_attempts):
        rng = stream(seed, SALT_PARTITION, 0, attempt)
        rows, pieces = [], []
        for class_idx in class_indices:
            if class_idx.size == 0:
                continue
            rows.append(rng.permutation(class_idx))
            p = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(p)[:-1] * class_idx.size).astype(np.int64)
            pieces.append(np.diff(cuts, prepend=0, append=class_idx.size))
        sizes = np.array(pieces, dtype=np.int64).reshape(-1, num_clients)  # class x client
        counts = sizes.sum(axis=0)
        # Reject a draw on its per-client counts before building any index list.
        if counts.min() < min_per_client:
            continue
        # The draw's rows stably sorted by owning client: client j's shard is its
        # piece of each class in class order.  universe[:0] types a draw with no rows.
        owner = np.repeat(np.tile(np.arange(num_clients), sizes.shape[0]), sizes.ravel())
        by_client = np.concatenate([universe[:0], *rows])[np.argsort(owner, kind="stable")]
        return PartitionMap(np.split(by_client, np.cumsum(counts)[:-1]), float(alpha), int(seed))
    raise InfeasiblePartitionError(
        f"could not give every client {min_per_client} samples in {max_attempts} draws"
    )


def label_histogram(dataset: Dataset, indices) -> np.ndarray:
    return np.bincount(dataset.labels[np.asarray(indices, dtype=np.int64)],
                       minlength=dataset.num_classes)


def label_entropy(histogram) -> float:
    """Shannon entropy (nats) of a client's label distribution."""
    h = np.asarray(histogram, dtype=np.float64)
    total = h.sum()
    if total == 0:
        return 0.0
    p = h / total
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))
