import json
import struct

import numpy as np
import pytest

from fedkemf import nets
from fedkemf.data import (
    Dataset, PartitionMap, dirichlet_partition, label_entropy, label_histogram,
    load_idx, save_idx, synth_blobs,
)
from fedkemf.errors import (
    BadMagicError, CountMismatchError, InfeasiblePartitionError, TruncatedFileError,
)
from fedkemf.seeding import SALT_PARTITION, stream


def write_idx_pair(tmp_path, pixels, labels, rows, cols):
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, len(labels), rows, cols))
        f.write(bytes(pixels))
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(bytes(labels))
    return img_path, lbl_path


class TestIdx:
    def test_load_scales_bytes(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, [0, 255, 128, 64], [0, 1], 2, 1)
        ds = load_idx(img, lbl)
        assert len(ds) == 2
        assert ds.dim == 2
        assert ds.features[0, 1] == 1.0
        assert ds.features[0, 0] == 0.0
        assert ds.features[1, 0] == pytest.approx(128 / 255)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, [0, 0], [0, 1], 1, 1)
        lbl3 = tmp_path / "bad_labels.idx"
        with open(lbl3, "wb") as f:
            f.write(struct.pack(">II", 0x801, 3))
            f.write(bytes([0, 1, 0]))
        with pytest.raises(CountMismatchError):
            load_idx(img, lbl3)

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, [0], [0], 1, 1)
        broken = tmp_path / "broken.idx"
        broken.write_bytes(b"\xff" * 24)
        with pytest.raises(BadMagicError):
            load_idx(broken, lbl)

    @pytest.mark.parametrize("images_header, labels_header", [
        ((0x803, 3, 2, 2), (0x801, 2)),  # 12 pixels claimed, 8 present
        ((0x803, 2, 2, 2), (0x801, 3)),  # 3 labels claimed, 2 present
        ((0x803, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1), (0x801, 2)),  # more than an index holds
    ], ids=["short_images_body", "short_labels_body", "overflowing_header"])
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, images_header,
                                                       labels_header):
        img, lbl = write_idx_pair(tmp_path, [0] * 8, [0, 1], 2, 2)
        img.write_bytes(struct.pack(">IIII", *images_header) + bytes(8))
        lbl.write_bytes(struct.pack(">II", *labels_header) + bytes([0, 1]))
        with pytest.raises(TruncatedFileError):
            load_idx(img, lbl)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(30, 8), dtype=np.uint8)
        ds = Dataset(raw.astype(np.float64) / 255.0, rng.integers(0, 3, 30), 3)
        img = tmp_path / "rt_images.idx"
        lbl = tmp_path / "rt_labels.idx"
        save_idx(ds, img, lbl)
        back = load_idx(img, lbl)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestSynthBlobs:
    def test_construction(self):
        ds = synth_blobs(2, 50, 2, 0.5, seed=1)
        assert len(ds) == 100
        assert np.bincount(ds.labels).tolist() == [50, 50]

    def test_deterministic(self):
        a = synth_blobs(3, 20, 4, 0.7, seed=9)
        b = synth_blobs(3, 20, 4, 0.7, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_many_classes_centers_separated(self):
        # more classes than dimensions still keeps centers 4*spread apart
        from fedkemf.data import _blob_centers

        centers = _blob_centers(10, 3, 0.5)
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(centers[i] - centers[j]) >= 4 * 0.5 - 1e-9

    def test_linearly_separable(self):
        # A zero-hidden classifier trained centrally must reach >= 0.95.
        ds = synth_blobs(2, 50, 2, 0.5, seed=1)
        net = nets.init_network(nets.ArchSpec(2, (), 2), 0)
        for _ in range(200):
            net = nets.sgd_step(net, nets.loss_gradient(net, ds.features, ds.labels), 0.5)
        acc, _ = nets.evaluate(net, ds.features, ds.labels)
        assert acc >= 0.95

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            synth_blobs(1, 10, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            synth_blobs(2, 10, 2, 0.0, seed=0)


def balanced_dataset(num_classes=10, per_class=100, seed=0):
    return synth_blobs(num_classes, per_class, 4, 0.5, seed=seed)


class TestDirichletPartition:
    def test_complete_and_disjoint(self):
        ds = balanced_dataset()
        for alpha in (0.1, 1.0, 100.0):
            for seed in range(3):
                pm = dirichlet_partition(ds, 5, alpha, seed=seed, min_per_client=1)
                flat = sorted(i for shard in pm.client_indices for i in shard)
                assert flat == list(range(len(ds)))

    def test_near_uniform_at_huge_alpha(self):
        ds = balanced_dataset()
        pm = dirichlet_partition(ds, 4, 1e6, seed=3, min_per_client=1)
        expected = len(ds) / 4
        for shard in pm.client_indices:
            hist = label_histogram(ds, shard)
            assert abs(len(shard) - expected) <= 0.1 * expected
            # each class within +-10% of its uniform share
            assert np.all(np.abs(hist - 25) <= 2.5 + 1)

    def test_skew_grows_as_alpha_falls(self):
        ds = balanced_dataset(per_class=80)
        entropies = {}
        for alpha in (0.1, 1.0, 100.0):
            vals = []
            for seed in range(20):
                pm = dirichlet_partition(ds, 8, alpha, seed=seed, min_per_client=1)
                vals.extend(
                    label_entropy(label_histogram(ds, shard)) for shard in pm.client_indices
                )
            entropies[alpha] = np.mean(vals)
        assert entropies[0.1] < entropies[1.0] < entropies[100.0]

    def test_min_per_client_enforced(self):
        ds = balanced_dataset(per_class=50)
        pm = dirichlet_partition(ds, 8, 0.1, seed=0, min_per_client=10)
        assert all(len(s) >= 10 for s in pm.client_indices)

    def test_infeasible_raises(self):
        ds = balanced_dataset(num_classes=2, per_class=10, seed=1)
        with pytest.raises(InfeasiblePartitionError):
            dirichlet_partition(ds, 4, 0.5, seed=0, min_per_client=50)

    def test_subset_universe(self):
        ds = balanced_dataset()
        universe = np.arange(0, len(ds), 2)
        pm = dirichlet_partition(ds, 4, 1.0, seed=5, min_per_client=1, indices=universe)
        flat = sorted(i for shard in pm.client_indices for i in shard)
        assert flat == universe.tolist()

    def test_single_client_gets_everything(self):
        ds = balanced_dataset(per_class=20)
        pm = dirichlet_partition(ds, 1, 0.1, seed=0, min_per_client=1)
        assert sorted(pm.client_indices[0]) == list(range(len(ds)))


def split_per_class(dataset, num_clients, alpha, seed, min_per_client, indices, max_attempts):
    """The per-class partition written out: each draw splits every non-empty class at its
    Dirichlet cuts with np.split and extends each client's list by its piece; None when
    no draw gives every client min_per_client rows."""
    universe = np.asarray(indices, dtype=np.int64)
    labels = dataset.labels[universe]
    for attempt in range(max_attempts):
        rng = stream(seed, SALT_PARTITION, 0, attempt)
        shards = [[] for _ in range(num_clients)]
        for k in range(dataset.num_classes):
            class_idx = universe[labels == k]
            if class_idx.size == 0:
                continue
            class_idx = rng.permutation(class_idx)
            p = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(p)[:-1] * class_idx.size).astype(np.int64)
            for j, piece in enumerate(np.split(class_idx, cuts)):
                shards[j].extend(piece.tolist())
        if min(len(shard) for shard in shards) >= min_per_client:
            return shards
    return None


def test_partition_equals_per_class_split_reference():
    rng = np.random.default_rng(909)
    compared = empty_class = zero_piece = infeasible = 0
    while compared < 200:
        num_classes = int(rng.integers(2, 9))
        labels = rng.integers(0, num_classes, size=int(rng.integers(50, 400)))
        ds = Dataset(rng.standard_normal((labels.size, 2)), labels, num_classes)
        indices = rng.permutation(labels.size)[:int(rng.integers(labels.size // 2, labels.size))]
        if compared % 3 == 0:  # a class with no rows in `indices`
            indices = indices[ds.labels[indices] != rng.integers(0, num_classes)]
        num_clients = int(rng.integers(1, 25))
        alpha = float(rng.choice([0.05, 0.3, 1.0, 10.0]))
        seed = int(rng.integers(0, 2 ** 40))
        draw = (ds, num_clients, alpha, seed, int(rng.integers(0, 3)), indices, 10)
        expected = split_per_class(*draw)
        if expected is None:
            infeasible += 1
            with pytest.raises(InfeasiblePartitionError):
                dirichlet_partition(*draw)
            continue
        shards = dirichlet_partition(*draw).client_indices
        assert all(s.ndim == 1 and s.dtype == np.int64 for s in shards)
        assert [s.tolist() for s in shards] == expected, draw[1:5]
        compared += 1
        present = np.unique(ds.labels[indices])
        empty_class += present.size < num_classes
        zero_piece += any(label_histogram(ds, shard)[present].min() == 0 for shard in expected)
    assert empty_class >= 60 and zero_piece >= 60 and infeasible >= 5
    no_rows = (ds, 3, 1.0, 0, 0, [], 10)
    shards = dirichlet_partition(*no_rows).client_indices
    assert all(s.ndim == 1 and s.dtype == np.int64 for s in shards)
    assert [s.tolist() for s in shards] == split_per_class(*no_rows) == [[]] * 3


def test_partition_map_json_round_trip():
    pm = PartitionMap([np.array([0, 2]), np.array([1, 3])], alpha=0.5, seed=7)
    assert json.loads(pm.to_json()) == {"alpha": 0.5, "seed": 7, "clients": [[0, 2], [1, 3]]}


def test_partition_json_is_the_int_wrapped_text():
    # to_json writes dirichlet_partition's int64 shards as the text an int() re-wrap of every
    # index would.
    ds = balanced_dataset()
    pm = dirichlet_partition(ds, 5, 0.5, seed=3, min_per_client=1)
    assert pm.to_json() == json.dumps({"alpha": 0.5, "seed": 3, "clients": [
        [int(i) for i in shard] for shard in pm.client_indices]})
