import struct

import numpy as np
import pytest

from fedkemf import checkpoint, nets
from fedkemf.errors import BadHeaderError, BadMagicError, DataError, TruncatedFileError


def test_round_trip_bitexact(tmp_path):
    net = nets.init_network(nets.ArchSpec(7, (5, 3), 4), 123)
    path = tmp_path / "net.fkmf"
    checkpoint.save(net, path)
    loaded = checkpoint.load(path)
    assert loaded.arch == net.arch
    assert np.array_equal(loaded.params, net.params)


def test_header_layout():
    net = nets.init_network(nets.ArchSpec(2, (3,), 2), 0)
    blob = checkpoint.serialize(net)
    assert blob[:4] == b"FKMF"
    assert struct.unpack_from("<H", blob, 4)[0] == 1
    assert struct.unpack_from("<II", blob, 6) == (2, 1)
    assert struct.unpack_from("<I", blob, 14)[0] == 3
    assert struct.unpack_from("<I", blob, 18)[0] == 2
    assert len(blob) == checkpoint.checkpoint_nbytes(net.arch)


def test_nbytes_matches_serialized_size():
    for arch in [nets.ArchSpec(3, (), 2), nets.ArchSpec(16, (16,), 4), nets.ArchSpec(5, (4, 3), 3)]:
        net = nets.init_network(arch, 1)
        assert len(checkpoint.serialize(net)) == checkpoint.checkpoint_nbytes(arch)


def test_bad_magic():
    with pytest.raises(BadMagicError):
        checkpoint.deserialize(b"NOPE" + b"\x00" * 30)


def test_truncated_body():
    blob = checkpoint.serialize(nets.init_network(nets.ArchSpec(3, (), 2), 0))
    with pytest.raises(TruncatedFileError):
        checkpoint.deserialize(blob[:-4])


@pytest.mark.parametrize("blob", [b"FKMF", b"FKMF\x01"])
def test_header_too_short_for_version(blob):
    with pytest.raises(TruncatedFileError):
        checkpoint.deserialize(blob)


@pytest.mark.parametrize("arch_fields", [(0, (3,), 2), (2, (0,), 2), (2, (3,), 1)],
                         ids=["input_dim_0", "hidden_width_0", "one_class"])
def test_header_describing_no_network(arch_fields):
    input_dim, hidden, num_classes = arch_fields
    blob = b"FKMF" + struct.pack("<HII", 1, input_dim, len(hidden))
    blob += struct.pack(f"<{len(hidden)}I", *hidden) + struct.pack("<I", num_classes)
    with pytest.raises(BadHeaderError) as err:
        checkpoint.deserialize(blob)
    assert isinstance(err.value, DataError) and err.value.exit_code == 3


def test_unsupported_version_is_a_header_fault():
    # The magic was read correctly, so the fault is the header's.
    blob = bytearray(checkpoint.serialize(nets.init_network(nets.ArchSpec(3, (), 2), 0)))
    blob[4:6] = struct.pack("<H", 2)
    with pytest.raises(BadHeaderError) as err:
        checkpoint.deserialize(bytes(blob))
    assert not isinstance(err.value, BadMagicError) and err.value.exit_code == 3
    assert str(err.value) == "unsupported checkpoint version 2"
