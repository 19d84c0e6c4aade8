"""Binary checkpoint format for knowledge/local networks.

Layout (little-endian): magic "FKMF", u16 version=1, u32 input_dim,
u32 hidden-layer count, u32 per hidden width, u32 num_classes, then
parameter_count float64 values in canonical order.
"""

import struct

import numpy as np

from .errors import BadHeaderError, BadMagicError, TruncatedFileError
from .nets import ArchSpec, Network

MAGIC = b"FKMF"
VERSION = 1


def serialize(net: Network) -> bytes:
    arch = net.arch
    head = MAGIC + struct.pack("<H", VERSION)
    head += struct.pack("<II", arch.input_dim, len(arch.hidden_dims))
    head += struct.pack(f"<{len(arch.hidden_dims)}I", *arch.hidden_dims)
    head += struct.pack("<I", arch.num_classes)
    return head + net.params.astype("<f8").tobytes()


def deserialize(blob: bytes) -> Network:
    if blob[:4] != MAGIC:
        raise BadMagicError("not a FKMF checkpoint")
    off = 4
    try:
        (version,) = struct.unpack_from("<H", blob, off)
        off += 2
        if version != VERSION:
            raise BadHeaderError(f"unsupported checkpoint version {version}")
        input_dim, n_hidden = struct.unpack_from("<II", blob, off)
        off += 8
        hidden = struct.unpack_from(f"<{n_hidden}I", blob, off)
        off += 4 * n_hidden
        (num_classes,) = struct.unpack_from("<I", blob, off)
        off += 4
    except struct.error as e:
        raise TruncatedFileError("checkpoint header truncated") from e
    try:
        arch = ArchSpec(input_dim, tuple(hidden), num_classes)
    except ValueError as e:
        raise BadHeaderError(f"checkpoint header: {e}") from e
    count = arch.parameter_count()
    body = blob[off:]
    if len(body) != 8 * count:
        raise TruncatedFileError(
            f"expected {8 * count} parameter bytes, found {len(body)}"
        )
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return Network(arch, params)


def checkpoint_nbytes(arch: ArchSpec) -> int:
    """Serialized size in bytes for a network of this shape."""
    return 4 + 2 + 4 * (3 + len(arch.hidden_dims)) + 8 * arch.parameter_count()


def save(net: Network, path):
    with open(path, "wb") as f:
        f.write(serialize(net))


def load(path) -> Network:
    with open(path, "rb") as f:
        return deserialize(f.read())
