"""Model checkpoint file and loss-history CSV.

Checkpoint layout (magic ``QXDM``, version 1, little-endian):

    bytes 0-3  magic "QXDM"
    byte  4    format version (0x01)
    byte  5    pooling mode (0 = last, 1 = mean)
    u32        embedding dim d
    u32        hidden size h
    u32        representation size r
    u64        training seed
    tensors    float64 raw bytes, in the network's declared parameter order
               (shapes are implied by d, h, r)
"""

import math
import struct
from pathlib import Path

import numpy as np

from qexp.classifier.network import PARAM_ORDER, SiameseModel, param_shapes
from qexp.collection import ParseError

MODEL_MAGIC = b"QXDM"
MODEL_VERSION = 1
_HEADER_SIZE = 26
_POOLING_CODES = {"last": 0, "mean": 1}
_POOLING_NAMES = {v: k for k, v in _POOLING_CODES.items()}


def save_model(model: SiameseModel, path, seed: int):
    out = bytearray(MODEL_MAGIC)
    out.append(MODEL_VERSION)
    out.append(_POOLING_CODES[model.pooling])
    out += struct.pack("<III", model.dim, model.hidden, model.rep)
    out += struct.pack("<Q", seed)
    for name in PARAM_ORDER:
        tensor = np.ascontiguousarray(model.params[name], dtype=np.float64)
        out += tensor.tobytes()
    Path(path).write_bytes(bytes(out))


def load_model(path) -> tuple[SiameseModel, int]:
    """Read a checkpoint; returns (model, training seed)."""
    data = Path(path).read_bytes()
    if data[:4] != MODEL_MAGIC:
        raise ParseError(f"{path}: not a model checkpoint (bad magic)")
    if len(data) < _HEADER_SIZE:
        raise ParseError(f"{path}: truncated checkpoint header")
    if data[4] != MODEL_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {data[4]}")
    if data[5] not in _POOLING_NAMES:
        raise ParseError(f"{path}: unknown pooling code {data[5]}")
    pooling = _POOLING_NAMES[data[5]]
    d, h, r = struct.unpack_from("<III", data, 6)
    (seed,) = struct.unpack_from("<Q", data, 18)
    shapes = param_shapes(d, h, r)
    expected = _HEADER_SIZE + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(data) < expected:
        raise ParseError(f"{path}: truncated checkpoint, header implies {expected} bytes")
    if len(data) > expected:
        raise ParseError(f"{path}: {len(data) - expected} trailing bytes in checkpoint")
    model = SiameseModel(d, h, r, np.random.default_rng(0), pooling)
    off = _HEADER_SIZE
    for name, shape in shapes.items():
        count = math.prod(shape)
        model.params[name] = np.frombuffer(data, "<f8", count, off).reshape(shape).copy()
        off += 8 * count
    return model, seed


def write_loss_csv(history, path):
    """History rows (epoch, batch, loss) as a three-column CSV."""
    with open(path, "w") as f:
        f.write("epoch,batch,loss\n")
        for epoch, batch, loss in history:
            f.write(f"{epoch},{batch},{loss!r}\n")
