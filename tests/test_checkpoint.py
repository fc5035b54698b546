"""Binary model checkpoints and loss-history CSV."""

import struct

import numpy as np
import pytest

from qexp.classifier.checkpoint import (MODEL_MAGIC, load_model, save_model,
                                        write_loss_csv)
from qexp.classifier.network import PARAM_ORDER, SiameseModel
from qexp.collection import ParseError


def _model(pooling="last"):
    return SiameseModel(4, 3, 5, np.random.default_rng(11), pooling)


@pytest.mark.parametrize("pooling", ["last", "mean"])
def test_round_trip_bitwise(tmp_path, pooling):
    model = _model(pooling)
    path = tmp_path / "m.qxdm"
    save_model(model, path, seed=12345)
    clone, seed = load_model(path)
    assert seed == 12345
    assert (clone.dim, clone.hidden, clone.rep) == (4, 3, 5)
    assert clone.pooling == pooling
    for name in PARAM_ORDER:
        assert np.array_equal(clone.params[name], model.params[name]), name
        assert clone.params[name].dtype == np.float64
    # saving the clone reproduces the file byte for byte
    path2 = tmp_path / "m2.qxdm"
    save_model(clone, path2, seed=12345)
    assert path2.read_bytes() == path.read_bytes()


def test_header_fields(tmp_path):
    path = tmp_path / "m.qxdm"
    save_model(_model("mean"), path, seed=7)
    data = path.read_bytes()
    assert data[:4] == MODEL_MAGIC
    assert data[4] == 1          # format version
    assert data[5] == 1          # mean pooling code
    assert int.from_bytes(data[6:10], "little") == 4
    assert int.from_bytes(data[10:14], "little") == 3
    assert int.from_bytes(data[14:18], "little") == 5
    assert int.from_bytes(data[18:26], "little") == 7


def test_load_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.qxdm"
    save_model(_model(), good, seed=0)
    raw = good.read_bytes()

    bad_magic = tmp_path / "bad_magic.qxdm"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ParseError, match="bad magic"):
        load_model(bad_magic)

    bad_version = tmp_path / "bad_version.qxdm"
    bad_version.write_bytes(raw[:4] + bytes([99]) + raw[5:])
    with pytest.raises(ParseError, match="version 99"):
        load_model(bad_version)

    bad_pool = tmp_path / "bad_pool.qxdm"
    bad_pool.write_bytes(raw[:5] + bytes([7]) + raw[6:])
    with pytest.raises(ParseError, match="pooling code 7"):
        load_model(bad_pool)

    truncated = tmp_path / "trunc.qxdm"
    truncated.write_bytes(raw[:-9])
    with pytest.raises(ParseError, match="truncated"):
        load_model(truncated)

    trailing = tmp_path / "trail.qxdm"
    trailing.write_bytes(raw + b"\x00\x01")
    with pytest.raises(ParseError, match="2 trailing bytes"):
        load_model(trailing)


def test_load_rejects_every_proper_prefix(tmp_path):
    good = tmp_path / "good.qxdm"
    save_model(SiameseModel(4, 3, 4, np.random.default_rng(0)), good, seed=0)
    raw = good.read_bytes()
    cut_file = tmp_path / "cut.qxdm"
    for cut in range(len(raw)):
        cut_file.write_bytes(raw[:cut])
        with pytest.raises(ParseError, match="cut.qxdm"):
            load_model(cut_file)


def test_load_checks_length_before_allocating(tmp_path):
    # a bare header declaring tensors of ~2^66 floats each
    big = 2**32 - 1
    path = tmp_path / "huge.qxdm"
    path.write_bytes(MODEL_MAGIC + bytes([1, 0]) + struct.pack("<IIIQ", big, big, big, 0))
    with pytest.raises(ParseError, match="truncated checkpoint, header implies"):
        load_model(path)


def test_loss_csv_format(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([(0, 0, 0.6931471805599453), (0, 1, 0.5), (1, 0, 0.25)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,batch,loss"
    assert lines[1] == "0,0,0.6931471805599453"
    assert lines[2] == "0,1,0.5"
    assert lines[3] == "1,0,0.25"
    # repr round-trips the float exactly
    assert float(lines[1].split(",")[2]) == 0.6931471805599453
