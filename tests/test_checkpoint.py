import errno
import os
import struct

import numpy as np
import pytest

from esotn.checkpoint import (
    CheckpointError,
    MAGIC,
    load_checkpoint,
    load_sidecar,
    save_checkpoint,
    sidecar_path,
)
from esotn.policy import PolicyConfig, init_params


@pytest.fixture
def params():
    return init_params(PolicyConfig(hidden_dim=8, message_passing_steps=2), 41)


def test_round_trip(tmp_path, params):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.manifest == params.manifest
    assert np.array_equal(loaded.values, params.values)


def test_identical_params_identical_bytes(tmp_path, params):
    a, b = tmp_path / "a.esotn", tmp_path / "b.esotn"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_magic_prefix(tmp_path, params):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params)
    assert path.read_bytes().startswith(MAGIC)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.esotn"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_truncated_rejected(tmp_path, params):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params)
    clipped = tmp_path / "clipped.esotn"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(clipped)


def test_trailing_bytes_rejected(tmp_path, params):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params)
    padded = tmp_path / "padded.esotn"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(padded)


def test_sidecar_round_trip(tmp_path, params):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params, {"policy.hidden_dim": 8, "note": "hello"})
    assert sidecar_path(path).exists()
    meta = load_sidecar(path)
    assert meta["policy.hidden_dim"] == "8"
    assert meta["note"] == "hello"


def test_sidecar_does_not_change_checkpoint_bytes(tmp_path, params):
    a, b = tmp_path / "a.esotn", tmp_path / "b.esotn"
    save_checkpoint(a, params, {"wall_seconds": "123.4"})
    save_checkpoint(b, params, {"wall_seconds": "999.9"})
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("torn_file", ["checkpoint", "sidecar"])
def test_failed_write_leaves_previous_files_and_no_temp(tmp_path, params, monkeypatch, torn_file):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params, {"iteration": 1})
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    syncs = []
    fail_at = 1 if torn_file == "checkpoint" else 2  # the binary is written first

    def torn_fsync(fd):
        # The disk fills while the data is flushed: half of it lands, then ENOSPC.
        syncs.append(fd)
        if len(syncs) == fail_at:
            os.ftruncate(fd, os.fstat(fd).st_size // 2)
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", torn_fsync)
    changed = init_params(PolicyConfig(hidden_dim=8, message_passing_steps=2), 42)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, changed, {"iteration": 2})
    monkeypatch.undo()

    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before), "a temp file was left behind"
    assert after["p.esotn.meta"] == before["p.esotn.meta"]
    if torn_file == "checkpoint":
        assert after["p.esotn"] == before["p.esotn"]
    else:  # the binary was already replaced, whole, before the sidecar failed
        assert np.array_equal(load_checkpoint(path).values, changed.values)


def test_non_finite_values_rejected_naming_the_file(tmp_path, params):
    path = tmp_path / "p.esotn"
    save_checkpoint(path, params)
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # the last parameter
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="p.esotn.*non-finite"):
        load_checkpoint(path)


def test_non_utf8_tensor_name_rejected_naming_the_file(tmp_path):
    path = tmp_path / "p.esotn"
    name = b"\xff\xfe"
    path.write_bytes(
        MAGIC
        + struct.pack("<I", 1)  # one tensor
        + struct.pack("<I", len(name)) + name
        + struct.pack("<II", 1, 1)  # shape (1,)
        + np.array([0.5], dtype="<f8").tobytes()
    )
    with pytest.raises(CheckpointError, match="p.esotn.*not UTF-8"):
        load_checkpoint(path)
