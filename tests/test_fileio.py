"""Binary table formats: round trips and malformed-input rejection."""

import struct
import time

import numpy as np
import pytest

from votelab.cli import main
from votelab.fileio import (
    GSWF_MAGIC,
    SCF_MAGIC,
    VERSION,
    read_gswf,
    read_scf,
    write_gswf,
    write_scf,
)
from votelab.rules import ScfRule
from votelab.welfare import majority_g, neutral_tensor, random_iia_gswf


def test_scf_round_trip(tmp_path):
    table = ScfRule("random_table", seed=11).as_table(3)
    path = tmp_path / "t.scf3"
    write_scf(table, path)
    back = read_scf(path)
    assert back == table
    assert back.n == 3 and back.m == 3


def test_scf_round_trip_m4(tmp_path):
    table = ScfRule("plurality", 4).as_table(2)
    path = tmp_path / "t4.scf3"
    write_scf(table, path)
    back = read_scf(path)
    assert back == table and back.m == 4


def test_scf_round_trip_m2(tmp_path):
    table = ScfRule("borda", 2).as_table(3)
    path = tmp_path / "t2.scf3"
    write_scf(table, path)
    back = read_scf(path)
    assert back == table and back.m == 2


def test_scf_header_layout(tmp_path):
    table = ScfRule("constant", alt=2).as_table(2)
    path = tmp_path / "c.scf3"
    write_scf(table, path)
    raw = path.read_bytes()
    assert raw[:4] == SCF_MAGIC
    assert raw[4] == 1           # version
    assert raw[5] == 3           # m
    assert int.from_bytes(raw[6:8], "little") == 2  # n
    assert len(raw) == 8 + 36
    assert set(raw[8:]) == {2}


def test_gswf_round_trip(tmp_path):
    for G in (random_iia_gswf(3, 3, 2), random_iia_gswf(2, 4, 5),
              random_iia_gswf(3, 2, 7), neutral_tensor(majority_g(3), 3)):
        path = tmp_path / "g.gswf"
        write_gswf(G, path)
        back = read_gswf(path)
        assert back == G


def test_gswf_accepts_neutral_wrapper(tmp_path):
    T = neutral_tensor(majority_g(3), 3)
    path = tmp_path / "t.gswf"
    write_gswf(T, path)
    assert read_gswf(path) == T


def test_gswf_bit_packing_is_little_endian(tmp_path):
    G = neutral_tensor(majority_g(3), 3)
    path = tmp_path / "m.gswf"
    write_gswf(G, path)
    raw = path.read_bytes()
    assert raw[:4] == GSWF_MAGIC
    # majority bits over z = 0..7 are 0,0,0,1,0,1,1,1 -> LSB-first byte 0xe8
    assert raw[8:] == bytes([0xE8]) * 3


def test_reject_wrong_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ValueError):
        read_scf(path)
    with pytest.raises(ValueError):
        read_gswf(path)


def test_reject_swapped_magic(tmp_path):
    table = ScfRule("plurality").as_table(2)
    spath = tmp_path / "t.scf3"
    write_scf(table, spath)
    with pytest.raises(ValueError):
        read_gswf(spath)


def test_reject_truncated_and_oversized(tmp_path):
    table = ScfRule("plurality").as_table(2)
    path = tmp_path / "t.scf3"
    write_scf(table, path)
    raw = path.read_bytes()
    short = tmp_path / "short.scf3"
    short.write_bytes(raw[:-2])
    with pytest.raises(ValueError):
        read_scf(short)
    long = tmp_path / "long.scf3"
    long.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        read_scf(long)


def test_reject_bad_version(tmp_path):
    table = ScfRule("plurality").as_table(2)
    path = tmp_path / "t.scf3"
    write_scf(table, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    bad = tmp_path / "v9.scf3"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_scf(bad)


def test_reject_one_alternative(tmp_path):
    """A header with m = 1 is refused by both readers."""
    spath, gpath = tmp_path / "t.scf3", tmp_path / "g.gswf"
    write_scf(ScfRule("plurality").as_table(2), spath)
    write_gswf(random_iia_gswf(2, 3, 1), gpath)
    for path, read in ((spath, read_scf), (gpath, read_gswf)):
        raw = bytearray(path.read_bytes())
        raw[5] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="alternative count 1"):
            read(path)


def test_reject_invalid_winner_bytes(tmp_path):
    table = ScfRule("plurality").as_table(2)
    path = tmp_path / "t.scf3"
    write_scf(table, path)
    raw = bytearray(path.read_bytes())
    raw[8] = 7  # winner out of range for m = 3
    bad = tmp_path / "w.scf3"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_scf(bad)


def test_reject_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        read_scf(path)


@pytest.mark.parametrize("magic,m,n", [(SCF_MAGIC, 255, 65535), (SCF_MAGIC, 255, 3000),
                                       (GSWF_MAGIC, 3, 65535)])
def test_reject_huge_header_fast(tmp_path, capsys, magic, m, n):
    """A 9-byte file whose header claims (m!)^n, or 2^n bits per pair, far
    past its payload exits 2 at once, naming m, n and the payload length,
    without building the header's power."""
    argv = (["metrics", "--exact", "--scf"] if magic == SCF_MAGIC
            else ["gen", "--out", str(tmp_path / "out.gswf"), "--g"])
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<4sBBH", magic, VERSION, m, n) + b"\x00")
    t0 = time.perf_counter()
    code = main([*argv, str(path)])
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert code == 2
    assert "payload is 1 bytes" in err and f"m={m}, n={n}" in err
