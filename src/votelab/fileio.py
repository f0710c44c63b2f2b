"""Bit-exact file formats.

SCF table: magic ``SCF3``, version byte 1, m (1 byte), n (2 bytes little
endian), then (m!)^n winner bytes in profile-index order.

GSWF: magic ``GSWF``, same header, then one bitset per unordered pair in
lexicographic pair order, each 2^n bits padded to whole bytes; bit z of a
bitset is stored little-endian within bytes (numpy ``bitorder="little"``).
"""

from __future__ import annotations

import struct
from math import factorial

import numpy as np

from ._tables import pair_list
from .rules import ScfTable
from .sampling import power_surely_exceeds
from .welfare import GswfIia

SCF_MAGIC = b"SCF3"
GSWF_MAGIC = b"GSWF"
VERSION = 1
_HEADER = struct.Struct("<4sBBH")


def _read_header(data: bytes, magic: bytes, what: str) -> tuple[int, int]:
    if len(data) < _HEADER.size:
        raise ValueError(f"not a {what} file: too short")
    got, version, m, n = _HEADER.unpack_from(data)
    if got != magic:
        raise ValueError(f"not a {what} file: bad magic {got!r}")
    if version != VERSION:
        raise ValueError(f"unsupported {what} version {version}")
    if m < 2:
        raise ValueError(f"bad alternative count {m}")
    return m, n


def write_scf(table: ScfTable, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SCF_MAGIC, VERSION, table.m, table.n))
        fh.write(table.outputs.tobytes())


def read_scf(path) -> ScfTable:
    with open(path, "rb") as fh:
        data = fh.read()
    m, n = _read_header(data, SCF_MAGIC, "SCF table")
    body = data[_HEADER.size:]
    if power_surely_exceeds(factorial(m), n, len(body)):
        raise ValueError(f"table payload is {len(body)} bytes, fewer than the "
                         f"(m!)^n that m={m}, n={n} needs")
    total = factorial(m) ** n
    if len(body) != total:
        raise ValueError(f"table payload is {len(body)} bytes, expected {total}")
    return ScfTable(n, m, np.frombuffer(body, dtype=np.uint8))


def write_gswf(G: GswfIia, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(GSWF_MAGIC, VERSION, G.m, G.n))
        for row in G.tables:
            fh.write(np.packbits(row.astype(np.uint8), bitorder="little").tobytes())


def read_gswf(path) -> GswfIia:
    with open(path, "rb") as fh:
        data = fh.read()
    m, n = _read_header(data, GSWF_MAGIC, "GSWF")
    body = data[_HEADER.size:]
    if power_surely_exceeds(2, n, 8 * len(body)):
        raise ValueError(f"GSWF payload is {len(body)} bytes, fewer than the "
                         f"2^n bits per pair that m={m}, n={n} needs")
    pairs = len(pair_list(m))
    nbytes = (2 ** n + 7) // 8
    if len(body) != pairs * nbytes:
        raise ValueError(f"GSWF payload is {len(body)} bytes, expected {pairs * nbytes}")
    tabs = np.empty((pairs, 2 ** n), bool)
    for slot in range(pairs):
        chunk = np.frombuffer(body[slot * nbytes:(slot + 1) * nbytes], dtype=np.uint8)
        tabs[slot] = np.unpackbits(chunk, count=2 ** n, bitorder="little").astype(bool)
    return GswfIia(m, n, tabs)
