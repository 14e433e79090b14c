#!/usr/bin/env python3
"""Checks that two stores packed from the same dataset differ only in
the order of their matrix words: PARENT in the v2 arena layout (each
section one row-major run of m x block_count words), CHANGE in the v3
layout (each section tile-major, tile width read from its header).
Everything else — manifest fields other than the shard digests, the
section table, the universes blob — must be byte-equal.

Usage: section-order.py PARENT_STORE CHANGE_STORE
"""
import struct
import sys
from pathlib import Path


def header(raw, fixed):
    gen, sid, bstart, bcount, ntargets, fp, m, nsec = struct.unpack_from("<QIIIIQII", raw, 8)
    tile = struct.unpack_from("<I", raw, 48)[0] if fixed == 52 else None
    table = [struct.unpack_from("<QQ", raw, fixed + 16 * i) for i in range(nsec)]
    return (gen, sid, bstart, bcount, ntargets, fp, m), tile, table


def words(raw, off, n):
    return struct.unpack_from(f"<{n}Q", raw, off)


parent, change = Path(sys.argv[1]), Path(sys.argv[2])
shards = sorted(p.name for p in parent.glob("*.shard"))
assert shards == sorted(p.name for p in change.glob("*.shard")), "same shard files"
for name in shards:
    p = (parent / name).read_bytes()
    c = (change / name).read_bytes()
    assert p[:8] == b"TINDSH\x00\x02" and c[:8] == b"TINDSH\x00\x03", name
    assert len(p) == len(c), f"{name}: lengths {len(p)} vs {len(c)}"
    pid, _, ptable = header(p, 48)
    cid, tile, ctable = header(c, 52)
    assert pid == cid and ptable == ctable, f"{name}: identity fields and section table"
    _, _, _, bcount, ntargets, _, m = cid
    for t, (off, length) in enumerate(ctable[:ntargets]):
        rows = words(p, off, m * bcount)
        expect = []
        for lo in range(0, bcount, tile):
            hi = min(lo + tile, bcount)
            for r in range(m):
                expect.extend(rows[r * bcount + lo:r * bcount + hi])
        assert tuple(expect) == words(c, off, m * bcount), f"{name}: section {t} reordered"
    uoff, ulen = ctable[ntargets]
    assert p[uoff:uoff + ulen] == c[uoff:uoff + ulen], f"{name}: universes"
    print(f"{name}: m={m} blocks={bcount} tile={tile} words, {ntargets} sections "
          f"reordered only, universes equal, {len(c)} bytes")
print("OK: the stores differ only in the order of their matrix words")
