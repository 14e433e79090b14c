#!/usr/bin/env python3
"""Differential decode check: the parent's and the change's `tind stats`
must accept and reject the same TINDDS byte strings with the same output.

Usage: decode-diff.py PARENT_TIND CHANGE_TIND DATASET N SEED WORKDIR

Makes N mutants of DATASET (a TINDDS file), each with a valid CRC-32
trailer so the decoder itself is reached: a flipped, inserted or deleted
payload byte anywhere, or one inside the dictionary; a dictionary string
overwritten by an earlier one of the same length (a duplicate entry); a
truncation; or a value-id varint made overlong. Runs `tind stats --data`
with both binaries on each mutant and compares exit code, stdout and
stderr. Prints one summary line per mutation kind and exits 1 on any
difference.
"""
import random
import subprocess
import sys
import zlib

parent, change, path, count, seed, work = sys.argv[1:7]
rng = random.Random(int(seed))
data = open(path, "rb").read()
payload = bytearray(data[:-4])
MAGIC = 8


def varint(buf, pos):
    value, shift = 0, 0
    while True:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, pos


# Dictionary entries: (offset of the length varint, string start, length).
_, pos = varint(payload, MAGIC)  # timeline length
dict_len, pos = varint(payload, pos)
entries = []
for _ in range(dict_len):
    start = pos
    length, pos = varint(payload, pos)
    entries.append((start, pos, length))
    pos += length
histories = pos


def mutate(kind):
    buf = bytearray(payload)
    if kind == "flip":
        i = rng.randrange(MAGIC, len(buf))
        buf[i] ^= 1 << rng.randrange(8)
    elif kind == "flip-dictionary":
        i = rng.randrange(MAGIC, histories)
        buf[i] = rng.randrange(256)
    elif kind == "insert":
        buf.insert(rng.randrange(MAGIC, len(buf)), rng.randrange(256))
    elif kind == "delete":
        del buf[rng.randrange(MAGIC, len(buf))]
    elif kind == "truncate":
        del buf[rng.randrange(MAGIC, len(buf)):]
    elif kind == "duplicate":
        by_len = {}
        for e in entries:
            by_len.setdefault(e[2], []).append(e)
        group = rng.choice([g for g in by_len.values() if len(g) > 1])
        a, b = sorted(rng.sample(group, 2))
        buf[b[1]:b[1] + b[2]] = buf[a[1]:a[1] + a[2]]
    elif kind == "overlong":
        # Re-encode one history byte < 0x80 as a two-byte varint.
        i = rng.randrange(histories, len(buf))
        while buf[i] >= 0x80 or (i > histories and buf[i - 1] >= 0x80):
            i = rng.randrange(histories, len(buf))
        buf[i:i + 1] = bytes([buf[i] | 0x80, 0])
    return bytes(buf) + zlib.crc32(buf).to_bytes(4, "little")


def run(binary, file):
    p = subprocess.run([binary, "stats", "--data", file], capture_output=True)
    return p.returncode, p.stdout, p.stderr


kinds = ["flip", "flip-dictionary", "insert", "delete", "truncate", "duplicate", "overlong"]
tally = {k: [0, 0, 0] for k in kinds}  # runs, accepted, differing
for n in range(int(count)):
    kind = kinds[n % len(kinds)]
    file = f"{work}/mutant.tind"
    open(file, "wb").write(mutate(kind))
    a, b = run(parent, file), run(change, file)
    tally[kind][0] += 1
    tally[kind][1] += a[0] == 0
    if a != b:
        tally[kind][2] += 1
        print(f"DIFFER {kind} #{n}: parent {a[0]} {a[2][:200]!r} change {b[0]} {b[2][:200]!r}")
for kind, (runs, accepted, differing) in tally.items():
    print(f"{kind}: {runs} mutants, {accepted} accepted by the parent, {differing} differ")
sys.exit(1 if any(t[2] for t in tally.values()) else 0)
