#!/usr/bin/env python3
"""Writes one section of a CCKP snapshot (src/ckpt/snapshot.h) to stdout.

usage: snapshot_section.py SNAPSHOT SECTION
"""
import struct
import sys


def sections(data):
    if data[:4] != b"CCKP":
        raise SystemExit("not a CCKP snapshot")
    _version, count = struct.unpack_from("<II", data, 4)
    pos = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4:pos + 4 + name_len].decode()
        pos += 4 + name_len
        payload_len, _crc = struct.unpack_from("<QI", data, pos)
        pos += 12
        yield name, data[pos:pos + payload_len]
        pos += payload_len


def main():
    path, wanted = sys.argv[1], sys.argv[2]
    with open(path, "rb") as f:
        data = f.read()
    for name, payload in sections(data):
        if name == wanted:
            sys.stdout.buffer.write(payload)
            return
    raise SystemExit(f"{path}: no section '{wanted}'")


if __name__ == "__main__":
    main()
