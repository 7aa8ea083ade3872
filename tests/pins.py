"""Byte pins: the sha256 of a payload, a sequence of bytes and arrays, is
checked against entry "<group>/<name>" of ``pins.json``; a group's "note"
says what it pins.  A mismatch names the entry and both digests, so a
deliberate re-record is an edit of the named entries."""

import hashlib
import json
import os
from pathlib import Path

LEDGER_FILE = Path(__file__).with_name("pins.json")
LEDGER = {f"{group}/{name}": digest
          for group, entries in json.loads(LEDGER_FILE.read_text()).items()
          for name, digest in entries.items() if name != "note"}
ASSERTED = set()


def sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.tobytes())
    return h.hexdigest()


def tree(root):
    """The chunks of each file under ``root`` in sorted walk order: its
    relative path and ``\\0``, then its bytes."""
    for dirpath, _, files in sorted(os.walk(root)):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            yield os.path.relpath(path, root).encode() + b"\0"
            with open(path, "rb") as fh:
                yield fh.read()


def assert_pinned(name: str, payload) -> None:
    ASSERTED.add(name)
    digest = sha256(payload)
    assert LEDGER.get(name) == digest, (
        f"pin {name}: {LEDGER_FILE.name} records {LEDGER.get(name)}, this run reads {digest}")
