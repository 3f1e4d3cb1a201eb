"""Checkpoint manifest — per-partition lineage + metrics, resume by
anti-join (the north rule's "resumable from checkpoint with
per-partition lineage + metrics"; the reference has no fault tolerance
at all — single process, rerun from scratch, SURVEY §4).

A manifest is a directory of JSONL shards (one per writer task —
parallel-safe, no lock) under <out_dir>/_manifest/. Each row:

    {"partition": "z12-mx5-my28", "rows": N, "bytes": B,
     "wall_s": 1.2, "lineage": {...}, "ts": "..."}

Data files are written atomically (tmp + rename) BEFORE the manifest
row, so a partition listed in the manifest is always complete on disk.
On resume, completed partition keys are loaded on the driver (small —
one row per partition); a checkpointed unit's map task reads its file
back instead of extracting, and drops the rows of completed partitions
before the exchange (pipelines/resumable.py).
"""

from __future__ import annotations

import json
import os
import time
import uuid


class Manifest:
    def __init__(self, out_dir: str):
        self.dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.dir, exist_ok=True)

    def completed(self) -> set[str]:
        done: set[str] = set()
        for f in sorted(os.listdir(self.dir)):
            if not f.endswith(".jsonl"):
                continue
            with open(os.path.join(self.dir, f)) as fh:
                for line in fh:
                    try:
                        done.add(json.loads(line)["partition"])
                    except (json.JSONDecodeError, KeyError):
                        continue  # torn write of a crashed task — ignore
        return done

    def rows(self) -> list[dict]:
        out = []
        for f in sorted(os.listdir(self.dir)):
            if not f.endswith(".jsonl"):
                continue
            with open(os.path.join(self.dir, f)) as fh:
                for line in fh:
                    try:
                        out.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue
        return out

    def writer(self) -> "ManifestWriter":
        return ManifestWriter(self.dir)


class ManifestWriter:
    """Appends to a per-process shard file (the writer object may be
    pickled to many worker processes — the shard path is derived lazily
    from the worker pid so shards never collide)."""

    def __init__(self, mdir: str):
        self.dir = mdir
        self._path: str | None = None
        self._pid: int | None = None

    @property
    def path(self) -> str:
        pid = os.getpid()
        if self._path is None or self._pid != pid:
            self._pid = pid
            self._path = os.path.join(
                self.dir, f"shard-{pid}-{uuid.uuid4().hex[:8]}.jsonl")
        return self._path

    def record(self, partition: str, rows: int, nbytes: int, wall_s: float,
               lineage: dict | None = None) -> None:
        row = {"partition": partition, "rows": int(rows), "bytes": int(nbytes),
               "wall_s": round(wall_s, 3), "lineage": lineage or {},
               "ts": time.strftime("%Y-%m-%dT%H:%M:%S")}
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def atomic_write(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
