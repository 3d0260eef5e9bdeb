"""Line-delimited JSON metrics files.

Every record is one JSON object per line.  A command writes every file
under its ``--out`` directory, and nothing else chooses where.
"""

from __future__ import annotations

import json
from pathlib import Path


def metrics_path(name: str, out_dir: str | None = None) -> Path:
    p = Path(out_dir or ".")
    p.mkdir(parents=True, exist_ok=True)
    return p / name


def append_records(path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


def read_records(path) -> list[dict]:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
