"""Line-delimited JSON metrics files.

Every record is one JSON object per line.  A command writes every file
under its ``--out`` directory (``cli._out_path`` creates it), and
nothing else chooses where; each file holds that one invocation's records.
"""

from __future__ import annotations

import json


def write_records(path, records) -> None:
    with open(path, "w") as f:
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
