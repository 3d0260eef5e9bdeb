"""Synthetic desk-scale sequence classification tasks.

Both tasks are reproducible from a seed and ship with their labeling rule:

* majority: position 0 is a CLS token (id 0); the remaining positions are
  drawn from the token alphabet, and the label is the class token
  (ids 1..classes) occurring most often.  Draws with tied majorities are
  rejected and resampled so every label is unambiguous.
* parity: the label is count(tokens == 1) mod 2.

Datasets serialize as JSON lines with token ids, segment ids and label,
through :func:`metrics.write_records`, the one writer of every JSONL file a
command writes.  A line holds exactly those three keys: tokens and
segments are non-empty integer lists of one length, and the label is an
integer (booleans are not integers here).  Every integer fits int64, and
every line of a file holds as many tokens as its first.  ``save_dataset``
checks the rule before it writes and ``load_dataset`` on every line it
reads; a file that is not UTF-8 text raises ``ValueError`` naming it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics

INT64 = np.iinfo(np.int64)


@dataclass
class Example:
    tokens: list[int]
    segments: list[int]
    label: int


def make_majority_dataset(n_examples: int, seq_len: int = 16, classes: int = 4,
                          vocab: int = 8, seed: int = 0) -> list[Example]:
    if vocab < classes + 1:
        raise ValueError("vocab must cover CLS plus the class tokens")
    if seq_len < 2:     # an empty body has no majority: every draw is rejected
        raise ValueError(f"majority needs seq_len >= 2 (CLS plus a body), got {seq_len}")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_examples:
        body = rng.integers(1, vocab, size=seq_len - 1)
        counts = np.bincount(body, minlength=classes + 1)[1:classes + 1]
        top = counts.max()
        if top == 0 or (counts == top).sum() != 1:
            continue
        label = int(np.argmax(counts))
        tokens = [0] + [int(t) for t in body]
        out.append(Example(tokens=tokens, segments=[0] * seq_len, label=label))
    return out


def make_parity_dataset(n_examples: int, seq_len: int = 16, vocab: int = 8,
                        seed: int = 0) -> list[Example]:
    if vocab < 2:       # the body draws from ids 1..vocab-1
        raise ValueError(f"parity needs vocab >= 2 (CLS plus a body token), got {vocab}")
    if seq_len < 1:
        raise ValueError(f"parity needs seq_len >= 1 (the CLS position), got {seq_len}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_examples):
        body = rng.integers(1, vocab, size=seq_len - 1)
        label = int((body == 1).sum() % 2)
        tokens = [0] + [int(t) for t in body]
        out.append(Example(tokens=tokens, segments=[0] * seq_len, label=label))
    return out


# task -> (class count, builder of (n, seq_len, classes, vocab, seed))
TASKS = {"majority": (4, make_majority_dataset),
         "parity": (2, lambda n, seq_len, _, vocab, seed:
                    make_parity_dataset(n, seq_len, vocab, seed))}


def task_classes(task: str) -> int:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; known: {sorted(TASKS)}")
    return TASKS[task][0]


def make_dataset(task: str, n: int, seq_len: int, vocab: int,
                 seed: int) -> list[Example]:
    """``n`` examples of ``task``, labelled with its ``task_classes`` classes."""
    classes = task_classes(task)        # ValueError for an unknown task
    return TASKS[task][1](n, seq_len, classes, vocab, seed)


def as_arrays(examples: list[Example]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tokens = np.array([e.tokens for e in examples], dtype=np.int64)
    segments = np.array([e.segments for e in examples], dtype=np.int64)
    labels = np.array([e.label for e in examples], dtype=np.int64)
    return tokens, segments, labels


def _breaks_rule(d, length: int | None = None) -> str | None:
    """What keeps ``d`` from being a dataset line, or None; ``length`` is
    the first line's token count, which every later line must match."""
    if not (isinstance(d, dict) and d.keys() == {"tokens", "segments", "label"}):
        return "not a JSON object with exactly tokens, segments and label"
    for key in ("tokens", "segments"):
        if not (type(d[key]) is list and d[key] and all(type(v) is int for v in d[key])):
            return f"{key} is not a non-empty list of integers"
        if min(d[key]) < INT64.min or max(d[key]) > INT64.max:
            return f"{key} holds an integer outside int64"
    if len(d["tokens"]) != len(d["segments"]):
        return "tokens and segments differ in length"
    if type(d["label"]) is not int:
        return "label is not an integer"
    if not INT64.min <= d["label"] <= INT64.max:
        return "label is an integer outside int64"
    if length is not None and len(d["tokens"]) != length:
        return f"{len(d['tokens'])} tokens where the first line holds {length}"
    return None


def save_dataset(path: str, examples: list[Example]) -> None:
    records = [asdict(e) for e in examples]
    length = None
    for n, d in enumerate(records, 1):      # checked before the file opens
        if problem := _breaks_rule(d, length):
            raise ValueError(f"example {n} of {path}: {problem}")
        length = len(d["tokens"])
    metrics.write_records(path, records)


def load_dataset(path: str) -> list[Example]:
    out, length = [], None
    with open(path, encoding="utf-8") as f:
        try:
            lines = list(f)
        except UnicodeDecodeError:
            raise ValueError(f"{path} is not UTF-8 text") from None
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            d = None
        if problem := _breaks_rule(d, length):
            raise ValueError(f"{path} line {n}: {problem}")
        length = len(d["tokens"])
        out.append(Example(d["tokens"], d["segments"], d["label"]))
    return out
