"""Synthetic desk-scale sequence classification tasks.

Both tasks are reproducible from a seed and ship with their labeling rule:

* majority: position 0 is a CLS token (id 0); the remaining positions are
  drawn from the token alphabet, and the label is the class token
  (ids 1..classes) occurring most often.  Draws with tied majorities are
  rejected and resampled so every label is unambiguous.
* parity: the label is count(tokens == 1) mod 2.

Datasets serialize as JSON lines with token ids, segment ids and label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


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


def save_dataset(path: str, examples: list[Example]) -> None:
    with open(path, "w") as f:
        for e in examples:
            f.write(json.dumps({"tokens": e.tokens, "segments": e.segments,
                                "label": e.label}) + "\n")


def load_dataset(path: str) -> list[Example]:
    out = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                d = None
            if not (isinstance(d, dict) and {"tokens", "segments", "label"} <= d.keys()):
                raise ValueError(f"{path} line {n}: not a JSON object with "
                                 "tokens, segments and label")
            out.append(Example(d["tokens"], d["segments"], d["label"]))
    return out
