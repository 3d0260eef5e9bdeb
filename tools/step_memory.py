"""Print what one distillation ``train_step`` holds.

Run it against a source tree::

    PYTHONPATH=<tree>/src python3 tools/step_memory.py [--layers 4 --hidden 128 ...]

The defaults are the geometry of the ``distill-d128`` benchmark workload:
a 2-2-8 student (TWN, layer-wise weights, row-wise embedding, minmax8
activations) distilled on both losses from a seeded teacher that is also
its starting point, on majority-task batches.  After ``WARMUP`` steps
the tool traces one step with ``tracemalloc`` and prints three numbers,
counting only memory the step allocates:

* ``backward_start`` -- bytes live when ``GradTape.gradients`` is entered;
* ``peak`` -- the step's peak;
* ``tape`` -- the ops its tape recorded.

The numbers are allocations, not resident pages, so they are the same on
every host with the same numpy; tier-1 (``tests/test_step_memory.py``)
bounds the peak at a small geometry.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

import numpy as np

from tquant import model, tasks, train
from tquant.tensor import GradTape

MIB = 1 << 20
WARMUP = 2      # steps run before the traced one
SEED = 7


def measure(layers: int = 4, hidden: int = 128, heads: int = 4, ffn: int = 512,
            vocab: int = 1000, batch: int = 32, seq_len: int = 32) -> dict[str, int]:
    """``backward_start`` and ``peak`` bytes and the ``tape`` length of the
    step after ``WARMUP`` steps."""
    classes = tasks.task_classes("majority")
    config = model.ModelConfig(layers=layers, hidden=hidden, heads=heads, ffn=ffn,
                               vocab=vocab, max_positions=seq_len, classes=classes)
    data = tasks.make_majority_dataset(batch * (WARMUP + 1), seq_len=seq_len,
                                       classes=classes, vocab=vocab, seed=SEED)
    tokens, segments, labels = tasks.as_arrays(data)
    teacher = model.init_params(config, np.random.default_rng(SEED))
    plan = model.plan_from_notation("2-2-8", method="twn", w_gran="layer",
                                    e_gran="row", act="minmax")
    state = train.TrainState.create(config, teacher, teacher, plan,
                                    train.OptimizerConfig(lr=1e-3),
                                    loss_cfg=train.DistillLossConfig(True, True),
                                    seed=SEED)

    def step(i):
        b = slice(i * batch, (i + 1) * batch)
        train.train_step(state, tokens[b], segments[b], labels[b])

    for i in range(WARMUP):
        step(i)

    seen = {}
    replay = GradTape.gradients

    def gradients(tape, loss):
        seen["backward_start"] = tracemalloc.get_traced_memory()[0] - base
        seen["tape"] = len(tape)
        return replay(tape, loss)

    GradTape.gradients = gradients
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(WARMUP)
        seen["peak"] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        GradTape.gradients = replay
    return seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for flag, default in (("layers", 4), ("hidden", 128), ("heads", 4), ("ffn", 512),
                          ("vocab", 1000), ("batch", 32), ("seq-len", 32)):
        ap.add_argument(f"--{flag}", type=int, default=default)
    args = ap.parse_args(argv)
    seen = measure(**{k.replace("-", "_"): v for k, v in vars(args).items()})
    for key in ("backward_start", "peak"):
        print(f"{key} {seen[key]} bytes ({seen[key] / MIB:.2f} MiB)")
    print(f"tape {seen['tape']} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
