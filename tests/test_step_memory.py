"""What one small distillation step holds, from ``tools/step_memory.py``.

The tool counts, with ``tracemalloc``, the bytes a 2-2-8 ``train_step``
allocates: those live when its backward starts, and its peak.  At this
geometry (2 layers, d64, FFN 256, batch 32, sequence 16) a step that
keeps float32 fake-quant outputs on its tape, and replays without freeing,
holds 10.0 MiB when the backward starts and peaks at 12.7 MiB.
"""

MIB = 1 << 20


def test_a_small_step_holds_codes_not_float_activations(step_memory):
    seen = step_memory.measure(layers=2, hidden=64, heads=4, ffn=256, vocab=1000,
                               batch=32, seq_len=16)
    assert seen["backward_start"] <= 8.5 * MIB, seen
    assert seen["peak"] <= 11 * MIB, seen
