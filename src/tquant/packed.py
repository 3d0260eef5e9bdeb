"""Bit-packed model storage and size accounting.

File format ("TQM1"): magic bytes, a little-endian u32 length prefix, a
JSON manifest, then raw per-tensor blobs at the offsets recorded in the
manifest.  Each blob is the float32 scale vector followed by the code
payload (2-bit packed, 3-bit packed, raw int8, or raw float32), with a
CRC32 checked on load.

2-bit packing: element k of the row-major flattening occupies bits
(2*(k mod 4)) .. (2*(k mod 4) + 1) of byte floor(k / 4); code 00 is 0,
01 is +1, 10 is -1, and 11 is reserved (rejected on read).

Size accounting mirrors the published model-size arithmetic: quantized
transformer weights and word embedding count ``bits`` per element plus 32
bits per scale; segment/position embeddings, biases and layer-norm
parameters stay at 32 bits.  Reported megabytes are MiB, and the task
head is excluded unless asked for, which is the convention under which a
full-precision BERT-base comes out at ~418 MB and the 2-2-8 plan at
~28 MB (14.9x).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .ternarize import TernaryTensor

MAGIC = b"TQM1"
FORMAT_VERSION = 1


class ModelFileError(Exception):
    """Base class for model-file load failures."""


class FormatVersionError(ModelFileError):
    pass


class TruncatedFileError(ModelFileError):
    pass


class ChecksumError(ModelFileError):
    pass


# ---------------------------------------------------------------------------
# code packing


# the 2-bit field of each int8 code, indexed by the code's byte:
# +1 -> 01, -1 -> 10, anything else -> 00
_FIELD = np.zeros(256, dtype=np.uint8)
_FIELD[1], _FIELD[255] = 1, 2
# two adjacent codes, read as one native-order uint16, to their 4-bit nibble
_PACK_PAIR = np.bitwise_or.reduce(
    _FIELD[np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)]
    << np.array([0, 2], dtype=np.uint8), axis=1)
# a packed byte to its four codes, held as one native-order uint32
_UNPACK_BYTE = np.array([[(0, 1, -1, 0)[(b >> s) & 3] for s in (0, 2, 4, 6)]
                         for b in range(256)], dtype=np.int8).view(np.uint32).ravel()


def pack_codes_2bit(codes: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(codes, dtype=np.int8).reshape(-1)
    pad = (-flat.size) % 4
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.int8)])
    nibbles = _PACK_PAIR[flat.view(np.uint16)].reshape(-1, 2)
    return (nibbles[:, 0] | (nibbles[:, 1] << 4)).tobytes()


def unpack_codes_2bit(data: bytes, count: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size * 4 < count:
        raise TruncatedFileError("2-bit payload shorter than element count")
    raw = raw[:(count + 3) // 4]
    # a field is the reserved 11 when both its bits are set; the fields of
    # the last byte past ``count`` are padding and go unchecked
    reserved = raw & (raw >> 1) & 0x55
    if count % 4:
        reserved[-1] &= (1 << 2 * (count % 4)) - 1
    if reserved.any():
        raise ModelFileError("reserved 2-bit code 11 present")
    return _UNPACK_BYTE[raw].view(np.int8)[:count]


def pack_codes_3bit(codes: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(codes, dtype=np.int8).reshape(-1)
    vals = (flat.astype(np.int16) + 3).astype(np.uint8)  # 0..6
    bits = np.stack([(vals >> 2) & 1, (vals >> 1) & 1, vals & 1], axis=1).reshape(-1)
    return np.packbits(bits).tobytes()


def unpack_codes_3bit(data: bytes, count: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(raw)
    if bits.size < 3 * count:
        raise TruncatedFileError("3-bit payload shorter than element count")
    trip = bits[:3 * count].reshape(-1, 3)
    vals = trip[:, 0] * 4 + trip[:, 1] * 2 + trip[:, 2]
    if np.any(vals > 6):
        raise ModelFileError("reserved 3-bit code present")
    return (vals.astype(np.int16) - 3).astype(np.int8)


@dataclass
class PackedTernaryBlob:
    """Ternary codes packed four-per-byte plus the scale vector."""

    rows: int
    cols: int
    data: bytes
    scales: np.ndarray
    granularity: str

    def __post_init__(self):
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32)


def pack(t: TernaryTensor) -> PackedTernaryBlob:
    if t.max_level != 1:
        raise ValueError("2-bit packing holds ternary codes only")
    rows, cols = t.codes.shape
    return PackedTernaryBlob(rows=rows, cols=cols, data=pack_codes_2bit(t.codes),
                             scales=t.scales.copy(), granularity=t.granularity)


def unpack(blob: PackedTernaryBlob) -> TernaryTensor:
    codes = unpack_codes_2bit(blob.data, blob.rows * blob.cols)
    return TernaryTensor(codes=codes.reshape(blob.rows, blob.cols),
                         scales=blob.scales.copy(), granularity=blob.granularity)


# ---------------------------------------------------------------------------
# size accounting


@dataclass
class SizeCategory:
    name: str
    elements: int
    bits: int


@dataclass
class SizeReport:
    categories: list[SizeCategory]
    total_bits: int
    fp32_bits: int

    @property
    def total_mb(self) -> float:
        return self.total_bits / 8 / 2**20

    @property
    def fp32_mb(self) -> float:
        return self.fp32_bits / 8 / 2**20

    @property
    def compression_ratio(self) -> float:
        return self.fp32_bits / self.total_bits

    def to_dict(self) -> dict:
        return {
            "kind": "size_report",
            "categories": [{"name": c.name, "elements": c.elements, "bits": c.bits}
                           for c in self.categories],
            "total_bits": self.total_bits,
            "total_mb": self.total_mb,
            "fp32_mb": self.fp32_mb,
            "compression_ratio": self.compression_ratio,
        }

    def __str__(self) -> str:
        lines = [f"{'category':24s} {'elements':>12s} {'bits':>14s} {'MiB':>8s}"]
        for c in self.categories:
            lines.append(f"{c.name:24s} {c.elements:12d} {c.bits:14d} "
                         f"{c.bits / 8 / 2**20:8.2f}")
        lines.append(f"{'total':24s} {'':12s} {self.total_bits:14d} {self.total_mb:8.2f}")
        lines.append(f"fp32 reference: {self.fp32_mb:.2f} MiB   "
                     f"ratio: {self.compression_ratio:.1f}x")
        return "\n".join(lines)


def _transformer_row_scales(config) -> int:
    # weights are stored (out, in): q/k/v/o have d rows, w1 has d_ff, w2 has d
    return config.layers * (5 * config.hidden + config.ffn)


def size_report(config, plan, include_task_head: bool = False) -> SizeReport:
    """Bit counts for a model under a quantization plan.

    ``config`` needs layers/hidden/ffn/vocab/segments/max_positions/classes;
    ``plan`` needs w_bits/e_bits/w_gran/e_gran.
    """
    d, dff, L = config.hidden, config.ffn, config.layers
    trans_elems = L * (4 * d * d + 2 * d * dff)
    word_elems = config.vocab * d
    seg_elems = config.segments * d
    pos_elems = config.max_positions * d
    bias_elems = L * (4 * d + dff + d)
    ln_elems = L * 4 * d + 2 * d
    head_elems = config.classes * d + config.classes if include_task_head else 0

    def quant_bits(elems: int, bits: int, n_scales: int) -> int:
        if bits == 32:
            return elems * 32
        return elems * bits + n_scales * 32

    w_scales = (6 * L if plan.w_gran == "layer" else _transformer_row_scales(config))
    e_scales = (1 if plan.e_gran == "layer" else config.vocab)

    cats = [
        SizeCategory("transformer_weights", trans_elems,
                     quant_bits(trans_elems, plan.w_bits, w_scales)),
        SizeCategory("word_embedding", word_elems,
                     quant_bits(word_elems, plan.e_bits, e_scales)),
        SizeCategory("segment_embedding", seg_elems, seg_elems * 32),
        SizeCategory("position_embedding", pos_elems, pos_elems * 32),
        SizeCategory("biases", bias_elems, bias_elems * 32),
        SizeCategory("layernorm", ln_elems, ln_elems * 32),
    ]
    if include_task_head:
        cats.append(SizeCategory("task_head", head_elems, head_elems * 32))
    total = sum(c.bits for c in cats)
    fp32 = sum(c.elements for c in cats) * 32
    return SizeReport(categories=cats, total_bits=total, fp32_bits=fp32)


# ---------------------------------------------------------------------------
# model files


@dataclass
class TensorRecord:
    name: str
    role: str
    bits: int
    method: str
    granularity: str
    shape: tuple[int, ...]
    offset: int = 0
    length: int = 0
    crc32: int = 0


@dataclass
class ModelManifest:
    config: dict
    records: list[TensorRecord]
    extras: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION


@dataclass
class LoadedTensor:
    role: str
    bits: int
    method: str
    granularity: str
    array: np.ndarray | None = None        # fp32 tensors
    quant: TernaryTensor | None = None     # quantized tensors


def _encode_blob(entry: "SavedTensor") -> bytes:
    if entry.bits == 32:
        scales = b""
        payload = np.ascontiguousarray(entry.array, dtype="<f4").tobytes()
    else:
        t = entry.quant
        scales = np.ascontiguousarray(t.scales, dtype="<f4").tobytes()
        if entry.bits == 2:
            payload = pack_codes_2bit(t.codes)
        elif entry.bits == 3:
            payload = pack_codes_3bit(t.codes)
        elif entry.bits == 8:
            payload = np.ascontiguousarray(t.codes, dtype=np.int8).tobytes()
        else:
            raise ValueError(f"unsupported bit width {entry.bits}")
    return scales + payload


def _decode_blob(rec: TensorRecord, blob: bytes) -> LoadedTensor:
    if rec.bits == 32:
        arr = np.frombuffer(blob, dtype="<f4").reshape(rec.shape).copy()
        return LoadedTensor(rec.role, 32, rec.method, rec.granularity, array=arr)
    rows, cols = rec.shape
    n_scales = 1 if rec.granularity == "layer" else rows
    scale_bytes = n_scales * 4
    if len(blob) < scale_bytes:
        raise TruncatedFileError(f"blob for {rec.name} too short for scales")
    scales = np.frombuffer(blob[:scale_bytes], dtype="<f4").copy()
    payload = blob[scale_bytes:]
    if rec.bits == 2:
        codes = unpack_codes_2bit(payload, rows * cols)
        max_level = 1
    elif rec.bits == 3:
        codes = unpack_codes_3bit(payload, rows * cols)
        max_level = 3
    elif rec.bits == 8:
        codes = np.frombuffer(payload, dtype=np.int8)[:rows * cols].copy()
        if codes.size < rows * cols:
            raise TruncatedFileError(f"blob for {rec.name} too short")
        max_level = 127
    else:
        raise ModelFileError(f"unsupported bit width {rec.bits} for {rec.name}")
    t = TernaryTensor(codes=codes.reshape(rows, cols), scales=scales,
                      granularity=rec.granularity, max_level=max_level)
    return LoadedTensor(rec.role, rec.bits, rec.method, rec.granularity, quant=t)


@dataclass
class SavedTensor:
    name: str
    role: str
    bits: int
    method: str = "none"
    granularity: str = "layer"
    array: np.ndarray | None = None
    quant: TernaryTensor | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        if self.bits == 32:
            return tuple(self.array.shape)
        return tuple(self.quant.codes.shape)


def save_model(path: str, config: dict, tensors: list[SavedTensor],
               extras: dict | None = None) -> ModelManifest:
    """Write a model file atomically; returns the manifest that was written."""
    records = []
    blobs = []
    seen = set()
    for entry in tensors:
        if entry.name in seen:
            raise ValueError(f"duplicate tensor name {entry.name!r}")
        seen.add(entry.name)
        blob = _encode_blob(entry)
        records.append(TensorRecord(
            name=entry.name, role=entry.role, bits=entry.bits,
            method=entry.method, granularity=entry.granularity,
            shape=entry.shape, length=len(blob), crc32=zlib.crc32(blob)))
        blobs.append(blob)

    manifest_dict = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "extras": extras or {},
        "tensors": [],
    }
    # two-pass offset computation: manifest length depends on the offsets,
    # so compute with placeholder offsets of fixed width
    def render(offsets):
        manifest_dict["tensors"] = [
            {"name": r.name, "role": r.role, "bits": r.bits, "method": r.method,
             "granularity": r.granularity, "shape": list(r.shape),
             "offset": off, "length": r.length, "crc32": r.crc32}
            for r, off in zip(records, offsets)]
        return json.dumps(manifest_dict).encode()

    offsets = [0] * len(records)
    for _ in range(8):
        body = render(offsets)
        base = len(MAGIC) + 4 + len(body)
        new_offsets = []
        pos = base
        for r in records:
            new_offsets.append(pos)
            pos += r.length
        if new_offsets == offsets:
            break
        offsets = new_offsets
    else:
        raise RuntimeError("manifest offsets failed to stabilize")
    body = render(offsets)
    for r, off in zip(records, offsets):
        r.offset = off

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(body)))
        f.write(body)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)
    return ModelManifest(config=config, records=records, extras=extras or {})


@dataclass
class LoadedModel:
    manifest: ModelManifest
    tensors: dict[str, LoadedTensor]


def load_model(path: str) -> LoadedModel:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 4:
        raise TruncatedFileError("file too short for header")
    if data[:4] != MAGIC:
        raise FormatVersionError("bad magic; not a TQM model file")
    (mlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + mlen:
        raise TruncatedFileError("file too short for manifest")
    try:
        manifest_dict = json.loads(data[8:8 + mlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFileError(f"manifest is not valid JSON: {e}") from e
    version = manifest_dict.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"format version {version} not supported")

    records = []
    spans = []
    try:
        tensor_entries = manifest_dict["tensors"]
    except KeyError as e:
        raise ModelFileError("manifest has no tensor table") from e
    for t in tensor_entries:
        try:
            rec = TensorRecord(name=t["name"], role=t["role"], bits=t["bits"],
                               method=t["method"], granularity=t["granularity"],
                               shape=tuple(t["shape"]), offset=t["offset"],
                               length=t["length"], crc32=t["crc32"])
        except (KeyError, TypeError) as e:
            raise ModelFileError(f"malformed tensor record: {e}") from e
        if rec.offset + rec.length > len(data):
            raise TruncatedFileError(f"blob for {rec.name} extends past end of file")
        spans.append((rec.offset, rec.offset + rec.length, rec.name))
        records.append(rec)
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ModelFileError(f"blobs {n0} and {n1} overlap")

    tensors = {}
    names = set()
    for rec in records:
        if rec.name in names:
            raise ModelFileError(f"duplicate tensor {rec.name!r}")
        names.add(rec.name)
        blob = data[rec.offset:rec.offset + rec.length]
        if zlib.crc32(blob) != rec.crc32:
            raise ChecksumError(f"checksum mismatch for tensor {rec.name!r}")
        tensors[rec.name] = _decode_blob(rec, blob)

    manifest = ModelManifest(config=manifest_dict["config"], records=records,
                             extras=manifest_dict.get("extras", {}))
    return LoadedModel(manifest=manifest, tensors=tensors)
