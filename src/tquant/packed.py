"""Bit-packed model storage and size accounting.

File format ("TQM1"): magic bytes, a little-endian u32 length prefix, a
JSON manifest, then raw per-tensor blobs that tile the rest of the file in
record order: each starts at its recorded offset, where the manifest or
the blob before it ends, and the last ends at the end of the file.  Each
blob is the float32 scale vector followed by the code payload (2-bit
packed, 3-bit packed, raw int8, or raw float32), with a CRC32 checked on
load.  A width of b bits holds the codes -m..m with
m = 2^(b-1) - 1 (``CODE_WIDTHS``).  Save and ``pack`` (``ValueError``) and
load (``ManifestError``) refuse a tensor that fails the one tensor rule,
``TernaryTensor.validate`` at that m: a code outside -m..m, a negative or
non-finite scale, or a zero scale over nonzero codes.

2-bit packing: element k of the row-major flattening occupies bits
(2*(k mod 4)) .. (2*(k mod 4) + 1) of byte floor(k / 4); code 00 is 0,
01 is +1, 10 is -1, and 11 is reserved (rejected on read).  The packers
run in chunks of ``_CHUNK`` codes through two table lookups (code pair to
nibble, nibble pair to byte); unpacking looks up each byte's four codes.

A blob is written as its parts (scales, then codes), with its CRC32
chained over them, and read as a ``memoryview`` slice of the file, so no
multi-megabyte blob is copied on either side.

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
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .ternarize import GRANULARITIES, TernaryTensor

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


class ManifestError(ModelFileError):
    """A manifest record is malformed or disagrees with its blob."""


# ---------------------------------------------------------------------------
# code packing


# the 2-bit field of each int8 code, indexed by the code's byte:
# +1 -> 01, -1 -> 10, anything else -> 00
_FIELD = np.zeros(256, dtype=np.uint8)
_FIELD[1], _FIELD[255] = 1, 2
# two adjacent codes, read as one native-order uint16, to their 4-bit nibble
_PAIRS = np.arange(1 << 16, dtype=np.uint16).view(np.uint8).reshape(-1, 2)
_PACK_PAIR = np.bitwise_or.reduce(_FIELD[_PAIRS] << np.array([0, 2], dtype=np.uint8), axis=1)
# two adjacent nibbles, read the same way, to their packed byte
_PACK_NIBBLES = (_PAIRS[:, 0] & 15) | ((_PAIRS[:, 1] & 15) << 4)
# a packed byte to its four codes, held as one native-order uint32
_UNPACK_BYTE = np.array([[(0, 1, -1, 0)[(b >> s) & 3] for s in (0, 2, 4, 6)]
                         for b in range(256)], dtype=np.int8).view(np.uint32).ravel()
# codes per chunk of the 2-bit packers: a table lookup first turns its
# indices into a temporary of intp, which stays near the CPU caches at this
# size; a multiple of 4, so only the last chunk needs padding
_CHUNK = 1 << 18


def pack_codes_2bit(codes: np.ndarray) -> bytes:
    flat = np.ascontiguousarray(codes, dtype=np.int8).reshape(-1)
    out = np.empty((flat.size + 3) // 4, dtype=np.uint8)
    for s in range(0, flat.size, _CHUNK):
        part = flat[s:s + _CHUNK]
        if part.size % 4:
            part = np.concatenate([part, np.zeros(-part.size % 4, dtype=np.int8)])
        nibbles = np.take(_PACK_PAIR, part.view(np.uint16), mode="clip")
        np.take(_PACK_NIBBLES, nibbles.view(np.uint16), mode="clip",
                out=out[s // 4:(s + part.size) // 4])
    return out.tobytes()


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
    quads = np.empty(raw.size, dtype=np.uint32)
    for s in range(0, raw.size, _CHUNK // 4):
        np.take(_UNPACK_BYTE, raw[s:s + _CHUNK // 4], mode="clip",
                out=quads[s:s + _CHUNK // 4])
    return quads.view(np.int8)[:count]


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


def _unpack_codes_8bit(data: bytes, count: int) -> np.ndarray:
    codes = np.frombuffer(data, dtype=np.int8)[:count].copy()
    if codes.size < count:
        raise TruncatedFileError("8-bit payload shorter than element count")
    return codes


# code width -> (largest code magnitude, packer, unpacker).  The 2- and
# 3-bit entries call their packers by module name, so a wrapper later put
# on that name sees the call.
CODE_WIDTHS = {
    2: (1, lambda codes: pack_codes_2bit(codes),
        lambda data, count: unpack_codes_2bit(data, count)),
    3: (3, lambda codes: pack_codes_3bit(codes),
        lambda data, count: unpack_codes_3bit(data, count)),
    8: (127, lambda codes: np.ascontiguousarray(codes, dtype=np.int8).tobytes(),
        _unpack_codes_8bit),
}


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
    t.validate()
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

    def __str__(self) -> str:
        lines = [f"{'category':24s} {'elements':>12s} {'bits':>14s} {'MiB':>8s}"]
        for c in self.categories:
            lines.append(f"{c.name:24s} {c.elements:12d} {c.bits:14d} "
                         f"{c.bits / 8 / 2**20:8.2f}")
        lines.append(f"{'total':24s} {'':12s} {self.total_bits:14d} {self.total_mb:8.2f}")
        lines.append(f"fp32 reference: {self.fp32_mb:.2f} MiB   "
                     f"ratio: {self.compression_ratio:.1f}x")
        return "\n".join(lines)


def _n_scales(bits: int, granularity: str, shape: tuple[int, ...]) -> int:
    """Scales stored with a tensor: none at 32 bits, else one per layer or row."""
    return 0 if bits == 32 else 1 if granularity == "layer" else shape[0]


def size_report(config, plan, include_task_head: bool = False) -> SizeReport:
    """Bit counts for a ``model.ModelConfig`` coded under a
    ``model.QuantPlan``: every tensor at the bits ``model.tensor_format``
    gives it, plus 32 bits per scale.  The task head counts only when
    ``include_task_head`` is set."""
    from .model import param_shapes, tensor_format
    names = ["transformer_weights", "word_embedding", "segment_embedding",
             "position_embedding", "biases", "layernorm"]
    cats = {n: SizeCategory(n, 0, 0)
            for n in names + (["task_head"] if include_task_head else [])}
    for name, shape in param_shapes(config).items():
        role, bits, _, gran = tensor_format(name, plan)
        if role == "other":
            role = "layernorm" if ".ln" in name else "biases"
        # roles name their size category, but for the plural of the weights
        cat = cats.get("transformer_weights" if role == "transformer_weight" else role)
        if cat is not None:
            cat.elements += math.prod(shape)
            cat.bits += math.prod(shape) * bits + 32 * _n_scales(bits, gran, shape)
    total = sum(c.bits for c in cats.values())
    fp32 = sum(c.elements for c in cats.values()) * 32
    return SizeReport(categories=list(cats.values()), total_bits=total, fp32_bits=fp32)


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


# each TensorRecord field -> the type its value has in the JSON
_RECORD_JSON = {"name": str, "role": str, "bits": int, "method": str, "granularity": str,
                "shape": list, "offset": int, "length": int, "crc32": int}


@dataclass
class ModelManifest:
    config: dict
    records: list[TensorRecord]
    extras: dict = field(default_factory=dict)


@dataclass
class SavedTensor:
    """One tensor of a model file, as written by ``save_model`` and as read
    back by ``load_model``: float32 ``array`` at 32 bits, else ``quant``."""

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


def _encode_blob(entry: SavedTensor) -> list[bytes]:
    """The blob of ``entry`` in parts: the float32 values, or the scales
    then the packed codes; the file holds them back to back."""
    if entry.bits == 32:
        return [np.ascontiguousarray(entry.array, dtype="<f4").tobytes()]
    if entry.bits not in CODE_WIDTHS:
        raise ValueError(f"unsupported bit width {entry.bits}")
    t = entry.quant
    max_level, pack_codes, _ = CODE_WIDTHS[entry.bits]
    try:                        # the tensor as _decode_blob rebuilds it
        TernaryTensor(t.codes, t.scales, entry.granularity, max_level).validate()
    except ValueError as e:
        raise ValueError(f"{entry.name} at {entry.bits} bits: {e}") from None
    return [np.ascontiguousarray(t.scales, dtype="<f4").tobytes(), pack_codes(t.codes)]


def _decode_blob(rec: TensorRecord, blob: memoryview) -> SavedTensor:
    if rec.bits != 32 and rec.bits not in CODE_WIDTHS:
        raise ModelFileError(f"unsupported bit width {rec.bits} for {rec.name}")
    shape = rec.shape
    if rec.bits != 32 and (len(shape) != 2 or rec.granularity not in GRANULARITIES):
        raise ManifestError(f"{rec.name}: bad shape {list(shape)} or granularity "
                            f"{rec.granularity!r} for a {rec.bits}-bit tensor")
    count = math.prod(shape)
    n_scales = _n_scales(rec.bits, rec.granularity, shape)
    # every width packs its codes densely: ceil(count * bits / 8) bytes
    expected = 4 * n_scales + (count * rec.bits + 7) // 8
    if len(blob) != expected:
        raise ManifestError(f"{rec.name}: shape {list(shape)} at {rec.bits} bits "
                            f"needs a {expected}-byte blob, got {len(blob)}")
    if rec.bits == 32:
        arr = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
        return SavedTensor(rec.name, rec.role, 32, rec.method, rec.granularity, array=arr)
    scales = np.frombuffer(blob[:4 * n_scales], dtype="<f4").copy()
    max_level, _, unpack_codes = CODE_WIDTHS[rec.bits]
    codes = unpack_codes(blob[4 * n_scales:], count)
    t = TernaryTensor(codes=codes.reshape(shape), scales=scales,
                      granularity=rec.granularity, max_level=max_level)
    try:
        t.validate()
    except ValueError as e:
        raise ManifestError(f"{rec.name} at {rec.bits} bits: {e}") from None
    return SavedTensor(rec.name, rec.role, rec.bits, rec.method, rec.granularity,
                       quant=t)


def save_model(path: str, config: dict, tensors: list[SavedTensor],
               extras: dict | None = None) -> None:
    """Write a model file atomically."""
    records = []
    blobs = []
    seen = set()
    for entry in tensors:
        if entry.name in seen:
            raise ValueError(f"duplicate tensor name {entry.name!r}")
        seen.add(entry.name)
        parts = _encode_blob(entry)
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        records.append(TensorRecord(entry.name, entry.role, entry.bits, entry.method,
                                    entry.granularity, entry.shape,
                                    length=sum(map(len, parts)), crc32=crc))
        blobs += parts

    manifest_dict = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "extras": extras or {},
    }
    # the manifest's length depends on the offsets it records: render it
    # with the last offsets until they stop moving
    def render(offsets):
        manifest_dict["tensors"] = [{**asdict(r), "offset": off}
                                    for r, off in zip(records, offsets)]
        return json.dumps(manifest_dict).encode()

    offsets = [0] * len(records)
    for _ in range(8):
        body = render(offsets)
        new_offsets, pos = [], len(MAGIC) + 4 + len(body)
        for r in records:
            new_offsets.append(pos)
            pos += r.length
        if new_offsets == offsets:
            break
        offsets = new_offsets
    else:
        raise RuntimeError("manifest offsets failed to stabilize")
    body = render(offsets)

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(body)))
        f.write(body)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)


@dataclass
class LoadedModel:
    manifest: ModelManifest
    tensors: dict[str, SavedTensor]


def load_model(path: str) -> LoadedModel:
    with open(path, "rb") as f:
        data = f.read()
    view = memoryview(data)     # blobs are sliced from it without copies
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
    if not isinstance(manifest_dict, dict):
        raise ManifestError("manifest is not a JSON object")
    version = manifest_dict.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"format version {version} not supported")
    tensor_entries = manifest_dict.get("tensors")
    config = manifest_dict.get("config")
    extras = manifest_dict.get("extras", {})
    if not (isinstance(tensor_entries, list) and isinstance(config, dict)
            and isinstance(extras, dict)):
        raise ManifestError("manifest needs a tensor list, a config object "
                            "and an extras object")

    records, tensors = [], {}
    end = 8 + mlen              # the blobs tile the rest of the file
    for t in tensor_entries:
        try:
            values = {name: t[name] for name in _RECORD_JSON}
        except (KeyError, TypeError) as e:
            raise ModelFileError(f"malformed tensor record: {e}") from e
        if any(type(values[name]) is not kind for name, kind in _RECORD_JSON.items()) \
                or any(type(n) is not int or n < 0 for n in values["shape"]) \
                or values["length"] < 0:
            raise ManifestError(f"malformed record for tensor {values['name']!r}")
        rec = TensorRecord(**{**values, "shape": tuple(values["shape"])})
        if rec.offset != end:
            raise ManifestError(f"blob for {rec.name} starts at {rec.offset}, not {end}")
        end += rec.length
        if end > len(data):
            raise TruncatedFileError(f"blob for {rec.name} extends past end of file")
        if rec.name in tensors:
            raise ModelFileError(f"duplicate tensor {rec.name!r}")
        blob = view[rec.offset:end]
        if zlib.crc32(blob) != rec.crc32:
            raise ChecksumError(f"checksum mismatch for tensor {rec.name!r}")
        tensors[rec.name] = _decode_blob(rec, blob)
        records.append(rec)
    if end != len(data):
        raise ManifestError(f"{len(data) - end} bytes after the last blob")

    manifest = ModelManifest(config=config, records=records, extras=extras)
    return LoadedModel(manifest=manifest, tensors=tensors)
