"""Bit-packed model storage.

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
multi-megabyte blob is copied on either side.  ``scale_count`` and
``blob_nbytes`` are the one rule for a blob's scales and length.  A
``SavedTensor`` is the one description of a tensor: ``save_model`` writes
its manifest record, and ``load_model`` returns one per record, in file
order.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

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
# model files


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


# each key of a manifest record, in the order save_model writes them -> the
# type its value has in the JSON
_RECORD_JSON = {"name": str, "role": str, "bits": int, "method": str, "granularity": str,
                "shape": list, "offset": int, "length": int, "crc32": int}


def scale_count(bits: int, granularity: str, shape: tuple[int, ...]) -> int:
    """Scales stored with a tensor: none at 32 bits, else one per layer or row."""
    return 0 if bits == 32 else 1 if granularity == "layer" else shape[0]


def blob_nbytes(bits: int, granularity: str, shape: tuple[int, ...]) -> int:
    """Bytes of a tensor's blob: 4 per float32 scale, then the codes, which
    every width packs densely into ceil(count * bits / 8) bytes."""
    return 4 * scale_count(bits, granularity, shape) + (math.prod(shape) * bits + 7) // 8


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


def _decode_blob(rec: dict, blob: memoryview) -> SavedTensor:
    """The tensor of manifest record ``rec`` (its keys already checked
    against ``_RECORD_JSON``) from its blob."""
    name, bits, gran, shape = rec["name"], rec["bits"], rec["granularity"], tuple(rec["shape"])
    if bits != 32 and bits not in CODE_WIDTHS:
        raise ModelFileError(f"unsupported bit width {bits} for {name}")
    if bits != 32 and (len(shape) != 2 or gran not in GRANULARITIES):
        raise ManifestError(f"{name}: bad shape {list(shape)} or granularity "
                            f"{gran!r} for a {bits}-bit tensor")
    expected = blob_nbytes(bits, gran, shape)
    if len(blob) != expected:
        raise ManifestError(f"{name}: shape {list(shape)} at {bits} bits "
                            f"needs a {expected}-byte blob, got {len(blob)}")
    if bits == 32:
        arr = np.frombuffer(blob, dtype="<f4").reshape(shape).copy()
        return SavedTensor(name, rec["role"], 32, rec["method"], gran, array=arr)
    n_scales = scale_count(bits, gran, shape)
    scales = np.frombuffer(blob[:4 * n_scales], dtype="<f4").copy()
    max_level, _, unpack_codes = CODE_WIDTHS[bits]
    codes = unpack_codes(blob[4 * n_scales:], math.prod(shape))
    t = TernaryTensor(codes=codes.reshape(shape), scales=scales,
                      granularity=gran, max_level=max_level)
    try:
        t.validate()
    except ValueError as e:
        raise ManifestError(f"{name} at {bits} bits: {e}") from None
    return SavedTensor(name, rec["role"], bits, rec["method"], gran, quant=t)


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
        records.append({"name": entry.name, "role": entry.role, "bits": entry.bits,
                        "method": entry.method, "granularity": entry.granularity,
                        "shape": list(entry.shape), "offset": 0,
                        "length": sum(map(len, parts)), "crc32": crc})
        blobs += parts

    manifest_dict = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "extras": extras or {},
        "tensors": records,
    }
    # the manifest's length depends on the offsets it records: render it
    # with the last offsets until they stop moving
    def render(offsets):
        for r, off in zip(records, offsets):
            r["offset"] = off
        return json.dumps(manifest_dict).encode()

    offsets = [0] * len(records)
    for _ in range(8):
        body = render(offsets)
        new_offsets, pos = [], len(MAGIC) + 4 + len(body)
        for r in records:
            new_offsets.append(pos)
            pos += r["length"]
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
    config: dict
    extras: dict
    tensors: dict[str, SavedTensor]     # in file order


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

    tensors = {}
    end = 8 + mlen              # the blobs tile the rest of the file
    for t in tensor_entries:
        try:
            rec = {key: t[key] for key in _RECORD_JSON}
        except (KeyError, TypeError) as e:
            raise ModelFileError(f"malformed tensor record: {e}") from e
        name = rec["name"]
        if any(type(rec[key]) is not kind for key, kind in _RECORD_JSON.items()) \
                or any(type(n) is not int or n < 0 for n in rec["shape"]) \
                or rec["length"] < 0:
            raise ManifestError(f"malformed record for tensor {name!r}")
        if rec["offset"] != end:
            raise ManifestError(f"blob for {name} starts at {rec['offset']}, not {end}")
        end += rec["length"]
        if end > len(data):
            raise TruncatedFileError(f"blob for {name} extends past end of file")
        if name in tensors:
            raise ModelFileError(f"duplicate tensor {name!r}")
        blob = view[rec["offset"]:end]
        if zlib.crc32(blob) != rec["crc32"]:
            raise ChecksumError(f"checksum mismatch for tensor {name!r}")
        tensors[name] = _decode_blob(rec, blob)
    if end != len(data):
        raise ManifestError(f"{len(data) - end} bytes after the last blob")

    return LoadedModel(config=config, extras=extras, tensors=tensors)
