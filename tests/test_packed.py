import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tquant import cli
from tquant import packed as pk
from tquant import ternarize as tz
from tquant.model import (ModelConfig, QuantPlan, bert_base_config, init_params,
                          load_checkpoint, params_from_loaded, plan_from_notation,
                          save_checkpoint, to_saved_tensors)

from oracles import pack_2bit_reference


def random_ternary(rng, rows=5, cols=7, granularity="row"):
    codes = rng.integers(-1, 2, size=(rows, cols)).astype(np.int8)
    n = 1 if granularity == "layer" else rows
    scales = (rng.random(n).astype(np.float32) + 0.1)
    return tz.TernaryTensor(codes=codes, scales=scales, granularity=granularity)


class TestBitPacking:
    def test_hand_packed_byte(self):
        # element k sits at bits 2*(k%4)..2*(k%4)+1; +1 -> 01, -1 -> 10
        signs = [1, -1, 0, 1]
        packed = pk.pack_codes_2bit(np.array(signs, dtype=np.int8))
        assert packed == pack_2bit_reference(signs)
        assert packed[0] == 0b01_00_10_01

    def test_empty(self):
        t = tz.TernaryTensor(codes=np.zeros((0, 4), dtype=np.int8),
                             scales=np.array([0.0]), granularity="layer")
        blob = pk.pack(t)
        assert blob.data == b""
        assert pk.unpack(blob).codes.shape == (0, 4)

    def test_non_multiple_of_four_round_trip(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-1, 2, size=17).astype(np.int8)
        data = pk.pack_codes_2bit(codes)
        assert len(data) == (17 + 3) // 4
        np.testing.assert_array_equal(pk.unpack_codes_2bit(data, 17), codes)
        # padding bits are zero
        assert (data[-1] >> 2) == 0

    def test_byte_length_invariant(self):
        rng = np.random.default_rng(1)
        for rows, cols in [(1, 1), (3, 5), (8, 8)]:
            t = random_ternary(rng, rows, cols)
            blob = pk.pack(t)
            assert len(blob.data) == (rows * cols + 3) // 4

    def test_reserved_code_rejected(self):
        with pytest.raises(pk.ModelFileError):
            pk.unpack_codes_2bit(b"\xff", 4)

    def test_pack_rejects_codes_outside_the_width(self):
        t = tz.TernaryTensor(codes=np.array([[3, -2, 1, 0]], dtype=np.int8),
                             scales=np.array([1.0]), granularity="layer")
        with pytest.raises(ValueError):
            pk.pack(t)

    def test_pack_rejects_non_ternary(self):
        t = tz.TernaryTensor(codes=np.array([[3]], dtype=np.int8),
                             scales=np.array([1.0]), granularity="layer",
                             max_level=3)
        with pytest.raises(ValueError):
            pk.pack(t)

    @pytest.mark.parametrize("scale", [np.nan, -2.0, 0.0],
                             ids=["nan", "negative", "zero-over-nonzero-codes"])
    def test_pack_rejects_a_scale_a_tqm_cannot_hold(self, scale):
        t = tz.TernaryTensor(codes=np.array([[1, -1], [0, 1]], dtype=np.int8),
                             scales=np.array([scale]), granularity="layer")
        with pytest.raises(ValueError, match="scale"):
            pk.pack(t)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed, n):
        rng = np.random.default_rng(seed)
        codes = rng.integers(-1, 2, size=n).astype(np.int8)
        np.testing.assert_array_equal(
            pk.unpack_codes_2bit(pk.pack_codes_2bit(codes), n), codes)

    @pytest.mark.parametrize("chunk", [pk._CHUNK, 8])
    def test_chunked_2bit_packers_match_the_layout(self, chunk, monkeypatch):
        # every int8 value, over several chunks and a partial last byte;
        # a code outside {-1, 0, 1} packs as 00
        monkeypatch.setattr(pk, "_CHUNK", chunk)
        n = 2 * chunk + 4 * 256 + 3
        codes = np.concatenate([np.arange(-128, 128, dtype=np.int8).repeat(4),
                                np.random.default_rng(3).integers(-128, 128, n - 1024,
                                                                  dtype=np.int8)])
        fields = np.zeros(-(-n // 4) * 4, dtype=np.uint8)
        fields[:n] = (codes == 1) | (codes == -1).astype(np.uint8) << 1
        want = np.bitwise_or.reduce(
            fields.reshape(-1, 4) << np.array([0, 2, 4, 6], dtype=np.uint8), axis=1)
        data = pk.pack_codes_2bit(codes)
        assert data == want.tobytes()
        np.testing.assert_array_equal(pk.unpack_codes_2bit(data, n),
                                      np.where(np.abs(codes.astype(int)) <= 1, codes, 0))

    def test_3bit_round_trip(self):
        rng = np.random.default_rng(2)
        for n in (1, 7, 8, 33):
            codes = rng.integers(-3, 4, size=n).astype(np.int8)
            data = pk.pack_codes_3bit(codes)
            assert len(data) == (3 * n + 7) // 8
            np.testing.assert_array_equal(pk.unpack_codes_3bit(data, n), codes)


MICRO = ModelConfig(layers=2, hidden=8, heads=2, ffn=16, vocab=12,
                    max_positions=8, classes=3)


class TestSizeReport:
    def test_bert_base_fp32(self):
        report = pk.size_report(bert_base_config(), QuantPlan(32, 32, 32))
        assert abs(report.total_mb - 418) / 418 < 0.03

    def test_bert_base_2_2_8(self):
        report = pk.size_report(bert_base_config(), plan_from_notation("2-2-8"))
        assert abs(report.total_mb - 28) / 28 < 0.05
        assert abs(report.compression_ratio - 14.9) / 14.9 < 0.05

    def test_degenerate_zero_layers(self):
        config = ModelConfig(layers=0, hidden=4, heads=2, ffn=8, vocab=10,
                             segments=2, max_positions=6, classes=2)
        report = pk.size_report(config, QuantPlan(32, 32, 32))
        # embeddings (10+2+6)*4 plus the embedding layer norm 2*4
        assert report.total_bits == ((10 + 2 + 6) * 4 + 8) * 32

    def test_plan_monotonicity(self):
        cfg = MICRO
        t2 = pk.size_report(cfg, plan_from_notation("2-2-8")).total_bits
        t8 = pk.size_report(cfg, plan_from_notation("8-8-8", e_gran="layer")).total_bits
        t32 = pk.size_report(cfg, QuantPlan(32, 32, 32)).total_bits
        assert t2 < t8 < t32

    def test_totals_additive(self):
        report = pk.size_report(MICRO, plan_from_notation("2-2-8"))
        assert report.total_bits == sum(c.bits for c in report.categories)

    def test_task_head_optional(self):
        with_head = pk.size_report(MICRO, QuantPlan(32, 32, 32),
                                   include_task_head=True)
        without = pk.size_report(MICRO, QuantPlan(32, 32, 32))
        assert with_head.total_bits > without.total_bits


@pytest.mark.parametrize("notation,w_gran", [
    ("2-2-8", "layer"), ("2-2-8", "row"), ("3-3-8", None), ("8-8-8", None)])
def test_size_report_matches_the_written_file(tmp_path, notation, w_gran):
    # the report counts bits, the file rounds each blob up to whole bytes
    plan = plan_from_notation(notation, w_gran=w_gran)
    save_checkpoint(tmp_path / "m.tqm", MICRO,
                    init_params(MICRO, np.random.default_rng(0)), plan)
    records = pk.load_model(str(tmp_path / "m.tqm")).manifest.records
    report = pk.size_report(MICRO, plan, include_task_head=True)
    slack = 8 * sum(r.length for r in records) - report.total_bits
    assert 0 <= slack < 8 * len(records)


@pytest.mark.parametrize("gran", tz.GRANULARITIES)
@pytest.mark.parametrize("method", sorted(tz.METHODS))
def test_quantizer_output_survives_a_tqm_round_trip(method, gran, tmp_path):
    """A quantizer returns only what a .tqm keeps: every field reads back equal."""
    rng = np.random.default_rng(21)
    w = rng.standard_normal((6, 10)).astype(np.float32)
    w[2] = 0.0                              # an all-zero row: a zero scale
    t = tz.quantize(w, method, gran, rng.random((6, 10)))
    path = str(tmp_path / "w.tqm")
    bits = tz.METHODS[method][0]
    pk.save_model(path, {}, [pk.SavedTensor("w", "transformer_weight", bits, method,
                                            gran, quant=t)])
    got = pk.load_model(path).tensors["w"].quant
    for f in dataclasses.fields(tz.TernaryTensor):
        want, have = getattr(t, f.name), getattr(got, f.name)
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), f.name
        else:
            assert have == want, f.name


class TestModelFiles:
    def _save_micro(self, tmp_path, plan=None, seed=0):
        rng = np.random.default_rng(seed)
        params = init_params(MICRO, rng)
        tensors = to_saved_tensors(params, plan)
        path = tmp_path / "model.tqm"
        pk.save_model(str(path), MICRO.to_dict(), tensors, extras={"seed": seed})
        return path, params

    def test_float_round_trip_bit_exact(self, tmp_path):
        path, params = self._save_micro(tmp_path)
        loaded = pk.load_model(str(path))
        got, _ = params_from_loaded(loaded.tensors, MICRO)
        for name, arr in params.items():
            np.testing.assert_array_equal(got[name], arr)

    def test_ternary_round_trip_bit_exact(self, tmp_path):
        plan = plan_from_notation("2-2-8")
        path, params = self._save_micro(tmp_path, plan=plan)
        loaded = pk.load_model(str(path))
        got, qinfo = params_from_loaded(loaded.tensors, MICRO)
        from tquant.model import quantize_param
        for name in params:
            q = quantize_param(name, params[name], plan)
            if q is None:
                np.testing.assert_array_equal(got[name], params[name])
            else:
                np.testing.assert_array_equal(qinfo[name].codes, q.codes)
                np.testing.assert_array_equal(qinfo[name].scales, q.scales)

    def test_corrupt_byte_checksum_error_names_tensor(self, tmp_path):
        path, _ = self._save_micro(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(pk.ChecksumError) as err:
            pk.load_model(str(path))
        assert any(name in str(err.value) for name in
                   ("layer", "emb", "head"))

    def test_empty_file_truncation_error(self, tmp_path):
        path = tmp_path / "empty.tqm"
        path.write_bytes(b"")
        with pytest.raises(pk.TruncatedFileError):
            pk.load_model(str(path))

    def test_truncated_blob(self, tmp_path):
        path, _ = self._save_micro(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 8])
        with pytest.raises(pk.TruncatedFileError):
            pk.load_model(str(path))

    def test_bad_magic(self, tmp_path):
        path, _ = self._save_micro(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(pk.FormatVersionError):
            pk.load_model(str(path))

    def test_bad_version(self, tmp_path):
        path, _ = self._save_micro(tmp_path)
        data = path.read_bytes()
        body = data[8:].replace(b'"format_version": 1', b'"format_version": 9', 1)
        import struct as st_
        (mlen,) = st_.unpack("<I", data[4:8])
        # same-length replacement keeps offsets valid
        path.write_bytes(data[:8] + body)
        with pytest.raises(pk.FormatVersionError):
            pk.load_model(str(path))

    def test_overlapping_offsets_rejected(self, tmp_path):
        import json
        import struct
        import zlib
        blob = np.zeros(4, dtype="<f4").tobytes()
        body = {
            "format_version": pk.FORMAT_VERSION, "config": {}, "extras": {},
            "tensors": [
                {"name": "a", "role": "other", "bits": 32, "method": "none",
                 "granularity": "layer", "shape": [4], "offset": 0,
                 "length": len(blob), "crc32": zlib.crc32(blob)},
                {"name": "b", "role": "other", "bits": 32, "method": "none",
                 "granularity": "layer", "shape": [4], "offset": 0,
                 "length": len(blob), "crc32": zlib.crc32(blob)},
            ],
        }
        enc = json.dumps(body).encode()
        base = 8 + len(enc)
        for t in body["tensors"]:
            t["offset"] = base          # both point at the same span
        enc = json.dumps(body).encode()
        path = tmp_path / "overlap.tqm"
        path.write_bytes(pk.MAGIC + struct.pack("<I", len(enc)) + enc + blob)
        with pytest.raises(pk.ModelFileError):
            pk.load_model(str(path))

    def test_malformed_manifest_is_model_file_error(self, tmp_path):
        import struct
        enc = b'{"format_version": 1, "config": {}}'
        path = tmp_path / "nokeys.tqm"
        path.write_bytes(pk.MAGIC + struct.pack("<I", len(enc)) + enc)
        with pytest.raises(pk.ModelFileError):
            pk.load_model(str(path))

    @pytest.mark.parametrize("manifest", [
        [1, 2],
        {"format_version": 1, "config": {}, "extras": {}, "tensors": 5},
        {"format_version": 1, "config": {}, "extras": [1], "tensors": []},
        {"format_version": 1, "config": [1], "extras": {}, "tensors": []},
        {"format_version": 1, "extras": {}, "tensors": []},
    ], ids=["array", "tensors-int", "extras-array", "config-array", "no-config"])
    def test_top_level_types_are_manifest_errors(self, tmp_path, manifest):
        import json
        import struct
        enc = json.dumps(manifest).encode()
        path = tmp_path / "top.tqm"
        path.write_bytes(pk.MAGIC + struct.pack("<I", len(enc)) + enc)
        with pytest.raises(pk.ManifestError):
            pk.load_model(str(path))

    def test_duplicate_names_rejected_on_save(self, tmp_path):
        arr = np.ones((2, 2), dtype=np.float32)
        tensors = [pk.SavedTensor(name="a", role="other", bits=32, array=arr),
                   pk.SavedTensor(name="a", role="other", bits=32, array=arr)]
        with pytest.raises(ValueError):
            pk.save_model(str(tmp_path / "dup.tqm"), {}, tensors)

    def test_unsupported_width_rejected_on_save(self, tmp_path):
        t = tz.TernaryTensor(codes=np.array([[1, -1]], dtype=np.int8),
                             scales=np.array([0.5]), granularity="layer", max_level=7)
        path = tmp_path / "4bit.tqm"
        with pytest.raises(ValueError, match="bit width 4"):
            pk.save_model(str(path), {}, [pk.SavedTensor("w", "other", 4, "twn_approx",
                                                         "layer", quant=t)])
        assert not path.exists()

    @pytest.mark.parametrize("bits,bad,extremes", [
        (2, [3, -2, 1, 0], [1, -1, 0, 1]),
        (3, [5, -7, 1, 0], [3, -3, 0, 2]),
        (8, [-128, 0, 1, 0], [127, -127, 0, 5])])
    def test_codes_outside_the_width_rejected_on_save(self, bits, bad, extremes,
                                                      tmp_path):
        def entry(codes):
            t = tz.TernaryTensor(codes=np.array([codes], dtype=np.int8),
                                 scales=np.array([0.5]), granularity="layer",
                                 max_level=127)
            return pk.SavedTensor(name="w", role="other", bits=bits,
                                  granularity="layer", quant=t)

        path = tmp_path / "codes.tqm"
        with pytest.raises(ValueError):
            pk.save_model(str(path), {}, [entry(bad)])
        assert not path.exists()
        pk.save_model(str(path), {}, [entry(extremes)])
        loaded = pk.load_model(str(path)).tensors["w"].quant
        np.testing.assert_array_equal(loaded.codes, [extremes])

    # (bits, granularity, codes, scales) the writer refuses and the reader
    # refuses: a code past the width that the width's bytes can hold (int8
    # -128), a negative or non-finite scale, a zero scale over nonzero codes
    BAD_TENSORS = {
        "code -128": (8, "layer", [[-128, 0, 1, 0]], [0.5]),
        "negative scale": (2, "layer", [[1, -1]], [-1.0]),
        "NaN scale": (2, "layer", [[1, -1]], [np.nan]),
        "infinite scale": (8, "row", [[5, 0], [1, 1]], [0.5, np.inf]),
        "zero layer scale": (2, "layer", [[1, -1]], [0.0]),
        "zero row scale": (3, "row", [[0, 0], [2, 0], [1, 0]], [0.0, 0.0, 1.0]),
    }

    @staticmethod
    def _bad_entry(bits, gran, codes, scales):
        t = tz.TernaryTensor(codes=np.array(codes, dtype=np.int8),
                             scales=np.array(scales), granularity=gran, max_level=127)
        return pk.SavedTensor("w", "transformer_weight", bits, "twn_approx", gran,
                              quant=t)

    @pytest.mark.parametrize("case", sorted(BAD_TENSORS))
    def test_writer_refuses_what_the_reader_refuses(self, case, tmp_path):
        path = tmp_path / "bad.tqm"
        with pytest.raises(ValueError, match="w at"):
            pk.save_model(str(path), {}, [self._bad_entry(*self.BAD_TENSORS[case])])
        assert not path.exists()

    @pytest.mark.parametrize("case", sorted(BAD_TENSORS))
    def test_crafted_bad_tensor_is_a_manifest_error(self, case, tmp_path, monkeypatch):
        # a file as a writer without the check would have written it
        path = tmp_path / "bad.tqm"
        with monkeypatch.context() as m:
            m.setattr(tz.TernaryTensor, "validate", lambda self: None)
            pk.save_model(str(path), {}, [self._bad_entry(*self.BAD_TENSORS[case])])
        with pytest.raises(pk.ManifestError, match="w at"):
            pk.load_model(str(path))
        assert cli.main(["inspect", str(path), "--out", str(tmp_path)]) == cli.EXIT_IO

    def test_reserved_3bit_code_in_a_file_rejected(self, tmp_path, monkeypatch):
        # code 4 packs to 111; the blob is the writer's, so its CRC matches
        path = tmp_path / "reserved.tqm"
        with monkeypatch.context() as m:
            m.setattr(tz.TernaryTensor, "validate", lambda self: None)
            pk.save_model(str(path), {}, [self._bad_entry(3, "layer", [[4, 0]], [0.5])])
        with pytest.raises(pk.ModelFileError, match="reserved 3-bit code"):
            pk.load_model(str(path))

    @pytest.mark.parametrize("seed", [0, 7, 123, 99991])
    def test_round_trip_random_models(self, seed, tmp_path):
        plan = plan_from_notation("2-2-8")
        rng = np.random.default_rng(seed)
        params = init_params(MICRO, rng)
        path = tmp_path / f"m{seed}.tqm"
        pk.save_model(str(path), MICRO.to_dict(), to_saved_tensors(params, plan))
        loaded = pk.load_model(str(path))
        again = tmp_path / f"m{seed}b.tqm"
        got, _ = params_from_loaded(loaded.tensors, MICRO)
        pk.save_model(str(again), MICRO.to_dict(), to_saved_tensors(got, None))
        reloaded = pk.load_model(str(again))
        got2, _ = params_from_loaded(reloaded.tensors, MICRO)
        for name in got:
            np.testing.assert_array_equal(got[name], got2[name])

    def test_byte_mutants_raise_only_model_file_errors(self, tmp_path):
        # 1200 seeded mutants of a 2-2-8 checkpoint: a load, with the
        # config, tensor set and plan checks of load_checkpoint, either
        # succeeds or raises a ModelFileError subclass, never anything else
        import struct
        path = tmp_path / "model.tqm"
        save_checkpoint(path, MICRO, init_params(MICRO, np.random.default_rng(0)),
                        plan_from_notation("2-2-8"), extras={"seed": 0})
        data = path.read_bytes()
        (mlen,) = struct.unpack("<I", data[4:8])
        digits = [i for i in range(8, 8 + mlen) if chr(data[i]).isdigit()]
        rng = np.random.default_rng(2024)
        mutant_path = tmp_path / "mutant.tqm"
        for i in range(1200):
            mutant = bytearray(data)
            kind = i % 4
            if kind == 0:                   # flip bits anywhere
                for pos in rng.integers(0, len(data), rng.integers(1, 4)):
                    mutant[pos] ^= int(rng.integers(1, 256))
            elif kind == 1:                 # truncate
                del mutant[int(rng.integers(0, len(data))):]
            elif kind == 2:                 # flip bits in the header or manifest
                pos = int(rng.integers(0, 8 + mlen))
                mutant[pos] ^= 1 << int(rng.integers(0, 8))
            else:                           # rewrite a manifest digit: JSON stays valid
                pos = digits[int(rng.integers(0, len(digits)))]
                mutant[pos] = ord("0123456789"[int(rng.integers(0, 10))])
            mutant_path.write_bytes(bytes(mutant))
            try:
                load_checkpoint(mutant_path)
            except pk.ModelFileError:
                pass
