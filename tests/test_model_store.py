"""Model files: packing, round trips, corruption handling, size law."""

import numpy as np
import pytest

from quantdistill.errors import DomainError, FormatError, StateError
from quantdistill.graph import (
    build_embedding_net,
    forward_embed,
    net_fingerprint,
    observe_activations,
)
from quantdistill.model_store import (
    load_model,
    net_size_report,
    pack_codes,
    packed_code_bytes,
    save_model,
    size_report,
    unpack_codes,
)
from quantdistill.quantizer import RangeObserver
from quantdistill.tensor_core import Tensor


def _calibrated_net(bits=8, seed=0):
    net = build_embedding_net(6, (16,), 4, seed=seed)
    net.set_quantization(bits)
    rng = np.random.default_rng(seed + 1)
    observers = [RangeObserver() for _ in range(net.activation_site_count)]
    for _ in range(4):
        observe_activations(net, Tensor(rng.standard_normal((8, 6)).astype(np.float32)),
                            observers)
    net.activation_params = [o.freeze(bits) for o in observers]
    return net


class TestCodePacking:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    @pytest.mark.parametrize("count", [1, 2, 7, 16, 100, 4096])
    def test_round_trip(self, bits, count):
        rng = np.random.default_rng(bits * 1000 + count)
        codes = rng.integers(-(1 << (bits - 1)), (1 << (bits - 1)), size=count).astype(np.int32)
        blob = pack_codes(codes, bits)
        assert len(blob) == packed_code_bytes(count, bits)
        assert np.array_equal(unpack_codes(blob, count, bits), codes)

    def test_packed_density(self):
        # 6-bit codes really occupy 6 bits: 4 codes -> 3 bytes
        codes = np.array([-32, 0, 31, 5], dtype=np.int32)
        assert len(pack_codes(codes, 6)) == 3

    def test_overflow_rejected(self):
        with pytest.raises(DomainError):
            pack_codes(np.array([8], dtype=np.int32), 4)


class TestSaveLoadFp32:
    def test_round_trip_preserves_forward(self, tmp_path):
        net = build_embedding_net(6, (16,), 4, seed=2)
        path = tmp_path / "net.qfmd"
        save_model(net, path, mode="fp32")
        back = load_model(path)
        x = Tensor(np.random.default_rng(3).standard_normal((5, 6)).astype(np.float32))
        a, _ = forward_embed(net, x, quantized=False)
        b, _ = forward_embed(back, x, quantized=False)
        assert np.array_equal(a.data, b.data)
        assert net_fingerprint(back) == net_fingerprint(net)

    def test_fp_file_loads_into_fp_mode(self, tmp_path):
        net = _calibrated_net()
        path = tmp_path / "net.qfmd"
        save_model(net, path, mode="fp32")
        back = load_model(path)
        assert back.quant_bits is None
        assert back.activation_params is None

    def test_deterministic_bytes(self, tmp_path):
        net = build_embedding_net(6, (16,), 4, seed=2)
        p1, p2 = tmp_path / "a.qfmd", tmp_path / "b.qfmd"
        save_model(net, p1, mode="fp32")
        save_model(net, p2, mode="fp32")
        assert p1.read_bytes() == p2.read_bytes()


class TestSaveLoadQuantized:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_round_trip_forward_bit_exact(self, bits, tmp_path):
        net = _calibrated_net(bits=bits)
        path = tmp_path / "net.qfmd"
        save_model(net, path, mode="quantized")
        back = load_model(path)
        assert back.quant_bits == bits
        assert back.frozen_weight_params is not None
        assert back.activation_params == net.activation_params
        assert all(type(p.scale) is float and type(p.zero_point) is int
                   for p in back.activation_params)
        x = Tensor(np.random.default_rng(5).standard_normal((7, 6)).astype(np.float32))
        a, _ = forward_embed(net, x, quantized=True)
        b, _ = forward_embed(back, x, quantized=True)
        assert np.array_equal(a.data, b.data)

    def test_second_save_identical_bytes(self, tmp_path):
        net = _calibrated_net()
        p1, p2 = tmp_path / "a.qfmd", tmp_path / "b.qfmd"
        save_model(net, p1, mode="quantized")
        back = load_model(p1)
        save_model(back, p2, mode="quantized")
        assert p1.read_bytes() == p2.read_bytes()

    def test_uncalibrated_rejected(self, tmp_path):
        net = build_embedding_net(6, (16,), 4, seed=2)
        net.set_quantization(8)
        with pytest.raises(StateError):
            save_model(net, tmp_path / "net.qfmd", mode="quantized")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            save_model(_calibrated_net(), tmp_path / "net.qfmd", mode="int8")


class TestCorruption:
    def _saved(self, tmp_path):
        path = tmp_path / "net.qfmd"
        save_model(_calibrated_net(), path, mode="quantized")
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WHAT"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == "magic"

    def test_corrupted_checksum(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == "checksum"

    def test_version_bump_rejected(self, tmp_path):
        import struct
        import zlib

        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 99)
        body = bytes(blob[4:-4])
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == "version"

    def test_header_width_disagreeing_with_blocks(self, tmp_path):
        import struct
        import zlib

        path = self._saved(tmp_path)  # an 8-bit file
        blob = bytearray(path.read_bytes())
        blob[7] = 6
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == "qparams"

    def test_zero_point_that_moves_the_codes(self, tmp_path):
        import struct
        import zlib

        # With a zero-point of 2**30 the float32 weight s * (c + z) no longer
        # holds its code c, so the file could not re-save to the same bytes.
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<i", blob, 24, 1 << 30)  # first weight block's zero-point
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == "qparams"

    # Counted back from the end of the file: the CRC (4 bytes) follows the
    # last activation block, which ends in its range_hi; the activation
    # count and two blocks (36 bytes) follow the last bias value.
    @pytest.mark.parametrize("field, from_end", [("qparams", 8), ("bias", 44)])
    def test_non_finite_stored_values(self, tmp_path, field, from_end):
        import struct
        import zlib

        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, len(blob) - from_end, float("nan"))
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == field

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_model(path)


class TestSizeReport:
    def test_exact_law_single_param(self):
        rep = size_report(1, [8])
        assert rep.fp32_bytes == 4
        assert rep.quantized_bytes[8] == 1
        assert rep.ratios[8] == 0.25

    def test_six_bit_million_params(self):
        # oracle: 1e6 * 6 / 8 bytes
        rep = size_report(1_000_000, [6])
        assert rep.quantized_bytes[6] == 750_000
        assert rep.ratios[6] == 0.1875

    def test_large_model_reference_sizes(self):
        # 65.305M params: fp32 261.22 MB, w8a8 65.31 MB (ratio 0.25002),
        # w6a6 49.01 MB
        rep = size_report(65_305_000, [8, 6])
        assert rep.megabytes() == pytest.approx(261.22, rel=0.005)
        assert rep.megabytes(8) == pytest.approx(65.31, rel=0.005)
        assert rep.ratios[8] == pytest.approx(65.31 / 261.22, rel=0.005)
        assert rep.ratios[6] == pytest.approx(49.01 / 261.22, rel=0.005)

    def test_overhead_increases_ratio_beyond_law(self):
        rep = size_report(10_000, [8], include_overhead=True,
                          channel_count=64, bias_count=64)
        assert rep.overhead_bytes == 64 * 17 + 64 * 4
        assert rep.ratios[8] > 8 / 32
        assert rep.ratios[8] == pytest.approx(8 / 32 + rep.overhead_bytes / rep.fp32_bytes)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            size_report(0, [8])
        with pytest.raises(DomainError):
            size_report(10, [5])

    def test_net_size_report_counts_channels_and_biases(self):
        net = build_embedding_net(6, (16,), 4, seed=0)
        rep = net_size_report(net, [8])
        assert rep.param_count == net.weight_param_count
        assert rep.overhead_bytes == (16 + 4) * 17 + (16 + 4) * 4


class TestAtomicWrites:
    """Every artifact writer goes through one temp-file-and-rename helper."""

    def _writers(self):
        from quantdistill.bench_eval import range_correlation, write_range_csv, write_report_json
        from quantdistill.config import ExperimentConfig, write_config
        from quantdistill.distiller import KDBatchResult, write_loss_curve

        net = _calibrated_net()
        return {
            "model": lambda path: save_model(net, path, mode="quantized"),
            "loss_curve": lambda path: write_loss_curve(
                path, [KDBatchResult(loss=0.5, grad_norms=())]),
            "range_csv": lambda path: write_range_csv(path, range_correlation(net, net)),
            "report_json": lambda path: write_report_json(path, {"accuracy": 0.5}),
            "config": lambda path: write_config(ExperimentConfig(), path),
        }

    @pytest.mark.parametrize("kind", ["model", "loss_curve", "range_csv", "report_json", "config"])
    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch, kind):
        import os

        path = tmp_path / "artifact"
        path.write_bytes(b"old contents\n")

        def broken_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            self._writers()[kind](path)
        assert path.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    def test_unserializable_report_keeps_old_file(self, tmp_path):
        from quantdistill.bench_eval import write_report_json

        path = tmp_path / "report.json"
        write_report_json(path, {"accuracy": 0.5})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_report_json(path, {"accuracy": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
