"""Model files: packing, round trips, corruption handling, size law."""

import struct
import zlib

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


def _with_crc(blob: bytearray) -> bytes:
    """The file bytes with the CRC recomputed, so only the mutation is wrong."""
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF)
    return bytes(blob)


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

    @pytest.mark.parametrize("layer", [0, 1])
    def test_a_loaded_weight_moved_off_its_grid_is_refused(self, tmp_path, layer):
        # Rebinding a loaded net's weight keeps its pinned parameters: the
        # net is refused and no file is written. Untouched, it re-saves to
        # the same bytes.
        net = build_embedding_net(6, (8,), 4, seed=3)
        net.set_quantization(8)
        observers = [RangeObserver() for _ in range(net.activation_site_count)]
        observe_activations(net, Tensor(np.random.default_rng(4).standard_normal((8, 6))
                                        .astype(np.float32)), observers)
        net.activation_params = [o.freeze(8) for o in observers]
        path, again, moved = (tmp_path / name for name in ("a.qfmd", "b.qfmd", "c.qfmd"))
        save_model(net, path, mode="quantized")
        back = load_model(path)
        save_model(back, again, mode="quantized")
        assert again.read_bytes() == path.read_bytes()
        back.layers[layer].weight = Tensor(back.layers[layer].weight.data * np.float32(1.37))
        with pytest.raises(StateError, match=f"^layer {layer}: weight is off the grid"):
            save_model(back, moved, mode="quantized")
        assert set(tmp_path.iterdir()) == {path, again}

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

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_bump_rejected(self, tmp_path, version):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, version)
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError, match="this build reads version 2; regenerate") as exc:
            load_model(path)
        assert (exc.value.field, exc.value.offset) == ("version", 4)

    def test_header_width_disagreeing_with_blocks(self, tmp_path):
        # Read at 6 bits, the first linear's 8-bit codes end early, and the
        # byte read as the relu after its bias lies inside that bias.
        path = self._saved(tmp_path)  # an 8-bit file
        blob = bytearray(path.read_bytes())
        blob[7] = 6
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == "layers"

    def test_zero_point_that_moves_the_codes(self, tmp_path):
        # The first linear's blocks start at 20. A range of one unit at 1e6
        # derives a zero-point near 2.55e8, where the float32 weight
        # s * (c + z) no longer holds its code c: the file could not re-save
        # to the same bytes.
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<ff", blob, 20, 1e6, 1e6 + 1)
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError, match="do not reproduce their codes") as exc:
            load_model(path)
        assert (exc.value.field, exc.value.offset) == ("qparams", 20)

    # A linear's record is reported where its blocks start, at 20 for the
    # first; a site's at its own block. Counted back from the end, the two
    # 8-byte site blocks precede the CRC (4 bytes).
    @pytest.mark.parametrize("at", [20, -20, -12], ids=["weights", "site-0", "site-1"])
    def test_inverted_range_reported_at_its_block(self, tmp_path, at):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        offset = at % len(blob)
        lo, hi = struct.unpack_from("<ff", blob, offset)
        struct.pack_into("<ff", blob, offset, hi + 1, lo)
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError, match="invalid range") as exc:
            load_model(path)
        assert (exc.value.field, exc.value.offset) == ("qparams", offset)

    # Counted back from the end of the file: the CRC (4 bytes) follows the
    # last activation block, which ends in its range_hi; the activation
    # count and two blocks (18 bytes) follow the last bias value.
    @pytest.mark.parametrize("field, from_end", [("qparams", 8), ("bias", 26)])
    def test_non_finite_stored_values(self, tmp_path, field, from_end):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, len(blob) - from_end, float("nan"))
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert exc.value.field == field

    # A 10-byte header, then the first linear: kind at 10, out_dim and
    # in_dim at 11-18, payload at 19.
    @pytest.mark.parametrize("mode, payload", [("fp32", 1), ("fp32", 7),
                                               ("quantized", 0), ("quantized", 7)])
    def test_payload_other_than_the_mode_reported_at_its_byte(self, tmp_path, mode, payload):
        path = tmp_path / "net.qfmd"
        save_model(_calibrated_net(), path, mode=mode)
        blob = bytearray(path.read_bytes())
        blob[19] = payload
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert (exc.value.field, exc.value.offset) == ("payload", 19)

    @pytest.mark.parametrize("mode", ["fp32", "quantized"])
    def test_relu_read_as_linear_reported_at_its_byte(self, tmp_path, mode):
        net = _calibrated_net()
        out_dim, in_dim = net.layers[0].weight.shape
        weights = (out_dim * 8 + packed_code_bytes(out_dim * in_dim, 8) if mode == "quantized"
                   else 4 * out_dim * in_dim)
        relu_at = 20 + weights + 4 * out_dim
        path = tmp_path / "net.qfmd"
        save_model(net, path, mode=mode)
        blob = bytearray(path.read_bytes())
        assert blob[relu_at] == 1
        blob[relu_at] = 0
        path.write_bytes(_with_crc(blob))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert (exc.value.field, exc.value.offset) == ("layers", relu_at)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_model(path)

    # The layer count sits at 8. The first linear's kind is at 10, its
    # out_dim at 11 and in_dim at 15; a 2x3 fp32 linear and a relu put the
    # second linear's out_dim at 54 and in_dim at 58.
    @pytest.mark.parametrize("stack, offset", [
        (["relu"], 10),
        ([], 8),
        ([(2, 3), "relu", (2, 5)], 58),
        ([(4, 3), "relu", "relu", (2, 4)], 8),
        ([(4, 3), (2, 4)], 8),
        ([(2, 3), "relu"], 8),
        ([(0, 3)], 11),
        ([(3, 0)], 15),
        ([(2, 3), "relu", (0, 2)], 54),
    ], ids=["relu-only", "empty", "dims-do-not-compose", "two-relus", "two-linears",
            "trailing-relu", "no-outputs", "no-inputs", "later-no-outputs"])
    def test_layer_stack_that_is_no_net(self, tmp_path, layer_stack_file, stack, offset):
        # A valid CRC around a stack that is not linears with a relu
        # between each two, or whose linears have no width or do not
        # compose: a malformed file, reported at the byte at fault.
        path = tmp_path / "net.qfmd"
        path.write_bytes(layer_stack_file(stack))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert (exc.value.field, exc.value.offset) == ("layers", offset)


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

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            size_report(0, [8])
        with pytest.raises(DomainError):
            size_report(10, [5])


class TestAtomicWrites:
    """Every artifact writer goes through one temp-file-and-rename helper."""

    def _writers(self):
        from quantdistill.bench_eval import range_correlation, write_range_csv, write_report_json
        from quantdistill.distiller import KDBatchResult, write_loss_curve

        net = _calibrated_net()
        return {
            "model": lambda path: save_model(net, path, mode="quantized"),
            "loss_curve": lambda path: write_loss_curve(
                path, [KDBatchResult(loss=0.5)]),
            "range_csv": lambda path: write_range_csv(
                path, range_correlation(net, net), "a", "b"),
            "report_json": lambda path: write_report_json(path, {"accuracy": 0.5}),
        }

    @pytest.mark.parametrize("kind", ["model", "loss_curve", "range_csv", "report_json"])
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
