"""Model file format and the b/32 payload size law.

File layout (QFMD, all multi-byte values little-endian)::

    magic        4s   "QFMD"
    version      u16  2
    mode         u8   0 = fp32, 1 = quantized
    bit_width    u8   0 for fp32 files
    layer_count  u16  2L - 1 for a net of L linears
    per layer, alternating linear, relu, ..., linear:
      kind       u8   0 = linear, 1 = relu
      linear only:
        out_dim  u32  non-zero
        in_dim   u32  non-zero; the previous linear's out_dim
        payload  u8   the file's mode: 0 = raw fp32 weights, 1 = packed codes
        payload 0: out*in f32 weights (row-major)
        payload 1: out x range block, then ceil(out*in*b/8) packed code
                   bytes (codes offset to unsigned, b bits each, LSB-first)
        bias     out x f32
    activation_count u16  L in a quantized file, 0 in an fp32 file; then
                          that many range blocks
    crc32        u32  over everything between magic and this field

A range block is range_lo f32, range_hi f32 (8 bytes). A layer's blocks,
one per output channel, hold the ranges of its per-channel QuantParams;
each activation site has one block. Scale, zero-point and bit width are
not stored: the loader derives them from each range and the header's
bit width through ``params_from_range``, the function that made them.
Codes are packed at their true bit width. Files are written atomically
(temp file + rename) and contain no timestamps, so identical nets
produce identical bytes.

The loader reads the file through one bounded cursor and checks each field
against this layout at the byte it reads, so a ``FormatError`` names the
field at fault and its file offset (for a linear's ranges, the offset of
its first block). A stack whose dimensions do not compose or that holds a
zero-width linear is malformed like any other stack the saver cannot
write. The loader reads version 2 only.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FormatError, StateError
from .graph import EmbeddingNet, Linear
from .quantizer import (SUPPORTED_BIT_WIDTHS, QuantParams, QuantizedTensor, dequantize,
                        params_from_range, quantize)
from .tensor_core import Tensor

MODEL_MAGIC = b"QFMD"
MODEL_VERSION = 2
MODE_FP32 = 0
MODE_QUANTIZED = 1
FP32_BYTES_PER_PARAM = 4
RANGE_DTYPE = np.dtype([("range_lo", "<f4"), ("range_hi", "<f4")])  # 8 bytes


# -- bit packing ---------------------------------------------------------------


def pack_codes(codes: np.ndarray, bit_width: int) -> bytes:
    """Pack signed codes into a dense little-endian bitstream of b-bit fields."""
    offset = 1 << (bit_width - 1)
    u = (codes.astype(np.int64).ravel() + offset)
    if u.min() < 0 or u.max() >= (1 << bit_width):
        raise DomainError(f"codes do not fit {bit_width} bits")
    bits = np.unpackbits(u.astype(np.uint8)[:, None], axis=1, bitorder="little")[:, :bit_width]
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def unpack_codes(blob: bytes, count: int, bit_width: int) -> np.ndarray:
    """Inverse of pack_codes; returns int32 codes."""
    need = packed_code_bytes(count, bit_width)
    if len(blob) < need:
        raise FormatError(f"need {need} code bytes, have {len(blob)}", field="codes")
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8, count=need),
                         bitorder="little")[: count * bit_width]
    fields = bits.reshape(count, bit_width)
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, :bit_width] = fields
    u = np.packbits(padded, axis=1, bitorder="little")[:, 0].astype(np.int32)
    return u - (1 << (bit_width - 1))


def packed_code_bytes(count: int, bit_width: int) -> int:
    return (count * bit_width + 7) // 8


# -- range blocks --------------------------------------------------------------


def _pack_range(p: QuantParams) -> bytes:
    """The blocks of one record: one per slice, or one for per-tensor params."""
    blocks = np.empty(np.shape(p.range_lo), dtype=RANGE_DTYPE)
    blocks["range_lo"] = p.range_lo
    blocks["range_hi"] = p.range_hi
    return blocks.tobytes()


@contextlib.contextmanager
def _qparams_at(offset: int):
    """Report a record rebuilt from the range blocks at file offset
    ``offset`` that the quantizer rejects as a malformed block there."""
    try:
        yield
    except (DomainError, DimensionError) as exc:
        raise FormatError(f"invalid quantization parameters: {exc}",
                          field="qparams", offset=offset) from exc


def _finite(values: np.ndarray, field: str, offset: int) -> Tensor:
    try:
        return Tensor(values)
    except DomainError as exc:
        raise FormatError(f"stored {field} are not finite", field=field,
                          offset=offset) from exc


def _grid_weight(codes: np.ndarray, wp: QuantParams) -> Tensor:
    """The dequantized weight of codes, checked to hold exactly those codes
    in float32: the saver writes no codes the loader would refuse, and a
    model that loads re-saves to the same bytes."""
    q = QuantizedTensor(codes=codes, shape=codes.shape, params=wp)
    with np.errstate(over="ignore"):  # dequantize raises DomainError instead
        w = dequantize(q)
    if not np.array_equal(quantize(w, wp).codes, q.codes):
        raise DomainError("weight parameters do not reproduce their codes in float32")
    return w


# -- save / load ---------------------------------------------------------------

# The writer and the reader share these layouts.
_HEADER = struct.Struct("<HBBH")  # version, mode, bit_width, layer_count
_LINEAR = struct.Struct("<IIB")  # out_dim, in_dim, payload; follows the kind byte
_ACTIVATION_COUNT = struct.Struct("<H")


def save_model(net: EmbeddingNet, path, mode: str) -> None:
    """Serialize a net; mode is "fp32" or "quantized".

    Quantized files store per-channel weight codes plus parameters and the
    frozen activation parameters, so saving requires a calibrated net. A
    pinned layer (of a loaded quantized model) saves under its grid, which
    its weight lies on.
    """
    if mode == "fp32":
        blob = _encode(net, quantized=False)
    elif mode == "quantized":
        if not net.is_calibrated:
            raise StateError("cannot save quantized: net is not calibrated")
        blob = _encode(net, quantized=True)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    write_atomic(path, blob)


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` through a temporary file and a rename: ``path`` holds
    either its old contents or all of ``data``, and a failed write leaves
    no temporary file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _encode(net: EmbeddingNet, quantized: bool) -> bytes:
    mode = MODE_QUANTIZED if quantized else MODE_FP32
    body = bytearray(_HEADER.pack(MODEL_VERSION, mode, net.quant_bits if quantized else 0,
                                 2 * len(net.layers) - 1))
    for i, layer in enumerate(net.layers):
        if i:
            body.append(1)  # the relu between linears i - 1 and i
        body.append(0)
        body += _LINEAR.pack(*layer.weight.shape, mode)
        if quantized:
            wp = net.weight_params(i)
            codes = quantize(layer.weight, wp).codes
            _grid_weight(codes, wp)
            body += _pack_range(wp)
            body += pack_codes(codes, net.quant_bits)
        else:
            body += layer.weight.data.astype("<f4").tobytes()
        body += layer.bias.data.astype("<f4").tobytes()
    act = net.activation_params if quantized else []
    body += _ACTIVATION_COUNT.pack(len(act))
    for p in act:
        body += _pack_range(p)
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    return MODEL_MAGIC + bytes(body) + struct.pack("<I", crc)


def load_model(path) -> EmbeddingNet:
    """Reconstruct a net from a model file.

    Quantized files come back with shadow weights set to the dequantized
    grid values, each layer pinned to the weight parameters rebuilt from
    its stored ranges (its ``grid``), so a quantized forward reproduces
    the saved model's outputs bit-exactly.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}", field="magic", offset=0)
    if len(blob) < 8 + 4:
        raise FormatError("file shorter than minimal layout", field="header", offset=len(blob))
    end = len(blob) - 4  # the body runs from offset 4 to the CRC
    if zlib.crc32(blob[4:end]) & 0xFFFFFFFF != struct.unpack_from("<I", blob, end)[0]:
        raise FormatError("payload checksum mismatch", field="checksum", offset=end)

    off = 4

    def take(size: int, field: str) -> int:
        """Move past the next ``size`` bytes of the body; return their file offset."""
        nonlocal off
        if off + size > end:
            raise FormatError(f"truncated {field}", field=field, offset=off)
        off += size
        return off - size

    version, mode, bit_width, layer_count = _HEADER.unpack_from(blob, take(_HEADER.size, "header"))
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported version {version}: this build reads version "
                          f"{MODEL_VERSION}; regenerate the file by re-running the stage "
                          "that wrote it", field="version", offset=4)
    if mode not in (MODE_FP32, MODE_QUANTIZED):
        raise FormatError(f"unknown mode {mode}", field="mode", offset=6)
    mode_name = ("fp32", "quantized")[mode]
    if bit_width not in (SUPPORTED_BIT_WIDTHS if mode == MODE_QUANTIZED else (0,)):
        raise FormatError(f"bit width {bit_width} in a {mode_name} file",
                          field="bit_width", offset=7)
    if layer_count % 2 == 0:
        raise FormatError(f"{layer_count} layers cannot alternate linear, relu, ..., linear",
                          field="layers", offset=8)

    layers: list[Linear] = []
    for j in range(layer_count):
        at = take(1, "layers")
        if blob[at] != j % 2:
            raise FormatError(f"layer {j} has kind {blob[at]}, expected {j % 2}: layers "
                              "alternate linear, relu, ..., linear", field="layers", offset=at)
        if j % 2:
            continue
        at = take(_LINEAR.size, "layers")
        out_dim, in_dim, payload = _LINEAR.unpack_from(blob, at)
        if out_dim == 0 or in_dim == 0:
            raise FormatError(f"zero-width linear {out_dim}x{in_dim}", field="layers",
                              offset=at if out_dim == 0 else at + 4)
        if layers and in_dim != layers[-1].out_dim:
            raise FormatError(f"layer input dim {in_dim} does not compose with previous "
                              f"output {layers[-1].out_dim}", field="layers", offset=at + 4)
        if payload != mode:
            raise FormatError(f"payload kind {payload} in a {mode_name} file",
                              field="payload", offset=at + 8)
        n = out_dim * in_dim
        wp = None
        if mode == MODE_FP32:
            at = take(4 * n, "weights")
            w = _finite(np.frombuffer(blob, dtype="<f4", count=n, offset=at)
                        .reshape(out_dim, in_dim), "weights", at)
        else:
            block_at = take(out_dim * RANGE_DTYPE.itemsize, "qparams")
            blocks = np.frombuffer(blob, dtype=RANGE_DTYPE, count=out_dim, offset=block_at)
            nbytes = packed_code_bytes(n, bit_width)
            at = take(nbytes, "codes")
            codes = unpack_codes(blob[at:at + nbytes], n, bit_width).reshape(out_dim, in_dim)
            with _qparams_at(block_at):
                wp = params_from_range(blocks["range_lo"], blocks["range_hi"], bit_width)
                w = _grid_weight(codes, wp)
        at = take(4 * out_dim, "bias")
        b = _finite(np.frombuffer(blob, dtype="<f4", count=out_dim, offset=at), "bias", at)
        layers.append(Linear(weight=w, bias=b, grid=wp))

    at = take(_ACTIVATION_COUNT.size, "activations")
    (act_count,) = _ACTIVATION_COUNT.unpack_from(blob, at)
    sites = len(layers) if mode == MODE_QUANTIZED else 0
    if act_count != sites:
        raise FormatError(f"{act_count} activation parameter blocks for {sites} sites "
                          f"in a {mode_name} file", field="activations", offset=at)
    at = take(act_count * RANGE_DTYPE.itemsize, "qparams")
    act_params = []
    for i, block in enumerate(np.frombuffer(blob, dtype=RANGE_DTYPE, count=act_count, offset=at)):
        with _qparams_at(at + i * RANGE_DTYPE.itemsize):
            act_params.append(params_from_range(block["range_lo"], block["range_hi"], bit_width))
    if off != end:
        raise FormatError(f"{end - off} trailing bytes", field="trailer", offset=off)

    net = EmbeddingNet(layers)
    if mode == MODE_QUANTIZED:
        net.quant_bits = bit_width
        net.activation_params = act_params
    return net


# -- size law -----------------------------------------------------------------


@dataclass(frozen=True)
class SizeReport:
    """Weight payload of a parameter set under the exact bit-packing law.
    A model's size on disk is its file's byte count, not this."""

    param_count: int
    fp32_bytes: int
    quantized_bytes: dict[int, int]
    ratios: dict[int, float]

    def megabytes(self, bit_width: int | None = None) -> float:
        """Decimal megabytes (1 MB = 1e6 bytes), fp32 when no width given."""
        if bit_width is None:
            return self.fp32_bytes / 1e6
        return self.quantized_bytes[bit_width] / 1e6

    def as_dict(self) -> dict:
        return {
            "param_count": self.param_count,
            "fp32_bytes": self.fp32_bytes,
            "fp32_mb": self.fp32_bytes / 1e6,
            "quantized": {
                str(b): {
                    "bytes": self.quantized_bytes[b],
                    "mb": self.quantized_bytes[b] / 1e6,
                    "ratio": self.ratios[b],
                }
                for b in sorted(self.quantized_bytes)
            },
        }


def size_report(param_count: int, bit_widths: list[int]) -> SizeReport:
    """Payload bytes and compression ratios for the given bit widths under
    the exact law param_count * b / 8 bytes (rounded up); nothing else counts."""
    if param_count <= 0:
        raise DomainError(f"param_count must be positive, got {param_count}")
    fp32_bytes = param_count * FP32_BYTES_PER_PARAM
    quantized = {}
    ratios = {}
    for b in bit_widths:
        if b not in SUPPORTED_BIT_WIDTHS:
            raise DomainError(f"unsupported bit width {b}")
        quantized[b] = packed_code_bytes(param_count, b)
        ratios[b] = quantized[b] / fp32_bytes
    return SizeReport(param_count=param_count, fp32_bytes=fp32_bytes,
                      quantized_bytes=quantized, ratios=ratios)
