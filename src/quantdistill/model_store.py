"""Model file format and bit-exact size accounting.

File layout (QFMD, all multi-byte values little-endian)::

    magic        4s   "QFMD"
    version      u16  1
    mode         u8   0 = fp32, 1 = quantized
    bit_width    u8   0 for fp32 files
    layer_count  u16  2L - 1 for a net of L linears
    per layer, alternating linear, relu, ..., linear:
      kind       u8   0 = linear, 1 = relu
      linear only:
        out_dim  u32
        in_dim   u32
        payload  u8   the file's mode: 0 = raw fp32 weights, 1 = packed codes
        payload 0: out*in f32 weights (row-major)
        payload 1: out x qparams block, then ceil(out*in*b/8) packed code
                   bytes (codes offset to unsigned, b bits each, LSB-first)
        bias     out x f32
    activation_count u16, then that many qparams blocks
    crc32        u32  over everything between magic and this field

A qparams block is scale f32, zero_point i32, bit_width u8, range_lo f32,
range_hi f32 (17 bytes). A layer's blocks, one per output channel, hold
its per-channel QuantParams; each activation site has one block. Every
block's bit width equals the header's. Codes are packed at their true
bit width so the file size obeys the b/32 payload law. Files are written atomically
(temp file + rename) and contain no timestamps, so identical nets produce
identical bytes.

The loader checks each field against this layout at the byte it reads, so
a ``FormatError`` names the field at fault and, where known, its file offset.
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
from .quantizer import SUPPORTED_BIT_WIDTHS, QuantParams, QuantizedTensor, dequantize, quantize
from .tensor_core import Tensor

MODEL_MAGIC = b"QFMD"
MODEL_VERSION = 1
MODE_FP32 = 0
MODE_QUANTIZED = 1
FP32_BYTES_PER_PARAM = 4
QPARAMS_DTYPE = np.dtype([("scale", "<f4"), ("zero_point", "<i4"), ("bit_width", "u1"),
                          ("range_lo", "<f4"), ("range_hi", "<f4")])  # packed: 17 bytes


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
    need = (count * bit_width + 7) // 8
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


# -- qparams blocks ------------------------------------------------------------


def _pack_qparams(p: QuantParams) -> bytes:
    """The blocks of one record: one per slice, or one for per-tensor params."""
    z = np.atleast_1d(p.zero_point)
    int32 = np.iinfo(np.int32)
    wide = (z < int32.min) | (z > int32.max)
    if wide.any():
        raise DomainError(f"zero-point {z[wide][0]} does not fit the stored int32")
    blocks = np.empty(z.shape, dtype=QPARAMS_DTYPE)
    for name in QPARAMS_DTYPE.names:
        blocks[name] = getattr(p, name)
    return blocks.tobytes()


def _read_blocks(body: bytes, offset: int, count: int, bit_width: int) -> np.ndarray:
    """``count`` blocks at ``offset``, checked against the header bit width."""
    if len(body) < offset + count * QPARAMS_DTYPE.itemsize:
        raise FormatError("truncated quantization parameters", field="qparams", offset=4 + offset)
    blocks = np.frombuffer(body, dtype=QPARAMS_DTYPE, count=count, offset=offset)
    if np.any(blocks["bit_width"] != bit_width):
        raise FormatError(f"block bit width {blocks['bit_width'].max()} in a "
                          f"{bit_width}-bit file", field="qparams", offset=4 + offset)
    return blocks


def _params(fields, bit_width: int, offset: int) -> QuantParams:
    """QuantParams from block fields: per-channel from an array of blocks,
    per-tensor from a single block."""
    try:
        return QuantParams(scale=fields["scale"], zero_point=fields["zero_point"],
                           bit_width=bit_width, range_lo=fields["range_lo"],
                           range_hi=fields["range_hi"])
    except (DomainError, DimensionError) as exc:
        raise FormatError(f"invalid quantization parameters: {exc}",
                          field="qparams", offset=4 + offset) from exc


def _finite(values: np.ndarray, field: str, offset: int) -> Tensor:
    try:
        return Tensor(values)
    except DomainError as exc:
        raise FormatError(f"stored {field} are not finite", field=field,
                          offset=4 + offset) from exc


def _grid_weight(codes: np.ndarray, wp: QuantParams, offset: int) -> Tensor:
    """The dequantized weight of stored codes, checked to hold exactly those
    codes: a model that loads re-saves to the same bytes."""
    q = QuantizedTensor(codes=codes, shape=codes.shape, params=wp)
    try:
        with np.errstate(over="ignore"):  # reported below as a FormatError
            w = dequantize(q)
    except DomainError as exc:
        raise FormatError("weight parameters overflow the dequantized weights",
                          field="qparams", offset=4 + offset) from exc
    if not np.array_equal(quantize(w, wp).codes, q.codes):
        raise FormatError("weight parameters do not reproduce the stored codes",
                          field="qparams", offset=4 + offset)
    return w


# -- save / load ---------------------------------------------------------------


def save_model(net: EmbeddingNet, path, mode: str) -> None:
    """Serialize a net; mode is "fp32" or "quantized".

    Quantized files store per-channel weight codes plus parameters and the
    frozen activation parameters, so saving requires a calibrated net.
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
    body = bytearray()
    body += struct.pack("<H", MODEL_VERSION)
    body += struct.pack("<BB", MODE_QUANTIZED if quantized else MODE_FP32,
                        net.quant_bits if quantized else 0)
    body += struct.pack("<H", 2 * len(net.layers) - 1)
    for i, layer in enumerate(net.layers):
        if i:
            body += struct.pack("<B", 1)  # the relu between linears i - 1 and i
        out_dim, in_dim = layer.weight.shape
        body += struct.pack("<BIIB", 0, out_dim, in_dim, 1 if quantized else 0)
        if quantized:
            wp = net.weight_params(i)
            body += _pack_qparams(wp)
            body += pack_codes(quantize(layer.weight, wp).codes, net.quant_bits)
        else:
            body += layer.weight.data.astype("<f4").tobytes()
        body += layer.bias.data.astype("<f4").tobytes()
    act = net.activation_params if (quantized and net.activation_params) else []
    body += struct.pack("<H", len(act))
    for p in act:
        body += _pack_qparams(p)
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    return MODEL_MAGIC + bytes(body) + struct.pack("<I", crc)


def load_model(path) -> EmbeddingNet:
    """Reconstruct a net from a model file.

    Quantized files come back with shadow weights set to the dequantized
    grid values and the stored weight parameters pinned, so a quantized
    forward reproduces the saved model's outputs bit-exactly.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MODEL_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}", field="magic", offset=0)
    if len(blob) < 8 + 4:
        raise FormatError("file shorter than minimal layout", field="header", offset=len(blob))
    body, stored_crc = blob[4:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise FormatError("payload checksum mismatch", field="checksum", offset=len(blob) - 4)

    off = 0

    def take(fmt: str):
        nonlocal off
        s = struct.Struct(fmt)
        if len(body) < off + s.size:
            raise FormatError("truncated header", field="header", offset=4 + off)
        vals = s.unpack_from(body, off)
        off += s.size
        return vals

    (version,) = take("<H")
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported version {version}", field="version", offset=4)
    mode, bit_width = take("<BB")
    if mode not in (MODE_FP32, MODE_QUANTIZED):
        raise FormatError(f"unknown mode {mode}", field="mode", offset=6)
    if bit_width not in (SUPPORTED_BIT_WIDTHS if mode == MODE_QUANTIZED else (0,)):
        raise FormatError(f"bit width {bit_width} in a {('fp32', 'quantized')[mode]} file",
                          field="bit_width", offset=7)
    (layer_count,) = take("<H")
    if layer_count % 2 == 0:
        raise FormatError(f"{layer_count} layers cannot alternate linear, relu, ..., linear",
                          field="layers", offset=8)

    layers: list[Linear] = []
    weight_params: list[QuantParams] = []
    for j in range(layer_count):
        (kind,) = take("<B")
        if kind != j % 2:
            raise FormatError(f"layer {j} has kind {kind}, expected {j % 2}: layers "
                              "alternate linear, relu, ..., linear", field="layers",
                              offset=4 + off - 1)
        if kind == 1:
            continue
        out_dim, in_dim, payload = take("<IIB")
        if payload != mode:
            raise FormatError(f"payload kind {payload} in a {('fp32', 'quantized')[mode]} file",
                              field="payload", offset=4 + off - 1)
        if mode == MODE_FP32:
            n = out_dim * in_dim
            if len(body) < off + n * 4:
                raise FormatError("truncated weights", field="weights", offset=4 + off)
            w = _finite(np.frombuffer(body, dtype="<f4", count=n, offset=off)
                        .reshape(out_dim, in_dim), "weights", off)
            off += n * 4
        else:
            block_off = off
            wp = _params(_read_blocks(body, off, out_dim, bit_width), bit_width, off)
            off += out_dim * QPARAMS_DTYPE.itemsize
            nbytes = packed_code_bytes(out_dim * in_dim, bit_width)
            if len(body) < off + nbytes:
                raise FormatError("truncated codes", field="codes", offset=4 + off)
            codes = unpack_codes(body[off:off + nbytes], out_dim * in_dim,
                                 bit_width).reshape(out_dim, in_dim)
            off += nbytes
            w = _grid_weight(codes, wp, block_off)
            weight_params.append(wp)
        if len(body) < off + out_dim * 4:
            raise FormatError("truncated bias", field="bias", offset=4 + off)
        b = _finite(np.frombuffer(body, dtype="<f4", count=out_dim, offset=off), "bias", off)
        off += out_dim * 4
        layers.append(Linear(weight=w, bias=b))

    (act_count,) = take("<H")
    if act_count and mode != MODE_QUANTIZED:
        raise FormatError(f"{act_count} activation parameter blocks in an fp32 file",
                          field="activations", offset=4 + off - 2)
    blocks = _read_blocks(body, off, act_count, bit_width)
    act_params = [_params(block, bit_width, off + i * QPARAMS_DTYPE.itemsize)
                  for i, block in enumerate(blocks)]
    off += act_count * QPARAMS_DTYPE.itemsize
    if off != len(body):
        raise FormatError(f"{len(body) - off} trailing bytes", field="trailer", offset=4 + off)

    try:
        net = EmbeddingNet(layers)
    except DimensionError as exc:
        raise FormatError(f"layer stack: {exc}", field="layers") from exc
    if mode == MODE_QUANTIZED:
        if len(act_params) != net.activation_site_count:
            raise FormatError(
                f"{len(act_params)} activation parameters for "
                f"{net.activation_site_count} sites", field="activations")
        net.quant_bits = bit_width
        net.activation_params = act_params
        net.frozen_weight_params = weight_params
    return net


# -- size accounting -----------------------------------------------------------


@dataclass(frozen=True)
class SizeReport:
    """Storage footprint of a parameter set under the exact bit-packing law."""

    param_count: int
    fp32_bytes: int
    quantized_bytes: dict[int, int]
    ratios: dict[int, float]
    overhead_bytes: int

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
            "overhead_bytes": self.overhead_bytes,
            "quantized": {
                str(b): {
                    "bytes": self.quantized_bytes[b],
                    "mb": self.quantized_bytes[b] / 1e6,
                    "ratio": self.ratios[b],
                }
                for b in sorted(self.quantized_bytes)
            },
        }


def size_report(param_count: int, bit_widths: list[int], *,
                channel_count: int = 0, bias_count: int = 0) -> SizeReport:
    """Payload bytes and compression ratios for the given bit widths.

    The payload obeys the exact law param_count * b / 8 bytes. The
    per-channel parameter blocks (17 bytes each) of ``channel_count``
    channels and ``bias_count`` full-precision biases are added to the
    quantized totals, which is what a real packed file carries on top of
    the code payload.
    """
    if param_count <= 0:
        raise DomainError(f"param_count must be positive, got {param_count}")
    fp32_bytes = param_count * FP32_BYTES_PER_PARAM
    overhead = channel_count * QPARAMS_DTYPE.itemsize + bias_count * 4
    quantized = {}
    ratios = {}
    for b in bit_widths:
        if b not in SUPPORTED_BIT_WIDTHS:
            raise DomainError(f"unsupported bit width {b}")
        payload = (param_count * b + 7) // 8
        total = payload + overhead
        quantized[b] = total
        ratios[b] = total / fp32_bytes
    return SizeReport(param_count=param_count, fp32_bytes=fp32_bytes,
                      quantized_bytes=quantized, ratios=ratios, overhead_bytes=overhead)


def net_size_report(net: EmbeddingNet, bit_widths: list[int]) -> SizeReport:
    """Size report for a concrete net (weights quantized, per-channel
    parameter blocks and biases counted as overhead)."""
    channels = sum(l.out_dim for l in net.layers)
    biases = sum(l.bias.size for l in net.layers)
    return size_report(net.weight_param_count, bit_widths,
                       channel_count=channels, bias_count=biases)
