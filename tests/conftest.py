"""Shared test settings and fixtures.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's source rather than drawn at random, so a run gives the
same result every time, and the example count bounds the suite's time.
"""

import struct
import threading
import zlib

import pytest

from quantdistill import tensor_core
from quantdistill.model_store import MODEL_VERSION

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, max_examples=200,
                              deadline=None, database=None)
    settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def layer_stack_file():
    """Bytes of a CRC-valid fp32 QFMD file holding any layer stack.

    Each entry is ``"relu"`` or the ``(out_dim, in_dim)`` of a linear with
    zero weights and biases. Written from the file layout itself, so it
    can hold stacks that no net saves.
    """
    def encode(stack) -> bytes:
        body = struct.pack("<HBBH", MODEL_VERSION, 0, 0, len(stack))
        for layer in stack:
            if layer == "relu":
                body += struct.pack("<B", 1)
            else:
                out_dim, in_dim = layer
                body += struct.pack("<BIIB", 0, out_dim, in_dim, 0)
                body += bytes(4 * out_dim * (in_dim + 1))
        body += struct.pack("<H", 0)
        return b"QFMD" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    return encode


@pytest.fixture
def product_calls(monkeypatch):
    """The ``(parts, thread)`` of every product the compiled kernel is asked
    for while the test runs, each then run by the kernel itself. ``parts``
    is the number of row ranges the kernel splits the product into: every
    range but the first runs on a thread the kernel starts. ``thread`` is
    the Python thread that asked."""
    kernel = tensor_core._MATMUL
    calls = []

    class Recording:
        @staticmethod
        def product(a, b, out, parts):
            calls.append((parts, threading.get_ident()))
            kernel.product(a, b, out, parts)

    monkeypatch.setattr(tensor_core, "_MATMUL", Recording)
    return calls
