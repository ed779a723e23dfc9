"""Shared test settings and fixtures.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's source rather than drawn at random, so a run gives the
same result every time, and the example count bounds the suite's time.
"""

import struct
import subprocess
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
    for while the test runs, each then run by the kernel itself with its
    epilogue operands, if any. ``parts`` is the number of row ranges the
    kernel splits the product into: every range but the first runs on a
    thread the kernel starts. ``thread`` is the Python thread that asked.
    The module's other entries are the kernel's own."""
    kernel = tensor_core._MATMUL
    calls = []

    class Recording:
        def __getattr__(self, name):
            return getattr(kernel, name)

        @staticmethod
        def product(a, b, out, parts, *epilogue):
            calls.append((parts, threading.get_ident()))
            return kernel.product(a, b, out, parts, *epilogue)

    monkeypatch.setattr(tensor_core, "_MATMUL", Recording())
    return calls


# The compiled module's variants, widest first.
VARIANTS = ("avx512", "avx2", "base")

# Prints the variants that __builtin_cpu_supports says this CPU runs,
# widest first, where the kernel has them: GCC compiling for x86.
PROBE = r"""
#include <stdio.h>
int main(void)
{
#if defined(__GNUC__) && !defined(__clang__) && (defined(__x86_64__) || defined(__i386__))
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        puts("avx512");
    if (__builtin_cpu_supports("avx2"))
        puts("avx2");
#endif
    puts("base");
    return 0;
}
"""


@pytest.fixture(scope="session")
def supported(tmp_path_factory) -> list[str]:
    """The variants of the compiled module this CPU runs, widest first, by a
    program of its own."""
    tmp = tmp_path_factory.mktemp("probe")
    (tmp / "probe.c").write_text(PROBE)
    subprocess.run(["cc", "-o", str(tmp / "probe"), str(tmp / "probe.c")], check=True,
                   timeout=120)
    found = subprocess.run([str(tmp / "probe")], capture_output=True, text=True, check=True,
                           timeout=60).stdout.split()
    assert found and found[-1] == "base" and set(found) <= set(VARIANTS), found
    return found
