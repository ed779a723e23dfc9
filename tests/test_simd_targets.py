"""The exact-order oracles hold with numpy's dispatched SIMD kernels off.

Golden digests hold per numpy SIMD target (README), because ``exp``,
``log`` and ``tanh`` round differently from one target to another. The
matmul and fake-quant bits are promised on every target. This runs
their property tests, the row-range cases included, in a fresh
interpreter under ``NPY_DISABLE_CPU_FEATURES``, which leaves numpy on
its X86_V2 baseline.

numpy's SIMD switches do not reach the compiled matmul kernel, which
picks its own variant from the CPU; here they change only the oracle's
numpy arithmetic and fake-quant. Each kernel variant the CPU runs is
checked against the oracle by ``tests/test_kernel_variants.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

ROOT = Path(__file__).resolve().parents[1]
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
ORACLES = ("tests/test_matmul_property.py", "tests/test_fake_quant_property.py")

# Prints the named features that numpy still reports as enabled.
PROBE = f"""
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
print(" ".join(f for f in {DISABLED.split()!r} if __cpu_features__.get(f)))
"""


def _run(args):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)


def test_matmul_and_fake_quant_oracles_on_the_baseline_target():
    probe = _run(["-c", PROBE])
    if probe.returncode != 0:
        reason = (probe.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={DISABLED!r}: {reason}")
    assert probe.stdout.strip() == "", f"still enabled: {probe.stdout.strip()}"
    result = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider", *ORACLES])
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert " passed" in result.stdout and "skipped" not in result.stdout, result.stdout[-3000:]
