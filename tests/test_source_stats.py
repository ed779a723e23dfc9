"""scripts/source_stats.py: what counts as a settable option, and which
lines are counted."""

import ast
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "source_stats.py"
_PACKAGE = _SCRIPT.parent.parent / "src" / "quantdistill"


def _option_count(source: str) -> int:
    spec = importlib.util.spec_from_file_location("source_stats", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.option_count(ast.parse(textwrap.dedent(source)))


def test_private_and_dunder_names_are_skipped():
    assert _option_count("""
        def _helper(a=1, b=2):
            pass

        class _Hidden:
            def run(self, a=1):
                pass

        class Shown:
            def __init__(self, a=1):
                pass

            def _step(self, a=1):
                pass
        """) == 0


def test_positional_and_keyword_only_defaults_are_counted():
    assert _option_count("""
        def run(a, b=1, *, c, d=2, e=3):
            pass

        class Runner:
            def go(self, x=1, *, y=2):
                pass
        """) == 5


def test_fields_count_on_config_classes_only():
    assert _option_count("""
        class StageConfig:
            batch_size: int
            lr: float = 0.1

        class Report:
            accuracy: float
            threshold: float = 0.5

        class _PrivateConfig:
            seed: int
        """) == 2


def test_python_and_c_lines_are_printed_apart_and_summed():
    out = subprocess.run([sys.executable, str(_SCRIPT)], capture_output=True, text=True,
                         check=True).stdout
    stats = dict(line.split(": ") for line in out.splitlines())
    assert list(stats) == ["source lines", "C source lines", "total source lines",
                           "settable options"]
    wc = {suffix: sum(p.read_bytes().count(b"\n") for p in _PACKAGE.glob(f"*.{suffix}"))
          for suffix in ("py", "c")}
    assert int(stats["source lines"]) == wc["py"]
    assert int(stats["C source lines"]) == wc["c"] > 0
    assert int(stats["total source lines"]) == wc["py"] + wc["c"]
