"""The compiled matmul kernel's build cache, run on copies of the package.

``tensor_core`` compiles ``_matmul.c`` on the first import of each source
and platform and caches the object under the package's ``__pycache__``.
Each test copies ``src/quantdistill`` into ``tmp_path`` and imports the
copy in fresh interpreters, so the checkout's own cache is never touched.
"""

import os
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Waits until the wall-clock time in argv[1] (so that several interpreters
# import at once), imports the package, and prints "ok" when matmul equals
# the k-ordered loop bit for bit, then whether a process was started.
CHECK = """
import sys, time
import numpy as np
while time.time() < float(sys.argv[1]):
    pass
from quantdistill.tensor_core import Tensor, matmul
rng = np.random.default_rng(0)
a = rng.standard_normal((2100, 40)).astype(np.float32)
b = rng.standard_normal((40, 70)).astype(np.float32)
want = np.zeros((2100, 70), dtype=np.float32)
for i in range(40):
    want = want + a[:, i:i + 1] * b[i:i + 1, :]
got = matmul(Tensor(a), Tensor(b)).data
print("ok" if np.array_equal(got.view(np.uint32), want.view(np.uint32)) else "differs")
print("started a process" if "subprocess" in sys.modules else "started no process")
"""


def _package_copy(tmp_path: Path) -> Path:
    """A copy of the package without its cache; returns its ``src``."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "quantdistill", src / "quantdistill",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _env(src: Path, tmp_path: Path, **extra) -> dict:
    tmp = tmp_path / "tmp"
    tmp.mkdir(exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp),
                **extra)


def _start(src: Path, env: dict, at: float = 0.0) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", CHECK, str(at)], cwd=src, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> list[str]:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-3000:]
    return out.split("\n")[:2]


def _objects(src: Path) -> list[str]:
    return sorted(p.name for p in (src / "quantdistill" / "__pycache__").iterdir())


def test_interpreters_building_at_once_each_load_a_whole_object(tmp_path):
    src = _package_copy(tmp_path)
    env = _env(src, tmp_path)
    # Two start together, two more while the first compiles are running
    # (a compile takes over 0.1 s), when a partial object could be seen.
    at = time.time() + 2.0
    procs = [_start(src, env, at + delay) for delay in (0.0, 0.0, 0.04, 0.08)]
    for proc in procs:
        assert _finish(proc) == ["ok", "started a process"]
    objects = _objects(src)
    assert len(objects) == 1 and objects[0].startswith("_matmul-"), objects
    assert _finish(_start(src, env)) == ["ok", "started no process"]


def test_a_changed_source_is_rebuilt_not_loaded_from_the_old_object(tmp_path):
    src = _package_copy(tmp_path)
    env = _env(src, tmp_path)
    assert _finish(_start(src, env)) == ["ok", "started a process"]
    old = _objects(src)
    kernel = src / "quantdistill" / "_matmul.c"
    body = kernel.read_text()
    line = "sum[r][c] += a[r * k + i] * bi[c];"
    assert body.count(line) == 1
    kernel.write_text(body.replace(line, "sum[r][c] += a[r * k + i] * bi[c] + 1.0f;"))
    assert _finish(_start(src, env)) == ["differs", "started a process"]
    assert len(_objects(src)) == 2 and set(old) < set(_objects(src))


def test_a_package_directory_that_cannot_be_written_still_imports(tmp_path):
    src = _package_copy(tmp_path)
    package = src / "quantdistill"
    mode = package.stat().st_mode
    package.chmod(mode & ~(stat.S_IWUSR | stat.S_IWGRP | stat.S_IWOTH))
    try:
        if os.access(package, os.W_OK):
            # A privileged user writes through the mode bits; a file in
            # the cache's place still keeps the object out of the package.
            package.chmod(mode)
            (package / "__pycache__").write_text("")
            package.chmod(mode & ~(stat.S_IWUSR | stat.S_IWGRP | stat.S_IWOTH))
        env = _env(src, tmp_path)
        assert _finish(_start(src, env)) == ["ok", "started a process"]
        assert not list(package.glob("**/_matmul-*"))
        assert not list((tmp_path / "tmp").iterdir())  # the private build is removed
    finally:
        package.chmod(mode)


def test_a_missing_compiler_fails_the_import_in_one_line(tmp_path):
    src = _package_copy(tmp_path)
    empty = tmp_path / "bin"
    empty.mkdir()
    env = _env(src, tmp_path, PATH=str(empty))
    proc = subprocess.run([sys.executable, "-c", "import quantdistill.tensor_core"], cwd=src,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: cannot build the matmul kernel: "
                           "`cc -O3 -shared -fPIC -ffp-contract=off -o "), last
    assert "No such file or directory: 'cc'" in last and "README" in last, last
    assert not (src / "quantdistill" / "__pycache__").exists() or not _objects(src)
