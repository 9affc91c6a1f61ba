"""Fast checks of the benchmark itself: every workload at toy size.

    python -m pytest perfbench/test_smoke.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_emits_every_named_metric():
    proc = run(ROOT, "--smoke")
    assert proc.returncode == 0, proc.stderr


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run(tmp_path, "--workload", "crowd_embed", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
