"""The benchmark's own self-check passes on this checkout's library.

perfbench/ is copied, with src/ linked beside it, so that the runner's
results land in the copy and nothing is written into the checkout.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck passed"
