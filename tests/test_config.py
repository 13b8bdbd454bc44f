"""The pytest configuration in pyproject.toml does what it says."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pytest(tmp_path, mark):
    test = tmp_path / "test_marked.py"
    test.write_text(f"import pytest\n\n\n@pytest.mark.{mark}\ndef test_marked():\n    pass\n")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(test)],
        capture_output=True,
        text=True,
    )


def test_registered_mark_runs(tmp_path):
    r = _pytest(tmp_path, "slow")
    assert r.returncode == 0, r.stdout
    assert "1 passed" in r.stdout


def test_mistyped_mark_is_an_error(tmp_path):
    r = _pytest(tmp_path, "slwo")
    assert r.returncode != 0
    assert "'slwo' not found in `markers`" in r.stdout
