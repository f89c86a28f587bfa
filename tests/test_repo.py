"""Repository hygiene: generated files stay out of version control."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def _toplevel():
    if shutil.which("git") is None:
        return None
    out = _git("rev-parse", "--show-toplevel")
    return Path(out.stdout.strip()).resolve() if out.returncode == 0 else None


def test_no_tracked_file_is_gitignored():
    if _toplevel() != ROOT:
        pytest.skip("not a git checkout of this repository")
    ignored = _git("ls-files", "-ci", "--exclude-standard")
    assert ignored.returncode == 0, ignored.stderr
    assert ignored.stdout.splitlines() == []
