"""Every command-line output stays byte-identical to the golden digests.

``tests/data/output_digests.txt`` is what ``scripts/output_digests.py``
printed when the outputs last changed on purpose.  A change that moves an
output regenerates the file and names each changed line in CHANGES.md:

    python3 scripts/output_digests.py > tests/data/output_digests.txt

``argparse`` formats help text per Python minor version and the file is
written under Python 3.11, so on another minor version the help lines are
left out of the comparison.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "output_digests.txt"
GOLDEN_PYTHON = (3, 11)


def _key(line: str) -> str:
    """The workload and command of a digest line."""
    return " | ".join(line.split(" | ")[:2])


def _is_help(line: str) -> bool:
    argv = line.split(" | ")[1].split()[1:]
    return "--help" in argv or "-h" in argv


def test_outputs_match_the_golden_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True, check=True)
    want = GOLDEN.read_text().splitlines()
    got = proc.stdout.splitlines()
    assert [_key(line) for line in got] == [_key(line) for line in want], \
        "the digest script runs other commands than the golden file lists"
    other_python = sys.version_info[:2] != GOLDEN_PYTHON
    differ = [_key(old) for old, new in zip(want, got)
              if old != new and not (other_python and _is_help(old))]
    assert not differ, ("outputs differ from the golden digests:\n"
                        + "\n".join(differ))
    if other_python:
        pytest.skip("--help lines not compared: the golden digests are "
                    "for Python 3.11's argparse, this is Python "
                    f"{sys.version_info[0]}.{sys.version_info[1]}")
