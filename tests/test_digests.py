"""The digest tools print the lines committed in tests/golden_digests.txt,
each run with the arguments of its section's header: the Monte Carlo tool
rounds its floats to 10 significant digits, since BLAS-summed draws differ
in their last bits between hosts (see the golden file)."""

import contextlib
import hashlib
import io
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_digests.txt")


def _golden() -> dict:
    """{tool file name: (its arguments, sha256 of its stdout, its stdout lines)}."""
    sections, lines = {}, None
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("== "):
            _, tool, *args, sha = line.split()
            lines = []
            sections[tool] = (args, sha, lines)
        elif not line.startswith("#"):
            lines.append(line)
    return sections


def _stdout(tool: str, args: list, monkeypatch) -> str:
    """What `python tools/<tool> <args>` prints, run in this process."""
    monkeypatch.setattr(sys, "argv", [tool, *args])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "tools" / tool), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("tool", _golden())
def test_digest_tool_prints_its_golden_lines(tool, monkeypatch):
    args, sha, want = _golden()[tool]
    assert hashlib.sha256("".join(f"{w}\n" for w in want).encode()).hexdigest() == sha, \
        f"the golden lines of {tool} do not hash to their header"
    text = _stdout(tool, args, monkeypatch)
    if hashlib.sha256(text.encode()).hexdigest() == sha:
        return
    got = text.splitlines()
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    pytest.fail(f"{tool} differs first at line {at + 1}:\n"
                f"  got  {got[at] if at < len(got) else '<no line>'}\n"
                f"  want {want[at] if at < len(want) else '<no line>'}")
