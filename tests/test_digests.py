"""The digest tools print the lines committed in tests/golden_digests.txt."""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_digests.txt")


def _golden() -> dict:
    """{tool file name: (sha256 of its stdout, its stdout lines)}."""
    sections, lines = {}, None
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("== "):
            _, tool, sha = line.split()
            lines = []
            sections[tool] = (sha, lines)
        elif not line.startswith("#"):
            lines.append(line)
    return sections


def _stdout(tool: str) -> str:
    """What `python tools/<tool>` prints, run in this process."""
    spec = importlib.util.spec_from_file_location(Path(tool).stem, ROOT / "tools" / tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return out.getvalue()


@pytest.mark.parametrize("tool", _golden())
def test_digest_tool_prints_its_golden_lines(tool):
    sha, want = _golden()[tool]
    assert hashlib.sha256("".join(f"{w}\n" for w in want).encode()).hexdigest() == sha, \
        f"the golden lines of {tool} do not hash to their header"
    text = _stdout(tool)
    if hashlib.sha256(text.encode()).hexdigest() == sha:
        return
    got = text.splitlines()
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    pytest.fail(f"{tool} differs first at line {at + 1}:\n"
                f"  got  {got[at] if at < len(got) else '<no line>'}\n"
                f"  want {want[at] if at < len(want) else '<no line>'}")
