"""tools/digest.py prints tests/golden_digests.txt: each section, header and
lines, as committed. The mc section hashes floats rounded to 10 significant
digits, since BLAS-summed draws differ in their last bits between hosts
(see the tool's docstring)."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
GOLDEN = Path(__file__).with_name("golden_digests.txt")


def _sections(text: str) -> dict:
    """{section name: its lines, header "== <name> <sha256>" first}."""
    sections = {}
    for line in text.splitlines():
        if line.startswith("== "):
            lines = sections[line.split()[1]] = []
        lines.append(line)
    return sections


@pytest.fixture(scope="module")
def printed() -> dict:
    """The sections that `python tools/digest.py` prints, run once in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(TOOL), run_name="__main__")
    return _sections(out.getvalue())


@pytest.mark.parametrize("section", _sections(GOLDEN.read_text()))
def test_digest_tool_prints_its_golden_lines(section, printed):
    want = _sections(GOLDEN.read_text())
    assert list(printed) == list(want), "the tool and the golden file list other sections"
    got, want = printed[section], want[section]
    if got == want:
        return
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    pytest.fail(f"section {section} differs first at its line {at + 1}:\n"
                f"  got  {got[at] if at < len(got) else '<no line>'}\n"
                f"  want {want[at] if at < len(want) else '<no line>'}")
