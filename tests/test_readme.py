"""The README's Python examples run as written and print what they say."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_and_prints_its_comments(block):
    # every print in the examples runs once and prints one line, so the
    # k-th print statement wrote the k-th line
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(prints)
    for statement, printed in zip(prints, lines):
        if "#" in statement:
            assert printed == statement.split("#", 1)[1].strip()
