"""The `$ neutrocalc ...` examples in README.md, run through `cli.main`.

Each example's stdout and stderr, in print order, must match the lines
shown under it, with runs of whitespace collapsed (the `table` example
shows its tabs as spaces).  A shown `...` stands for any text: the rest
of a line, or the rest of the output.  Blank lines separate the examples
within one block.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from neutrocalc.cli import main

README = Path(__file__).parents[1] / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    examples = []
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    for block in blocks:
        current = None
        for line in block.splitlines():
            if line.startswith("$ neutrocalc "):
                current = (line[2:], [])
                examples.append(current)
            elif not line.strip():
                current = None
            elif current:
                current[1].append(line)
    return examples


def _collapse(lines: list[str]) -> str:
    return "\n".join(" ".join(line.split()) for line in lines)


EXAMPLES = _examples()


def test_readme_shows_fifteen_examples():
    assert len(EXAMPLES) == 15


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, shown):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        main(shlex.split(command)[1:])
    pattern = ".*".join(map(re.escape, _collapse(shown).split("...")))
    got = printed.getvalue()
    assert re.fullmatch(pattern, _collapse(got.splitlines()), re.S), got
