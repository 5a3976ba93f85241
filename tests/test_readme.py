"""The README's library snippet runs as documented, and every CLI example
that shows output prints that output."""

import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

from degconn.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["open_after_step_1"] == 6
    assert namespace["trace"].died_at == 3
    assert namespace["exact"] == Fraction(1, 1)


def cli_output(command):
    """What `degconn ...` prints on stdout, run in process."""
    argv = shlex.split(command)
    assert argv[0] == "degconn", command
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv[1:]) == 0, command
    return out.getvalue()


def test_readme_cli_examples_print_what_they_show():
    # a block whose command is followed by lines shows its output, up to
    # a "..." line where it is cut short
    shown = 0
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        command, *expected = block.splitlines()
        if not command.startswith("degconn ") or not expected:
            continue
        if "..." in expected:
            expected = expected[:expected.index("...")]
        actual = cli_output(command).splitlines()
        assert actual[:len(expected)] == expected, command
        shown += 1
    assert shown == 3


def test_readme_census_p_hat_is_current():
    command, p_hat = re.search(r"```sh\n(degconn census .*)\n```\s+samples"
                               r" \d+ realizations and reports\s+`p_hat`"
                               r" \(([\d.]+) at this seed",
                               README.read_text()).groups()
    assert f'"p_hat": {p_hat},' in cli_output(command)
