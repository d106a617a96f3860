"""The documentation's interactive examples must actually work."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
#: ``python -m repro`` and the rest of its line or code span; a trailing
#: backslash continues the command on the next line.
COMMAND = re.compile(r"python -m repro(?![\w.])((?:[^`\n\\]|\\\n)*)")


def test_protocol_walkthrough_doctests():
    results = doctest.testfile(
        str(DOCS / "protocol.md"),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted >= 5, "walkthrough lost its examples"
    assert results.failed == 0


def test_readme_quickstart_snippet_is_valid():
    """The README's quickstart must keep working verbatim."""
    import repro

    net = repro.build_network(topology="indoor-testbed", protocol="tele", seed=1)
    net.converge()
    record = net.send_control(7, payload={"ipi_s": 600})
    net.run(30)
    assert record.destination == 7
    # `delivered`, `latency_s`, `athx` are the advertised fields.
    _ = (record.delivered, record.latency_s, record.athx)


def documented_commands():
    """Every ``python -m repro …`` command in the docs and the CLI docstring."""
    sources = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *sorted(DOCS.glob("*.md"))]
    texts = [(path.name, path.read_text()) for path in sources]
    texts.append(("cli.py", cli.__doc__))
    for name, text in texts:
        for match in COMMAND.finditer(text):
            argv = shlex.split(match.group(1).replace("\\\n", " "), comments=True)
            yield pytest.param(argv, id=f"{name}: {' '.join(argv)}")


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_command_parses(argv):
    parser = cli.build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit:
        pytest.fail(f"python -m repro {' '.join(argv)} does not parse")
