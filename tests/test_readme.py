"""The library quickstart and the command-line examples in README.md run as
written."""

import re
import shlex
from pathlib import Path

from polydicke import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)


def test_quickstart_runs():
    # the first python code block; its own asserts check the results
    block = _blocks("python")[0]
    exec(compile(block, f"{README}:quickstart", "exec"), {})


def test_cli_examples_run(tmp_path, monkeypatch):
    # the README's system file as sys.json, then every `polydicke` command
    # of its bash blocks, continuation lines joined
    system, = _blocks("json")
    (tmp_path / "sys.json").write_text(system)
    commands = [shlex.split(line) for block in _blocks("bash")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("polydicke ")]
    assert [argv[1] for argv in commands] == [
        "validate", "phase-diagram", "observables", "observables", "exact",
        "compare"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
