"""The claims ledger, docs/claims.md, held to what the code prints and to
what pytest collects: every result key printed by the README's `verify`
and `check` commands is named in a ledger row, and every test a row names
exists."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

from hermitia.cli import main

ROOT = Path(__file__).resolve().parents[1]

# the envelope's structure, not results: what ran, its tolerance, the
# verdict, and the containers of the result keys
_STRUCTURE = {"suite", "tolerance", "pass", "residuals", "points", "point",
              "positivity"}


def _rows():
    """The "Residual key / test" cell of each ledger row, with the list of
    its backticked names."""
    out, column = [], None
    for line in (ROOT / "docs" / "claims.md").read_text().splitlines():
        if not line.startswith("| "):
            continue
        # an escaped \| is part of a cell
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
        if "Residual key / test" in cells:
            column = cells.index("Residual key / test")
        else:
            out.append((cells[column], re.findall(r"`([^`]+)`",
                                                  cells[column])))
    return out


def _readme_commands():
    """The README's `verify` and `check` command lines."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```[^\n]*\n(.*?)```", text, re.S)
    return [line for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith(("hermitia verify ", "hermitia check "))]


def _keys(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


def test_every_printed_result_key_is_named_in_the_ledger(capsys):
    commands = _readme_commands()
    assert {c.split()[1] for c in commands} == {"verify", "check"}
    printed = set()
    for command in commands:
        code = main(shlex.split(command)[1:])
        assert code == 0, command
        printed |= set(_keys(json.loads(capsys.readouterr().out)["results"]))
    named = {name for _, names in _rows() for name in names}
    prefixes = {name[:-1] for name in named if name.endswith(".*")}

    def covered(key):
        # a row naming `P.*` covers P.x for each x the ledger names
        head, dot, tail = key.rpartition(".")
        return key in named or (f"{head}." in prefixes and tail in named)

    missing = sorted(k for k in printed - _STRUCTURE if not covered(k))
    assert not missing, missing


def _named_tests():
    """(file, test) for every test a row names: `file.py::test`, a bare
    `test_...` after it meaning the same file, and "criterion k" the
    acceptance test of that number; a bare `file.py` names the file."""
    files, tests = set(), set()
    for line, names in _rows():
        current = None
        for name in names:
            path, _, test = name.partition("::")
            if path.endswith(".py"):
                current = path
                files.add(path)
                if test:
                    tests.add((path, test))
            elif re.fullmatch(r"test_\w+", name):
                assert current, f"{name} names no file: {line}"
                tests.add((current, name))
        for k in re.findall(r"criterion (\d+)", line):
            files.add("test_acceptance.py")
            tests.add(("test_acceptance.py", f"test_criterion_{k}_"))
    return files, tests


def test_every_test_the_ledger_names_is_collected():
    files, tests = _named_tests()
    files = {f for f in files if f.startswith("test_")}
    assert len(tests) > 30
    assert all((ROOT / "tests" / f).is_file() for f in files), files
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *sorted(f"tests/{f}" for f in files)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    collected = {tuple(Path(node.split("[")[0]).name.split("::"))
                 for node in done.stdout.splitlines() if "::" in node}
    # a criterion is named by its number, the prefix of its test's name
    missing = sorted(
        (f, t) for f, t in tests
        if not any(cf == f and (ct == t or t.endswith("_") and
                                ct.startswith(t)) for cf, ct in collected))
    assert not missing, missing
