"""The mutation smoke's snippets still match the code, and its runs are judged
as its docstring says.

tests/mutation_smoke.py takes minutes and reports a snippet that no longer
occurs exactly once in its module as stale; this check finds such a snippet
in the suite, as soon as the code it names moves.
"""

from pathlib import Path

import pytest

from mutation_smoke import MUTANTS, fails

SRC = Path(__file__).resolve().parents[1] / "src" / "lorabandit"


def test_every_mutant_snippet_occurs_once_in_its_module():
    for module, name, snippet, _, _ in MUTANTS:
        text = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert text.count(snippet) == 1, f"{module}: {name}"


def test_an_import_failure_kills_a_mutant_but_breaks_the_control_run(tmp_path):
    # pytest exits 2 when a test module fails at import: after a mutation
    # the mutant is killed there, while on the unmutated copy the run broke.
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_broken.py").write_text("raise ImportError('as a mutated package would')\n")
    assert fails(tmp_path, [tests]) == "killed at import"
    with pytest.raises(RuntimeError, match="pytest exited 2"):
        fails(tmp_path, [tests], control=True)
