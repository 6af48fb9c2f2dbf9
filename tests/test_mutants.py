"""The mutation smoke's snippets still match the code.

tests/mutation_smoke.py takes minutes and reports a snippet that no longer
occurs exactly once in its module as stale; this check finds such a snippet
in the suite, as soon as the code it names moves.
"""

from pathlib import Path

from mutation_smoke import MUTANTS

SRC = Path(__file__).resolve().parents[1] / "src" / "lorabandit"


def test_every_mutant_snippet_occurs_once_in_its_module():
    for module, name, snippet, _, _ in MUTANTS:
        text = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert text.count(snippet) == 1, f"{module}: {name}"
