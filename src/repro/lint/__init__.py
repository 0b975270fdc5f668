"""Static analysis for the reproduction's determinism and protocol contracts.

``repro.lint`` checks, before any sweep runs, the code-level disciplines
that every byte-identity guarantee rests on and that no runtime test
would see break: seeded draws only, no global RNG, wall-clock or
environment reads in measured paths, sorted iteration wherever order can
reach a row or digest, and no ``ctx``/``inbox`` kept across rounds.  Every
rule looks at one file at a time.  The rest is checked at run time
instead: the seed axis by
``tests/test_driver_catalog.py::TestSeedVariation``, JSON-safe quality
columns by its ``TestRowContract``, shared CSR columns by the read-only
tuples of :class:`~repro.graphs.indexed.IndexedGraph`, and the shm attach
path by ``tests/test_shm.py``.  See :mod:`repro.lint.engine` for the rule engine
and pragma syntax, :mod:`repro.lint.rules` for the rule set, and
``repro lint --list-rules`` for the live catalog.
"""

from .engine import (
    Finding,
    PRAGMA_RULE_ID,
    Rule,
    SYNTAX_RULE_ID,
    lint_file,
    lint_paths,
    lint_source,
    resolve_rule_selection,
)
from .plugins import RESOLVE_RULE_ID, lint_plugins
from .rules import RULES
from .sarif import render_sarif

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_plugins",
    "render_sarif",
    "resolve_rule_selection",
    "SYNTAX_RULE_ID",
    "PRAGMA_RULE_ID",
    "RESOLVE_RULE_ID",
]
