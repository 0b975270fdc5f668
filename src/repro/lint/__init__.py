"""Static analysis for the reproduction's determinism and protocol contracts.

``repro.lint`` checks, before any sweep runs, the code-level disciplines
that every byte-identity guarantee rests on: seeded draws only, no global
RNG or wall-clock in measured paths, sorted iteration wherever order can
reach a row or digest, JSON-safe scenario params, and the Algorithm/driver
contracts of :mod:`repro.sim`.  Every rule looks at one file at a time.
What only a whole-program view could see is checked at run time instead:
the seed axis by ``tests/test_driver_catalog.py::TestSeedVariation``,
shared CSR columns by the read-only tuples of
:class:`~repro.graphs.indexed.IndexedGraph`, and the shm attach path by
``tests/test_shm.py``.  See :mod:`repro.lint.engine` for the rule engine
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
