"""``repro lint --plugins``: lint the resolved algorithm registry.

Third-party scenarios register through entry points or ``REPRO_PLUGINS``
(see :mod:`repro.api.algorithms`), so their driver source never sits under
a path the user would pass to ``repro lint``.  This mode closes the gap:
it runs plugin discovery, resolves every registered
:class:`~repro.api.algorithms.AlgorithmSpec` to its driver (and oracle)
source files, and lints each file once — the same determinism gate the
built-ins get, applied to whatever the registry actually loaded.

Resolution failures are findings, not crashes: a spec whose entry point
does not import is reported as :data:`RESOLVE_RULE_ID` so a broken plugin
fails the lint gate loudly instead of vanishing from the sweep catalog.
"""

from __future__ import annotations

from pathlib import Path

from .engine import Finding, _analyze_source

__all__ = ["RESOLVE_RULE_ID", "lint_plugins"]

#: Pseudo-rule id for specs whose driver/oracle cannot be resolved.
RESOLVE_RULE_ID = "X200"


def lint_plugins(
    *,
    select: tuple | None = None,
    ignore: tuple | None = None,
) -> tuple:
    """Lint every registered algorithm's source; ``(findings, checked)``.

    Runs :func:`repro.api.algorithms.discover` first (forced, so a fresh
    ``REPRO_PLUGINS`` value takes effect even after an earlier discovery),
    then maps each registered spec to source files via
    :meth:`AlgorithmSpec.source_paths` and lints each file once.  The
    returned ``checked`` list pairs each file with the specs it backs,
    as ``"path (algorithms: a, b)"`` strings, so the CLI can show which
    algorithms a finding implicates.
    """
    from ..api.algorithms import discover, list_algorithm_specs

    # Registration is an import side effect: built-in specs live in
    # repro.api.drivers, built-in scenarios in repro.sim.experiments.
    # Import both so --plugins sees exactly the registry a sweep would.
    from ..api import drivers as _builtin_drivers  # noqa: F401
    from ..sim import experiments as _builtin_scenarios  # noqa: F401

    findings: list[Finding] = []
    discover(force=True)
    sources: dict[str, list[str]] = {}
    for spec in list_algorithm_specs():
        try:
            paths = spec.source_paths()
        except Exception as exc:
            findings.append(
                Finding(
                    rule=RESOLVE_RULE_ID,
                    name="unresolvable-spec",
                    severity="error",
                    path=f"<registry:{spec.name}>",
                    line=1,
                    col=0,
                    message=(
                        f"algorithm {spec.name!r} "
                        f"(entry point {spec.entry_point!r}) failed to "
                        f"resolve: {exc}"
                    ),
                )
            )
            continue
        for path in paths:
            sources.setdefault(path, []).append(spec.name)
    checked: list[str] = []
    for path in sorted(sources):
        names = ", ".join(sorted(sources[path]))
        checked.append(f"{path} (algorithms: {names})")
        text = Path(path).read_text(encoding="utf-8")
        findings.extend(_analyze_source(text, path, select, ignore))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, checked
