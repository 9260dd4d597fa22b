"""Spanned diagnostics for OverLog static analysis.

This module is the reporting half of the compiler front end: every check in
:mod:`repro.overlog.check` and :mod:`repro.planner.analyzer` emits
:class:`Diagnostic` records — severity, a stable ``OLG0xx`` code, a message,
and a source :class:`Span` — instead of raising on the first problem.  The
collector accumulates *all* findings for a program so a 40-rule Chord spec
reports its arity typo, its dead rule, and its unstratified cycle in one run.

Diagnostic codes (stable; tests golden-match them):

========  ========  ==================================================
code      severity  meaning
========  ========  ==================================================
OLG000    error     source could not be parsed (CLI only)
OLG001    error     rule has no positive body predicate
OLG002    error     rule body is not localized (terms at several nodes)
OLG003    error     head variable not bound by the body (unsafe rule)
OLG004    error     selection uses an unbound variable
OLG005    error     negated predicate is not a materialized table
OLG006    error     negated predicate uses an unbound variable
OLG007    error     rule joins streams against streams
OLG008    error     rule nests an expression too deeply to analyze
OLG010    error     predicate used with inconsistent arity
OLG011    error     table materialized more than once
OLG012    error     keys(...) positions invalid or outside the arity
OLG013    error     field/variable types contradict across the program
OLG014    error     location specifier does not unify with the address type
OLG015    warning   unknown built-in function (not in the default registry)
OLG016    error     built-in called with the wrong number of arguments
OLG020    error     derivation cycle through negation (unstratifiable)
OLG021    error     derivation cycle through continuous aggregation
OLG030    warning   rule derives an event predicate nothing consumes
OLG031    warning   event predicate consumed but never emitted
OLG032    warning   table materialized but never read
========  ========  ==================================================

Warnings can be suppressed inline with an ``olg:allow`` pragma anywhere in a
comment, program-wide, optionally scoped to one predicate::

    /* the latency table is the program's output — olg:allow(OLG032, latency) */

Reports render rustc-style, ``file:line:col: severity[OLG0xx]: message``,
optionally echoing the offending source line with a caret.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Span:
    """A source position (1-based line and column) with an optional end."""

    line: int
    column: int
    end_line: Optional[int] = None
    end_column: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


#: Span used when no source position is known (line 0 sorts first).
UNKNOWN_SPAN = Span(0, 0)


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: severity, stable code, message, and source span.

    ``subject`` names the predicate (or built-in) the finding is about, when
    there is one; ``olg:allow(CODE, subject)`` pragmas match against it.
    """

    severity: Severity
    code: str
    message: str
    span: Span = UNKNOWN_SPAN
    subject: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def format(self, filename: str = "<program>") -> str:
        return (
            f"{filename}:{self.span.line}:{self.span.column}: "
            f"{self.severity}[{self.code}]: {self.message}"
        )

    def sort_key(self):
        return (self.span.line, self.span.column, self.code, self.message)


class DiagnosticCollector:
    """Accumulates diagnostics instead of failing fast.

    The per-rule analyzer and every whole-program check append here; the
    caller decides afterwards whether any finding is fatal (errors always,
    warnings under ``strict``).
    """

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []

    def emit(
        self,
        severity: Severity,
        code: str,
        message: str,
        span: Optional[Span] = None,
        subject: Optional[str] = None,
    ) -> Diagnostic:
        diag = Diagnostic(severity, code, message, span or UNKNOWN_SPAN, subject)
        self.diagnostics.append(diag)
        return diag

    def error(self, code: str, message: str, span: Optional[Span] = None,
              subject: Optional[str] = None) -> Diagnostic:
        return self.emit(Severity.ERROR, code, message, span, subject)

    def warning(self, code: str, message: str, span: Optional[Span] = None,
                subject: Optional[str] = None) -> Diagnostic:
        return self.emit(Severity.WARNING, code, message, span, subject)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    def sorted(self) -> List[Diagnostic]:
        """Deduplicated diagnostics in source order."""
        seen = set()
        out = []
        for diag in sorted(self.diagnostics, key=Diagnostic.sort_key):
            key = (diag.code, diag.span, diag.message)
            if key in seen:
                continue
            seen.add(key)
            out.append(diag)
        return out


def render_report(
    diagnostics: Sequence[Diagnostic],
    filename: str = "<program>",
    source: Optional[str] = None,
) -> str:
    """Render diagnostics rustc-style, echoing the source line when given.

    ::

        chord.olg:12:4: error[OLG010]: predicate 'succ' used with 2 fields ...
           12 | N1 succEvent@NI(NI, S) :- succ@NI(NI, S).
              |                           ^
    """
    lines: List[str] = []
    source_lines = source.splitlines() if source is not None else None
    for diag in diagnostics:
        lines.append(diag.format(filename))
        if source_lines and 1 <= diag.span.line <= len(source_lines):
            text = source_lines[diag.span.line - 1].rstrip()
            gutter = f"{diag.span.line:>5} | "
            lines.append(f"{gutter}{text}")
            caret_pad = " " * (len(gutter) - 2) + "| " + " " * (diag.span.column - 1)
            lines.append(caret_pad + "^")
    return "\n".join(lines)


def summarize(diagnostics: Sequence[Diagnostic]) -> str:
    """A one-line ``N error(s), M warning(s)`` summary."""
    n_err = sum(1 for d in diagnostics if d.is_error)
    n_warn = len(diagnostics) - n_err
    parts = []
    if n_err:
        parts.append(f"{n_err} error{'s' if n_err != 1 else ''}")
    if n_warn:
        parts.append(f"{n_warn} warning{'s' if n_warn != 1 else ''}")
    return ", ".join(parts) if parts else "no diagnostics"
