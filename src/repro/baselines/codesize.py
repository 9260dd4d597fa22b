"""Specification-size accounting for the conciseness comparison.

The paper's headline claim (Abstract, Section 1, Section 4) is that overlays
become dramatically smaller when written declaratively: a Narada-style mesh in
16 rules, Chord in 47 rules, versus thousands of lines for MIT Chord and 320+
statements for MACEDON's (less complete) Chord.  This module measures the
equivalent quantities for the artifacts in this repository so the comparison
can be regenerated (:func:`conciseness_table`, :func:`format_table`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, List

from ..overlog import parse_program

#: Figures reported by the paper for external comparators (not reproducible
#: here, recorded for the table).
PAPER_REPORTED = {
    "narada_rules": 16,
    "chord_rules": 47,
    "macedon_chord_statements": 320,
    "mit_chord_lines": "thousands",
}


@dataclass
class SpecSize:
    """Size measurements for one overlay artifact."""

    name: str
    kind: str                  # "overlog" or "python"
    rules: int = 0
    facts: int = 0
    tables: int = 0
    lines: int = 0

    def row(self) -> str:
        if self.kind == "overlog":
            return (
                f"{self.name:24s} OverLog   rules={self.rules:<4d} facts={self.facts:<3d} "
                f"tables={self.tables:<3d} text lines={self.lines}"
            )
        return f"{self.name:24s} Python    lines of code={self.lines}"


def overlog_size(name: str, source: str) -> SpecSize:
    """Count rules / facts / tables and non-blank, non-comment source lines."""
    return SpecSize(
        name=name,
        kind="overlog",
        lines=_count_overlog_lines(source),
        **parse_program(source).counts(),
    )


def python_size(name: str, obj) -> SpecSize:
    """Count non-blank, non-comment, non-docstring lines of a Python module/class."""
    source = inspect.getsource(obj)
    return SpecSize(name=name, kind="python", lines=_count_python_lines(source))


def _count_overlog_lines(source: str) -> int:
    count = 0
    in_block_comment = False
    for raw in source.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
            continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block_comment = True
            continue
        if line.startswith("//") or line.startswith("#"):
            continue
        count += 1
    return count


def _count_python_lines(source: str) -> int:
    count = 0
    in_docstring = False
    delimiter = None
    for raw in source.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_docstring:
            if delimiter in line:
                in_docstring = False
            continue
        if line.startswith('"""') or line.startswith("'''"):
            delimiter = line[:3]
            if line.count(delimiter) < 2:
                in_docstring = True
            continue
        if line.startswith("#"):
            continue
        count += 1
    return count


def conciseness_table() -> List[SpecSize]:
    """Measure every overlay artifact shipped in this repository."""
    from ..overlays import chord, gossip, narada, pingpong
    from . import chord_handcoded

    return [
        overlog_size("Chord (OverLog)", chord.chord_program()),
        overlog_size("Narada mesh (OverLog)", narada.narada_program()),
        overlog_size("Gossip (OverLog)", gossip.gossip_program()),
        overlog_size("Ping/pong (OverLog)", pingpong.pingpong_program()),
        python_size("Chord (hand-coded)", chord_handcoded),
    ]


def format_table(sizes: List[SpecSize]) -> str:
    lines = [s.row() for s in sizes]
    lines.append("")
    lines.append(
        "paper reports: Narada mesh = 16 rules, Chord = 47 rules, "
        "MACEDON Chord = 320+ statements, MIT Chord = thousands of lines of C++"
    )
    return "\n".join(lines)
