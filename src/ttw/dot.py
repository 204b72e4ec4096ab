"""Hasse diagrams as DOT text."""

from __future__ import annotations

from .orderkit import FinPoset, Semilattice


def _quoted(text: str) -> str:
    """A DOT double-quoted string holding ``text``."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(poset: FinPoset | Semilattice, name: str = "poset") -> str:
    """A Hasse diagram: nodes in element order, one edge per cover pair,
    drawn bottom-up."""
    if isinstance(poset, Semilattice):
        poset = poset.poset
    lines = [f"digraph {_quoted(name)} {{", "  rankdir=BT;"]
    for i, label in enumerate(poset.elements):
        lines.append(f"  n{i} [label={_quoted(label)}];")
    for i, j in poset.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
