"""Result tables.

Each benchmark regenerates one table or figure from the evaluation chapter.
``ExperimentTable`` collects rows, prints them in an aligned text table
(the form the pytest-benchmark output is accompanied by), and can persist
them as ``E<n>.json`` (the committed copies live under ``results/``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ExperimentTable:
    """A table of results for one experiment (paper table or figure)."""

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    # -------------------------------------------------------------- rendering
    def render(self) -> str:
        if not self.rows:
            return f"[{self.experiment_id}] {self.title}: (no rows)"
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        widths = {
            column: max(len(column), *(len(self._fmt(row.get(column))) for row in self.rows))
            for column in columns
        }
        lines = [f"[{self.experiment_id}] {self.title}"]
        header = " | ".join(column.ljust(widths[column]) for column in columns)
        lines.append(header)
        lines.append("-+-".join("-" * widths[column] for column in columns))
        for row in self.rows:
            lines.append(
                " | ".join(
                    self._fmt(row.get(column)).ljust(widths[column]) for column in columns
                )
            )
        return "\n".join(lines)

    @staticmethod
    def _fmt(value: Any) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:,.1f}"
        return str(value)

    def print(self) -> None:
        print()
        print(self.render())

    # ------------------------------------------------------------ persistence
    def save(self, directory: str = "results") -> str:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"experiment": self.experiment_id, "title": self.title, "rows": self.rows},
                handle,
                indent=2,
                default=str,
            )
        return path

    # ------------------------------------------------------------ inspection
    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_for(self, **match: Any) -> Optional[Dict[str, Any]]:
        for row in self.rows:
            if all(row.get(key) == value for key, value in match.items()):
                return row
        return None
