"""Export experiment results to CSV.

Every experiment's summary is a dict whose tabular payloads are
lists of flat row-dicts (usually under ``"rows"``, sometimes nested one
level, e.g. Fig. 3's ``quad``/``thirtytwo`` panels). The exporter
flattens that shape generically so downstream users can plot the paper's
figures with their own tooling:

    from repro.experiments.export import export_csv
    from repro.experiments.options import RunOptions
    from repro.experiments.registry import get_experiment

    result = get_experiment("fig7").run(RunOptions(instructions=200_000))
    export_csv(result, "fig7")          # fig7_quad.csv, fig7_sixteen.csv
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Union

__all__ = ["collect_tables", "export_csv", "rows_to_csv"]


def collect_tables(result: Dict) -> Dict[str, List[dict]]:
    """Find every list-of-row-dicts table in an experiment result.

    Top-level ``rows`` is exported under the experiment id; nested panels
    (dict values that themselves contain ``rows``) are exported under
    their key.
    """
    tables: Dict[str, List[dict]] = {}
    base = result.get("id", "experiment")
    for key, value in result.items():
        if key == "rows" and _is_row_table(value):
            tables[base] = value
        elif isinstance(value, dict) and _is_row_table(value.get("rows")):
            tables[f"{base}_{key}"] = value["rows"]
    return tables


def _is_row_table(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(isinstance(row, dict) for row in value)
    )


def rows_to_csv(rows: List[dict], path: Union[str, Path]) -> Path:
    """Write one table (union of row keys as the header)."""
    if not rows:
        raise ValueError("cannot export an empty table")
    path = Path(path)
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path


def export_csv(result: Dict, prefix: Union[str, Path]) -> List[Path]:
    """Write every table in ``result`` as ``<prefix>[_panel].csv``.

    Returns:
        The written paths (empty if the result holds no row tables).
    """
    prefix = Path(prefix)
    tables = collect_tables(result)
    written = []
    for name, rows in tables.items():
        suffix = "" if name == result.get("id", "experiment") else f"_{name.split('_', 1)[-1]}"
        written.append(rows_to_csv(rows, prefix.with_name(prefix.name + suffix + ".csv")))
    return written
