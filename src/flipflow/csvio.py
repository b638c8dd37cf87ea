"""CSV tables: one row format for all, a string as given and any other
value as ``repr(float(x))``, the shortest text that reads back exactly."""

from __future__ import annotations

import numpy as np

TRANSFERENCE_HEADER = ["t", "cut_dist", "l1_dist", "sim_density", "traj_density"]


def write_csv(path, header: list[str], rows) -> None:
    """Write the table once every row is formatted: a row that raises
    leaves no file at `path`, and a file already there as it was."""
    lines = [",".join(header)]
    lines += (",".join(x if isinstance(x, str) else repr(float(x)) for x in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back any CSV this package writes: (header, float matrix)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    data = np.array(rows) if rows else np.empty((0, len(header)))
    if data.size and data.shape[1] != len(header):
        raise ValueError(f"ragged CSV {path}: {data.shape[1]} columns vs {len(header)} headers")
    return header, data


def write_transference_csv(report, path) -> None:
    """One row per checkpoint of a `TransferenceReport`: `TRANSFERENCE_HEADER`."""
    write_csv(path, TRANSFERENCE_HEADER, report.rows())
