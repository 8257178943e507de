"""Dataset container and CSV ingestion.

Functional samples live in (n, m) arrays aligned to a shared grid, with NaN
marking unobserved points in sparse designs. Two file layouts are supported:

wide_csv
    Header ``id,[y],[x],[z_<name>...],t=<v1>,...,t=<vm>``, one row per
    subject. The ``t=`` block holds the functional covariate when a scalar
    response column ``y`` is present, and the functional response otherwise.
    Empty cells mark unobserved points.

long_csv
    Columns ``id,t,x[,y_t]``, one row per (subject, time) observation: the
    curves only. Scalar fields come from a companion file with one row per
    subject and the wide file's ``id``, ``y``, ``x`` and ``z_<name>`` columns.

All files go through one row reader (``_read_rows``), and the wide file and
the companion read their subject columns through one subject-table reader
(``_read_subjects``): subject ids are unique, every ``y``, ``x`` and
``z_<name>`` cell must be numeric (an empty one is an error, not a missing
value) and any other column is ignored. Every number, times included, must be
finite: a ``nan`` or ``inf`` cell is an error, and only an empty curve cell
marks an unobserved point. In the long layout each (id, t) pair is unique.
Errors name the file's real line.

The writer refuses a layout that would drop a field: the wide layout holds
one curve block beside the scalar fields, the long layout the curves only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Grid
from .errors import DataError


@dataclass
class FunctionalDataset:
    """Per-subject curves and scalars on a shared grid.

    Exactly which fields are required depends on the model being fit; the
    assemblers validate presence and raise DataError otherwise. Scalars must be
    finite; a curve may hold NaN (an unobserved point) but not an infinity.
    """

    grid: Grid
    ids: list
    x_curves: np.ndarray | None = None
    y_curves: np.ndarray | None = None
    y_scalar: np.ndarray | None = None
    x_scalar: np.ndarray | None = None
    z_scalars: np.ndarray | None = None
    z_names: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.grid.n_points
        n = len(self.ids)
        for name in ("x_curves", "y_curves"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != (n, m):
                    raise DataError(f"{name} must have shape ({n}, {m}), got {arr.shape}")
                self._refuse(np.isinf(arr), f"{name} holds an infinite value")  # NaN is unobserved
                setattr(self, name, arr)
        for name in ("y_scalar", "x_scalar"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float).ravel()
                if arr.size != n:
                    raise DataError(f"{name} must have one value per subject")
                self._refuse(~np.isfinite(arr), f"{name} holds a non-finite value")
                setattr(self, name, arr)
        if self.z_scalars is not None:
            z = np.atleast_2d(np.asarray(self.z_scalars, dtype=float))
            if z.shape[0] != n:
                raise DataError("z_scalars must have one row per subject")
            self._refuse(~np.isfinite(z), "z_scalars holds a non-finite value")
            self.z_scalars = z
            if not self.z_names:
                self.z_names = [f"z{j}" for j in range(z.shape[1])]
            if len(self.z_names) != z.shape[1]:
                raise DataError("z_names must name each column of z_scalars")

    def _refuse(self, bad: np.ndarray, message: str) -> None:
        """DataError with ``message``, naming the first subject with a ``bad`` entry
        (``bad`` has one row, or one value, per subject)."""
        rows = np.flatnonzero(bad.any(axis=tuple(range(1, bad.ndim))))
        if rows.size:
            raise DataError(f"subject {self.ids[rows[0]]}: {message}")

    @property
    def domain(self) -> tuple[float, float]:
        """Interval the coefficient bases live on: [0, 1], or the grid's span if the
        grid leaves [0, 1]. A one-point grid has no span; it keeps [0, 1]."""
        a, b = float(self.grid.points[0]), float(self.grid.points[-1])
        return (a, b) if (a < 0.0 or b > 1.0) and a < b else (0.0, 1.0)

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_z(self) -> int:
        return 0 if self.z_scalars is None else self.z_scalars.shape[1]

    def observed_mask(self, which: str = "y") -> np.ndarray:
        arr = self.y_curves if which == "y" else self.x_curves
        if arr is None:
            raise DataError(f"dataset has no functional {which}")
        return np.isfinite(arr)

    def is_dense(self, which: str = "y") -> bool:
        return bool(self.observed_mask(which).all())

    def subset(self, indices) -> "FunctionalDataset":
        """New dataset restricted to the given subject indices."""
        indices = np.asarray(indices, dtype=int)

        def take(arr):
            return None if arr is None else arr[indices]

        return FunctionalDataset(
            grid=self.grid,
            ids=[self.ids[i] for i in indices],
            x_curves=take(self.x_curves),
            y_curves=take(self.y_curves),
            y_scalar=take(self.y_scalar),
            x_scalar=take(self.x_scalar),
            z_scalars=take(self.z_scalars),
            z_names=list(self.z_names),
            meta=dict(self.meta),
        )


def _parse_float(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"non-numeric value {cell!r} at {where}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {cell!r} at {where}")
    return value


def _parse_optional(cell: str, where: str) -> float:
    """A cell that may be empty: NaN marks an unobserved value."""
    cell = cell.strip()
    return _parse_float(cell, where) if cell else np.nan


def read_dataset(path, fmt: str = "wide_csv", scalars_path=None) -> FunctionalDataset:
    """Load a dataset from disk; see the module docstring for layouts."""
    try:
        if fmt == "wide_csv":
            return _read_wide(path)
        if fmt == "long_csv":
            return _read_long(path, scalars_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset: {exc}") from None
    raise DataError(f"unknown dataset format {fmt!r}")


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header names and the non-blank rows of a UTF-8 CSV file, each
    padded with empty cells to the header's width and paired with its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        header = [name.strip() for name in header]
        rows = [
            (reader.line_num, row + [""] * (len(header) - len(row)))
            for row in reader
            if any(cell.strip() for cell in row)
        ]
    return header, rows


def _read_subjects(path, header, rows) -> tuple[list, dict]:
    """Subject ids and scalar fields of a file with one row per subject.

    The fields are ``y_scalar``, ``x_scalar`` and ``z_scalars`` with ``z_names``,
    read from whichever of the ``y``, ``x`` and ``z_<name>`` columns the header
    holds; every cell in them must be numeric. Any other column is ignored.
    """
    if "id" not in header:
        raise DataError(f"{path}: needs an 'id' column")
    id_col, col = header.index("id"), {name: j for j, name in enumerate(header)}
    scalar_cols = [name for name in ("y", "x") if name in col]
    z_cols = [name for name in header if name.startswith("z_")]
    names = scalar_cols + z_cols
    ids, values, seen = [], [], set()
    for line, row in rows:
        where = f"{path}:{line}"
        subject = row[id_col].strip()
        if subject in seen:
            raise DataError(f"{where}: duplicate subject id {subject!r}")
        seen.add(subject)
        ids.append(subject)
        values.append([_parse_float(row[col[name]], where) for name in names])
    table = np.array(values).reshape(len(ids), len(names))
    fields = {f"{name}_scalar": table[:, j].copy() for j, name in enumerate(scalar_cols)}
    if z_cols:
        fields.update(z_scalars=table[:, -len(z_cols) :].copy(), z_names=[z[2:] for z in z_cols])
    return ids, fields


def _read_wide(path) -> FunctionalDataset:
    header, rows = _read_rows(path)
    if not header or header[0] != "id":
        raise DataError(f"{path}: first column must be 'id'")
    t_cols = [(j, name) for j, name in enumerate(header) if name.startswith("t=")]
    if not t_cols:
        raise DataError(f"{path}: no 't=<value>' columns found")
    times = [_parse_float(name[2:], f"{path} header column {j + 1}") for j, name in t_cols]
    order = np.argsort(times)
    times_sorted = np.asarray(times, dtype=float)[order]
    if np.unique(times_sorted).size != times_sorted.size:
        raise DataError(f"{path}: duplicate time columns in header")
    t_indices = [t_cols[k][0] for k in order]
    ids, fields = _read_subjects(path, header, rows)
    if not ids:
        raise DataError(f"{path}: no subject rows")
    block = np.array([
        [_parse_optional(row[j], f"{path}:{line} column {j + 1}") for j in t_indices]
        for line, row in rows
    ])
    curves = "x_curves" if "y_scalar" in fields else "y_curves"
    return FunctionalDataset(grid=Grid(times_sorted), ids=ids, **{curves: block}, **fields)


def _read_long(path, scalars_path) -> FunctionalDataset:
    header, rows = _read_rows(path)
    if "id" not in header or "t" not in header:
        raise DataError(f"{path}: long format needs 'id' and 't' columns")
    if "x" not in header and "y_t" not in header:
        raise DataError(f"{path}: long format needs an 'x' or 'y_t' column")
    records = []
    for line, row in rows:
        where = f"{path}:{line}"
        cells = dict(zip(header, row))
        t = _parse_float(cells["t"], where)
        x, y = (_parse_optional(cells.get(name, ""), where) for name in ("x", "y_t"))
        records.append((cells["id"].strip(), t, x, y, line))
    if not records:
        raise DataError(f"{path}: no observation rows")
    ids = list(dict.fromkeys(rec[0] for rec in records))  # first-seen order
    times = np.unique([rec[1] for rec in records])
    grid = Grid(times)
    time_index = {t: k for k, t in enumerate(times)}
    id_index = {s: i for i, s in enumerate(ids)}
    x_curves = np.full((len(ids), times.size), np.nan)
    y_curves = np.full((len(ids), times.size), np.nan)
    seen = set()
    for subject, t, x, y, r in records:
        key = (subject, t)
        if key in seen:
            raise DataError(f"{path}:{r}: duplicate time {t} for subject {subject}")
        seen.add(key)
        i, k = id_index[subject], time_index[t]
        x_curves[i, k] = x
        y_curves[i, k] = y
    fields = {} if scalars_path is None else _read_scalar_file(scalars_path, ids)
    return FunctionalDataset(
        grid=grid,
        ids=ids,
        x_curves=x_curves if np.isfinite(x_curves).any() else None,
        y_curves=y_curves if np.isfinite(y_curves).any() else None,
        **fields,
    )


def _read_scalar_file(path, ids) -> dict:
    """The companion's scalar fields, in the order of the long file's ``ids``; the
    companion has one row for each subject of the long file and no other rows."""
    header, rows = _read_rows(path)
    table_ids, fields = _read_subjects(path, header, rows)
    row_of = {s: i for i, s in enumerate(table_ids)}
    missing = [s for s in ids if s not in row_of]
    if missing:
        raise DataError(f"{path}: missing scalar rows for subjects {missing[:5]}")
    known = set(ids)
    unknown = [s for s in table_ids if s not in known]
    if unknown:
        raise DataError(f"{path}: scalar rows for subjects not in the long file: {unknown[:5]}")
    index = [row_of[s] for s in ids]
    return {name: v if name == "z_names" else v[index] for name, v in fields.items()}


_FIELDS = ("x_curves", "y_curves", "y_scalar", "x_scalar", "z_scalars")


def _dropped(data: FunctionalDataset, fmt: str) -> list[str]:
    """The dataset's fields that a file of layout ``fmt`` cannot hold: a long file
    holds the curves, a wide file one curve block beside the scalar fields."""
    if fmt == "long_csv":
        held = _FIELDS[:2]
    else:
        held = ("x_curves" if data.y_scalar is not None else "y_curves", *_FIELDS[2:])
    return [name for name in _FIELDS if getattr(data, name) is not None and name not in held]


def write_dataset(data: FunctionalDataset, path, fmt: str = "wide_csv") -> None:
    """Serialize a dataset; values are written with full repr precision.

    A layout that cannot hold every field of the dataset is refused with a
    DataError naming the fields it would drop, rather than writing a file that
    reads back as a different dataset.
    """
    writers = {"wide_csv": _write_wide, "long_csv": _write_long}
    if fmt not in writers:
        raise DataError(f"unknown dataset format {fmt!r}")
    dropped = _dropped(data, fmt)
    if dropped:
        other = "long_csv" if fmt == "wide_csv" else "wide_csv"
        hint = "no layout holds all its fields" if _dropped(data, other) else f"{other} keeps them"
        raise DataError(f"{fmt} would drop {', '.join(dropped)}; {hint}")
    writers[fmt](data, path)


def _cell(value) -> str:
    """A curve value as written: full repr precision, empty when unobserved."""
    return repr(float(value)) if np.isfinite(value) else ""


def _write_wide(data: FunctionalDataset, path) -> None:
    block = data.x_curves if data.y_scalar is not None else data.y_curves
    if block is None:
        raise DataError("wide format needs exactly one functional block")
    columns = [(n, v) for n, v in (("y", data.y_scalar), ("x", data.x_scalar)) if v is not None]
    if data.z_scalars is not None:
        columns += [(f"z_{name}", v) for name, v in zip(data.z_names, data.z_scalars.T)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *(name for name, _ in columns),
                         *(f"t={float(t)!r}" for t in data.grid.points)])
        for i, subject in enumerate(data.ids):
            scalars = (repr(float(v[i])) for _, v in columns)
            writer.writerow([subject, *scalars, *map(_cell, block[i])])


def _write_long(data: FunctionalDataset, path) -> None:
    blocks = {
        name: arr for name, arr in (("x", data.x_curves), ("y_t", data.y_curves)) if arr is not None
    }
    if not blocks:
        raise DataError("long format needs at least one functional block")
    # a point is written unless every block the file holds leaves it unobserved
    written = np.isfinite(np.stack(list(blocks.values()))).any(axis=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", *blocks])
        for i, subject in enumerate(data.ids):
            for k in np.flatnonzero(written[i]):
                cells = [_cell(arr[i, k]) for arr in blocks.values()]
                writer.writerow([subject, repr(float(data.grid.points[k])), *cells])
