"""Dataset container and CSV ingestion.

Functional samples live in (n, m) arrays aligned to a shared grid, with NaN
marking unobserved points in sparse designs. Two file layouts are supported:

wide_csv
    Header ``id,[y],[x],[z_<name>...],t=<v1>,...,t=<vm>``, one row per
    subject. The ``t=`` block holds the functional covariate when a scalar
    response column ``y`` is present, and the functional response otherwise.
    Empty cells mark unobserved points.

long_csv
    Columns ``id,t,x[,y_t]``, one row per (subject, time) observation, with
    scalar columns optionally supplied in a companion wide file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .basis import Grid
from .errors import DataError


@dataclass
class FunctionalDataset:
    """Per-subject curves and scalars on a shared grid.

    Exactly which fields are required depends on the model being fit; the
    assemblers validate presence and raise DataError otherwise.
    """

    grid: Grid
    ids: list
    x_curves: np.ndarray | None = None
    y_curves: np.ndarray | None = None
    y_scalar: np.ndarray | None = None
    x_scalar: np.ndarray | None = None
    z_scalars: np.ndarray | None = None
    z_names: list = field(default_factory=list)
    domain: tuple[float, float] | None = None
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
                setattr(self, name, arr)
        for name in ("y_scalar", "x_scalar"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float).ravel()
                if arr.size != n:
                    raise DataError(f"{name} must have one value per subject")
                setattr(self, name, arr)
        if self.z_scalars is not None:
            z = np.atleast_2d(np.asarray(self.z_scalars, dtype=float))
            if z.shape[0] != n:
                raise DataError("z_scalars must have one row per subject")
            self.z_scalars = z
            if not self.z_names:
                self.z_names = [f"z{j}" for j in range(z.shape[1])]
        if self.domain is None:
            pts = self.grid.points
            self.domain = (float(pts[0]), float(pts[-1]))

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
            domain=self.domain,
            meta=dict(self.meta),
        )


def _parse_float(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"non-numeric value {cell!r} at {where}") from None


def _parse_time(cell: str, where: str) -> float:
    t = _parse_float(cell, where)
    if not np.isfinite(t):
        raise DataError(f"non-finite time {cell!r} at {where}")
    return t


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


def _read_wide(path) -> FunctionalDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "id":
        raise DataError(f"{path}: first column must be 'id'")
    t_cols = [(j, name) for j, name in enumerate(header) if name.startswith("t=")]
    if not t_cols:
        raise DataError(f"{path}: no 't=<value>' columns found")
    times = []
    for j, name in t_cols:
        times.append(_parse_time(name[2:], f"header column {j + 1}"))
    order = np.argsort(times)
    times_sorted = np.asarray(times, dtype=float)[order]
    if np.unique(times_sorted).size != times_sorted.size:
        raise DataError(f"{path}: duplicate time columns in header")
    t_indices = [t_cols[k][0] for k in order]

    scalar_cols = {name: j for j, name in enumerate(header) if j > 0 and not name.startswith("t=")}
    ids, y_vals, x_vals, z_rows = [], [], [], []
    z_names = [name for name in header if name.startswith("z_")]
    curves = []
    for r, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        where = f"{path}:{r}"
        row = row + [""] * (len(header) - len(row))
        ids.append(row[0].strip())
        if "y" in scalar_cols:
            y_vals.append(_parse_float(row[scalar_cols["y"]], where))
        if "x" in scalar_cols:
            x_vals.append(_parse_float(row[scalar_cols["x"]], where))
        if z_names:
            z_rows.append([_parse_float(row[scalar_cols[z]], where) for z in z_names])
        curve = np.full(len(t_indices), np.nan)
        for k, j in enumerate(t_indices):
            cell = row[j].strip()
            if cell:
                curve[k] = _parse_float(cell, f"{where} column {j + 1}")
        curves.append(curve)
    if not ids:
        raise DataError(f"{path}: no subject rows")
    block = np.vstack(curves)
    grid = Grid(times_sorted)
    has_scalar_response = "y" in scalar_cols
    return FunctionalDataset(
        grid=grid,
        ids=ids,
        x_curves=block if has_scalar_response else None,
        y_curves=None if has_scalar_response else block,
        y_scalar=np.asarray(y_vals) if y_vals else None,
        x_scalar=np.asarray(x_vals) if x_vals else None,
        z_scalars=np.asarray(z_rows) if z_rows else None,
        z_names=[z[2:] for z in z_names],
    )


def _read_long(path, scalars_path) -> FunctionalDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        # a short row reads as empty trailing cells, as in the wide layout
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        fields = reader.fieldnames = [f.strip() for f in reader.fieldnames]
        if "id" not in fields or "t" not in fields:
            raise DataError(f"{path}: long format needs 'id' and 't' columns")
        has_x = "x" in fields
        has_y = "y_t" in fields
        if not has_x and not has_y:
            raise DataError(f"{path}: long format needs an 'x' or 'y_t' column")
        records = []
        for r, row in enumerate(reader, start=2):
            where = f"{path}:{r}"
            t = _parse_time(row["t"], where)
            x = _parse_float(row["x"], where) if has_x and row.get("x", "").strip() else np.nan
            y = _parse_float(row["y_t"], where) if has_y and row.get("y_t", "").strip() else np.nan
            records.append((row["id"].strip(), t, x, y, r))
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

    y_scalar = x_scalar = z_scalars = None
    z_names: list = []
    if scalars_path is not None:
        companion = _read_scalar_file(scalars_path, ids)
        y_scalar, x_scalar, z_scalars, z_names = companion
    return FunctionalDataset(
        grid=grid,
        ids=ids,
        x_curves=x_curves if np.isfinite(x_curves).any() else None,
        y_curves=y_curves if np.isfinite(y_curves).any() else None,
        y_scalar=y_scalar,
        x_scalar=x_scalar,
        z_scalars=z_scalars,
        z_names=z_names,
    )


def _read_scalar_file(path, ids):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or "id" not in reader.fieldnames:
            raise DataError(f"{path}: scalar file needs an 'id' column")
        fields = [f for f in reader.fieldnames if f != "id"]
        table = {}
        for r, row in enumerate(reader, start=2):
            table[row["id"].strip()] = {
                f: _parse_float(row[f], f"{path}:{r}") for f in fields if row.get(f, "").strip()
            }
    missing = [s for s in ids if s not in table]
    if missing:
        raise DataError(f"{path}: missing scalar rows for subjects {missing[:5]}")
    y = np.array([table[s]["y"] for s in ids]) if all("y" in table[s] for s in ids) else None
    x = np.array([table[s]["x"] for s in ids]) if all("x" in table[s] for s in ids) else None
    z_names = [f for f in fields if f.startswith("z_")]
    z = (
        np.array([[table[s][zn] for zn in z_names] for s in ids])
        if z_names and all(all(zn in table[s] for zn in z_names) for s in ids)
        else None
    )
    return y, x, z, [zn[2:] for zn in z_names]


def write_dataset(data: FunctionalDataset, path, fmt: str = "wide_csv") -> None:
    """Serialize a dataset; values are written with full repr precision."""
    if fmt == "wide_csv":
        _write_wide(data, path)
    elif fmt == "long_csv":
        _write_long(data, path)
    else:
        raise DataError(f"unknown dataset format {fmt!r}")


def _write_wide(data: FunctionalDataset, path) -> None:
    block = data.x_curves if data.y_scalar is not None else data.y_curves
    if block is None:
        raise DataError("wide format needs exactly one functional block")
    header = ["id"]
    if data.y_scalar is not None:
        header.append("y")
    if data.x_scalar is not None:
        header.append("x")
    header.extend(f"z_{name}" for name in (data.z_names if data.z_scalars is not None else []))
    header.extend(f"t={repr(float(t))}" for t in data.grid.points)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, subject in enumerate(data.ids):
            row = [subject]
            if data.y_scalar is not None:
                row.append(repr(float(data.y_scalar[i])))
            if data.x_scalar is not None:
                row.append(repr(float(data.x_scalar[i])))
            if data.z_scalars is not None:
                row.extend(repr(float(v)) for v in data.z_scalars[i])
            row.extend("" if not np.isfinite(v) else repr(float(v)) for v in block[i])
            writer.writerow(row)


def _write_long(data: FunctionalDataset, path) -> None:
    if data.x_curves is None and data.y_curves is None:
        raise DataError("long format needs at least one functional block")
    cols = ["id", "t"]
    if data.x_curves is not None:
        cols.append("x")
    if data.y_curves is not None:
        cols.append("y_t")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        pts = data.grid.points
        for i, subject in enumerate(data.ids):
            for k, t in enumerate(pts):
                x = data.x_curves[i, k] if data.x_curves is not None else np.nan
                y = data.y_curves[i, k] if data.y_curves is not None else np.nan
                if data.x_curves is not None and data.y_curves is not None:
                    if not np.isfinite(x) and not np.isfinite(y):
                        continue
                elif data.x_curves is not None and not np.isfinite(x):
                    continue
                elif data.y_curves is not None and not np.isfinite(y):
                    continue
                row = [subject, repr(float(t))]
                if data.x_curves is not None:
                    row.append(repr(float(x)) if np.isfinite(x) else "")
                if data.y_curves is not None:
                    row.append(repr(float(y)) if np.isfinite(y) else "")
                writer.writerow(row)
