"""Synthetic datasets, stratified splits and CSV round-tripping.

The in-distribution benchmark is a ring of K Gaussian blobs whose spread
overlaps on purpose, so a trained model makes *some* validation errors
(threshold calibration needs both correct and wrong predictions).

Out-of-distribution samples are placed with explicit geometric margins so
they provably do not intersect the ID support:

    ring        radius >= 3x the largest class-center radius
    far_cluster every sample further than 10 sigma from every ID center
    uniform_box uniform over a box 5x the ID bounding box, with the ID
                bounding box itself cut out

OOD rows carry label -1 (written as "ood" in CSV).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

OOD_LABEL = -1
OOD_KINDS = ("ring", "far_cluster", "uniform_box")


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, -1 = OOD
    n_classes: int
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise DataError("Dataset: features must be (n, d) with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise DataError("Dataset: features must be finite")
        bad = (self.labels != OOD_LABEL) & (
            (self.labels < 0) | (self.labels >= self.n_classes)
        )
        if bad.any():
            raise DataError(
                "Dataset: labels must be in 0..n_classes-1, or -1 for OOD rows"
            )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def circle_centers(n_classes: int, dim: int = 2, radius: float = 4.0) -> np.ndarray:
    """Class centers evenly spaced on a circle in the first two coordinates."""
    if n_classes < 2 or dim < 2:
        raise DataError("circle_centers: need n_classes >= 2 and dim >= 2")
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers = np.zeros((n_classes, dim))
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def gen_blobs(
    n_per_class: int = 500,
    n_classes: int = 5,
    dim: int = 2,
    sigma: float = 0.9,
    radius: float = 4.0,
    seed: int = 0,
    name: str = "blobs",
) -> Dataset:
    """Isotropic Gaussian blobs, one per class.

    The defaults (5 classes on a radius-4 circle, sigma 0.9) are the
    standard benchmark: adjacent blobs overlap slightly.
    """
    if n_per_class < 1 or sigma <= 0.0:
        raise DataError("gen_blobs: n_per_class >= 1 and sigma > 0 required")
    centers = circle_centers(n_classes, dim, radius)
    rng = np.random.default_rng(seed)
    feats = np.concatenate(
        [c + sigma * rng.standard_normal((n_per_class, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    return Dataset(
        features=feats,
        labels=labels,
        n_classes=n_classes,
        name=name,
        meta={"sigma": sigma, "centers": centers.tolist(), "seed": seed},
    )


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _far_cluster_center(centers: np.ndarray, min_dist: float) -> np.ndarray:
    """A point at distance >= min_dist from every center, found by walking
    outward along the bisector of the first two centers (or a perpendicular
    direction when those are antipodal)."""
    direction = _unit(centers[0] + centers[1])
    if np.linalg.norm(direction) == 0.0:
        direction = np.zeros(centers.shape[1])
        direction[0], direction[1] = -_unit(centers[0])[1], _unit(centers[0])[0]
    t = max(1.0, float(np.max(np.linalg.norm(centers, axis=1))))
    while np.min(np.linalg.norm(centers - t * direction, axis=1)) < min_dist:
        t *= 1.25
    return t * direction


def gen_ood(
    kind: str,
    n: int = 500,
    centers: np.ndarray | None = None,
    sigma: float = 0.9,
    seed: int = 0,
) -> Dataset:
    """Out-of-distribution samples for a blob layout (see module docstring).

    ``centers``/``sigma`` describe the ID data the OOD set is built against;
    they default to the standard benchmark layout, ``circle_centers(5)``.
    """
    if kind not in OOD_KINDS:
        raise DataError(f"gen_ood: unknown kind {kind!r}, expected one of {OOD_KINDS}")
    if n < 1:
        raise DataError("gen_ood: n >= 1 required")
    if centers is None:
        centers = circle_centers(5)
    centers = np.asarray(centers, dtype=np.float64)
    dim = centers.shape[1]
    rng = np.random.default_rng(seed)

    if kind == "ring":
        inner = 3.0 * float(np.max(np.linalg.norm(centers, axis=1)))
        dirs = rng.standard_normal((n, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(inner, inner + 1.0, size=n)
        feats = dirs * radii[:, None]
    elif kind == "far_cluster":
        margin = 10.0 * sigma
        center = _far_cluster_center(centers, margin + 4.0 * sigma)
        feats = center + sigma * rng.standard_normal((n, dim))
        # enforce the margin exactly: resample the rare stragglers
        for _ in range(100):
            bad = np.min(
                np.linalg.norm(feats[:, None, :] - centers[None, :, :], axis=2), axis=1
            ) <= margin
            if not np.any(bad):
                break
            feats[bad] = center + sigma * rng.standard_normal((int(bad.sum()), dim))
    else:  # uniform_box
        lo = centers.min(axis=0) - 3.0 * sigma
        hi = centers.max(axis=0) + 3.0 * sigma
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        big_lo, big_hi = mid - 5.0 * half, mid + 5.0 * half
        feats = np.empty((0, dim))
        while len(feats) < n:
            cand = rng.uniform(big_lo, big_hi, size=(2 * n, dim))
            inside = np.all((cand > lo) & (cand < hi), axis=1)
            feats = np.concatenate([feats, cand[~inside]])
        feats = feats[:n]

    labels = np.full(n, OOD_LABEL, dtype=np.int64)
    return Dataset(
        features=feats,
        labels=labels,
        n_classes=0,
        name=f"ood_{kind}",
        meta={"kind": kind, "sigma": sigma, "seed": seed},
    )


def split_622(ds: Dataset, seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified train/val/test split, 6:2:2.

    Every class is split in these proportions (rounded), so per-class
    ratios stay within one sample of the global ones.  Classes with fewer
    than 3 samples cannot be split three ways -> DataError.
    """
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in np.unique(ds.labels):
        idx = np.flatnonzero(ds.labels == cls)
        if len(idx) < 3:
            raise DataError(
                f"split_622: class {cls} has only {len(idx)} samples, need >= 3"
            )
        idx = rng.permutation(idx)
        c1 = round(0.6 * len(idx))
        c2 = round(0.8 * len(idx))
        parts[0].append(idx[:c1])
        parts[1].append(idx[c1:c2])
        parts[2].append(idx[c2:])
    out = []
    for part, tag in zip(parts, ("train", "val", "test")):
        sel = np.sort(np.concatenate(part))
        out.append(
            Dataset(
                features=ds.features[sel],
                labels=ds.labels[sel],
                n_classes=ds.n_classes,
                name=f"{ds.name}.{tag}" if ds.name else tag,
                meta=dict(ds.meta),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV round-trip


def _header(dim: int) -> list[str]:
    return [f"f{i}" for i in range(dim)] + ["label"]


def save_csv(ds: Dataset, path) -> None:
    """Header f0,...,f{d-1},label; floats via repr (lossless round-trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(ds.dim))
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow(
                [repr(float(v)) for v in row] + ["ood" if lab == OOD_LABEL else int(lab)]
            )


# Widest label cell the bulk reader takes; numpy truncates longer ones.
_LABEL_BYTES = 16
# The only bytes a file may hold for the bulk reader.
_BULK_BYTES = bytes(range(0x20, 0x7F)) + b"\r\n"


def load_csv(path, name: str | None = None) -> Dataset:
    """Parse a dataset CSV; malformed content raises DataError naming the line.

    numpy's C reader parses a well-formed file in one pass.  Any file it
    rejects, or whose values fail a check, is read again line by line: that
    reader raises the error naming the line, or returns the same data for
    syntax that only Python's ``float()``/``int()`` accept.
    """
    parsed = _parse_bulk(path)
    feats, labels = parsed if parsed is not None else _parse_lines(path)
    n_classes = int(labels.max()) + 1 if np.any(labels >= 0) else 0
    return Dataset(
        features=feats,
        labels=labels,
        n_classes=n_classes,
        name=name or str(path),
        meta={"path": str(path)},
    )


def _parse_bulk(path) -> tuple[np.ndarray, np.ndarray] | None:
    """Features and labels of a well-formed file, or None when the file or
    a value in it needs the line reader: a non-finite feature, or a label
    other than ``ood`` and a non-negative decimal integer narrower than
    ``_LABEL_BYTES``."""
    rows = _load_rows(path)
    if rows is None:
        return None
    feats = np.ascontiguousarray(rows["f"])
    cells, inverse = np.unique(rows["label"], return_inverse=True)
    cells = cells.tolist()
    if not np.all(np.isfinite(feats)) or not all(
        c == b"ood" or (c.isdigit() and len(c) < _LABEL_BYTES) for c in cells
    ):
        return None
    table = np.array([OOD_LABEL if c == b"ood" else int(c) for c in cells], dtype=np.int64)
    return feats, table[inverse]


def _load_rows(path) -> np.ndarray | None:
    """The data rows as (features, label bytes) records, parsed by numpy, or
    None for a file the line reader could read differently: a byte that is
    neither printable ASCII nor a line break (numpy strips some control
    bytes that ``float()`` rejects), a blank line, another header, no rows,
    or a row numpy cannot parse."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # numpy skips blank lines, where the line reader sees an empty row; a CR
    # outside a CRLF pair ends a row for the line reader, so numpy never
    # tokenizes one
    blank = b"\n\n" in raw or b"\n\r" in raw
    lone_cr = raw.count(b"\r") != raw.count(b"\r\n")
    if raw.translate(None, _BULK_BYTES) or blank or lone_cr:
        return None
    end = raw.find(b"\n")
    if end in (-1, len(raw) - 1):  # no row after the header
        return None
    head = raw[:end].removesuffix(b"\r")
    dim = head.count(b",")
    if dim < 1 or head != ",".join(_header(dim)).encode():
        return None
    dtype = np.dtype([("f", np.float64, (dim,)), ("label", f"S{_LABEL_BYTES}")])
    try:
        return np.loadtxt(
            io.BytesIO(raw), dtype=dtype, delimiter=",", comments=None,
            skiprows=1, ndmin=1, encoding="ascii",
        )
    except ValueError:
        return None


def _parse_lines(path) -> tuple[np.ndarray, np.ndarray]:
    feats: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        dim = len(header) - 1
        expected = _header(dim)
        if dim < 1 or header != expected:
            raise DataError(f"{path}: bad header {header!r}, expected {expected!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise DataError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(row)}")
            vals = []
            for col, cell in enumerate(row[:dim]):
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: field f{col} is not a number: {cell!r}") from None
                if not math.isfinite(v):
                    raise DataError(f"{path}:{lineno}: field f{col} is not finite: {cell!r}")
                vals.append(v)
            cell = row[dim]
            if cell == "ood":
                lab = OOD_LABEL
            else:
                try:
                    lab = int(cell)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad label {cell!r}") from None
                if lab < 0:
                    raise DataError(f"{path}:{lineno}: bad label {cell!r}")
            feats.append(vals)
            labels.append(lab)
    if not feats:
        raise DataError(f"{path}: no data rows")
    return np.array(feats), np.array(labels, dtype=np.int64)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    lab = np.asarray(labels)
    if np.any(lab < 0) or np.any(lab >= n_classes):
        raise DataError("one_hot: labels outside 0..K-1 (OOD rows cannot be trained on)")
    return np.eye(n_classes, dtype=np.float64)[lab]
