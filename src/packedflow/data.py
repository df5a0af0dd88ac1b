"""Simulation files, standardization, folds, and an analytic flow generator.

A simulation is one point cloud: per point 7 input features
(x, y, inlet_vx, inlet_vy, distance, nx, ny) and 4 regression targets
(vx, vy, p_over_rho, nu_t).  Surface points are exactly those with a
nonzero normal; they carry distance 0 and a unit normal.

On disk a simulation is a CSV in UTF-8, optionally after a byte order mark:
a header line of the unquoted names ``x,y,inlet_vx,inlet_vy,distance,nx,ny,
vx,vy,p,nut`` in any order, then one point per line, each cell a plain finite
decimal made of the characters ``0-9 + - . e E``.  Lines end in LF or CRLF;
blank lines are skipped but still counted in row numbers.  A dataset is a
directory of such files plus a ``manifest.json`` listing file names and the
split label.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .formats import ConfigError, _check_keys, _read, is_file_name, read_bytes, read_json, write_json

__all__ = [
    "INPUT_COLUMNS",
    "TARGET_COLUMNS",
    "CSV_COLUMNS",
    "SPLIT_LABELS",
    "Simulation",
    "Dataset",
    "ScalerPair",
    "SimulationParseError",
    "load_simulation",
    "write_simulation",
    "load_dataset",
    "write_dataset",
    "fit_scaler",
    "apply_scaler",
    "kfold_split",
    "subsample",
    "CylinderFlowConfig",
    "generate_cylinder_flow",
    "cylinder_velocity",
    "bernoulli_pressure",
]

INPUT_COLUMNS = ("x", "y", "inlet_vx", "inlet_vy", "distance", "nx", "ny")
TARGET_COLUMNS = ("vx", "vy", "p", "nut")
CSV_COLUMNS = INPUT_COLUMNS + TARGET_COLUMNS
SPLIT_LABELS = ("train", "test", "test_ood")

_SURFACE_DISTANCE_TOL = 1e-9
_NORMAL_NORM_TOL = 1e-6
_STD_CLAMP = 1e-12
MANIFEST_NAME = "manifest.json"
# The characters of a cell, and the bytes of a plain body (where a CR only ends a CRLF).
_NUMBER_CHARS = "0123456789+-.eE"
_NUMBER_BYTES = (_NUMBER_CHARS + ",\r\n").encode()
_CHECK_BLOCK_BYTES = 1 << 16  # bytes of a body checked per copy
_NOT_LINE_END = re.compile(rb"[^\r\n]")  # a body without such a byte is blank
# Rows formatted per write: as fast as one whole-file string, with bounded memory.
_WRITE_BLOCK_ROWS = 4096


class SimulationParseError(ConfigError):
    """A malformed simulation CSV or manifest value (a ``ConfigError``), with its 1-based CSV row and column, if any."""

    def __init__(self, path, row: int | None, column: str | None, message: str):
        location = ""
        if row is not None:
            location += f", row {row}"
        if column is not None:
            location += f", column {column!r}"
        super().__init__(f"{path}{location}: {message}")
        self.path = str(path)
        self.row = row
        self.column = column


def _frozen_array(values, shape_tail: int, what: str) -> np.ndarray:
    # own copy so freezing never touches caller state
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != 2 or arr.shape[1] != shape_tail:
        raise ValueError(f"{what} must have shape (N, {shape_tail}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Simulation:
    """One point cloud: per point the ``INPUT_COLUMNS`` features and the ``TARGET_COLUMNS`` targets."""

    name: str
    points: np.ndarray  # (N, len(INPUT_COLUMNS))
    targets: np.ndarray  # (N, len(TARGET_COLUMNS))

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(self.points, len(INPUT_COLUMNS), "points"))
        object.__setattr__(self, "targets", _frozen_array(self.targets, len(TARGET_COLUMNS), "targets"))
        if len(self.points) < 1:
            raise ValueError(f"simulation {self.name!r} has no points")
        if len(self.points) != len(self.targets):
            raise ValueError(
                f"simulation {self.name!r}: {len(self.points)} points vs {len(self.targets)} targets"
            )
        if not np.isfinite(self.points).all() or not np.isfinite(self.targets).all():
            raise ValueError(f"simulation {self.name!r} contains non-finite values")
        distance = self.points[:, 4]
        if (distance < 0).any():
            raise ValueError(f"simulation {self.name!r}: negative distance values")
        mask = self.surface_mask
        if np.abs(distance[mask]).max(initial=0.0) > _SURFACE_DISTANCE_TOL:
            raise ValueError(f"simulation {self.name!r}: surface points must have distance 0")
        with np.errstate(over="ignore"):  # an overflowing norm is infinite, so not unit
            norms = np.hypot(self.points[mask, 5], self.points[mask, 6])
        if norms.size and np.abs(norms - 1.0).max() > _NORMAL_NORM_TOL:
            raise ValueError(f"simulation {self.name!r}: surface normals must have unit norm")

    @property
    def surface_mask(self) -> np.ndarray:
        """Boolean mask of points lying on the geometry (nonzero normals)."""
        return (self.points[:, 5] != 0.0) | (self.points[:, 6] != 0.0)

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Dataset:
    """Ordered simulations belonging to one split: at least one, each of its own name."""

    simulations: tuple[Simulation, ...]
    split_label: str

    def __post_init__(self):
        object.__setattr__(self, "simulations", tuple(self.simulations))
        if self.split_label not in SPLIT_LABELS:
            raise ValueError(f"split_label must be one of {SPLIT_LABELS}, got {self.split_label!r}")
        if not self.simulations:
            raise ValueError("a dataset must hold at least one simulation")
        names = [s.name for s in self.simulations]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate simulation names in dataset: {dupes}")

    def __len__(self) -> int:
        return len(self.simulations)


@dataclass(frozen=True)
class ScalerPair:
    """Per-channel standardizers for inputs and targets, fitted on training data."""

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    def __post_init__(self):
        for field_name in (f.name for f in fields(self)):
            width = len(INPUT_COLUMNS if field_name.startswith("input") else TARGET_COLUMNS)
            arr = np.array(getattr(self, field_name), dtype=np.float64)
            if arr.shape != (width,):
                raise ValueError(f"{field_name} must have shape ({width},), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{field_name} entries must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)
        if not ((self.input_std > 0).all() and (self.target_std > 0).all()):
            raise ValueError("scaler std entries must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, obj, where: str = "scaler") -> "ScalerPair":
        """Read a scaler as ``to_dict`` writes it, strictly typed (a fault names ``where``)."""
        return _read(cls, obj, where)


def load_simulation(path) -> Simulation:
    """Parse one simulation CSV, validating schema and all invariants."""
    path = Path(path)
    table = _read_table(path)
    try:
        return Simulation(path.stem, table[:, : len(INPUT_COLUMNS)], table[:, len(INPUT_COLUMNS) :])
    except ValueError as exc:
        raise SimulationParseError(path, None, None, str(exc)) from exc


def _column_order(path, header: list[str]) -> list[int]:
    """Index in ``header`` of each of ``CSV_COLUMNS``; a fault names row 1 and the column."""
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise SimulationParseError(path, 1, missing[0], f"missing column {missing[0]!r}")
    extra = [c for c in header if c not in CSV_COLUMNS]
    if extra:
        raise SimulationParseError(path, 1, extra[0], f"unexpected column {extra[0]!r}")
    repeated = [c for i, c in enumerate(header) if c in header[:i]]
    if repeated:
        raise SimulationParseError(path, 1, repeated[0], f"duplicate column {repeated[0]!r}")
    return [header.index(c) for c in CSV_COLUMNS]


def _read_table(path: Path) -> np.ndarray:
    """The values of a simulation CSV as an (N, 11) array in ``CSV_COLUMNS`` order.

    One ``np.loadtxt`` call reads a plain body (see :func:`_plain_body`; CRLF read as
    LF), accepting the cells ``float()`` accepts, with its bits.  Such a body is ASCII,
    so only the header is decoded whole, and ``loadtxt`` reads the body through a
    chunked ASCII text reader over the file's bytes.  A body it does not read is
    decoded and scanned for its first fault, and one with none is blank.  A header
    already in ``CSV_COLUMNS`` order gets ``loadtxt``'s array itself, not a copy.
    """
    raw = read_bytes(path)
    start = raw.find(b"\n") + 1 or len(raw)  # the body's first byte
    body = _plain_body(raw, start)
    try:
        text = (raw[:start] if body is not None else raw).decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SimulationParseError(path, None, None, f"not UTF-8 at byte {exc.start}") from None
    if not text:
        raise SimulationParseError(path, None, None, "empty file")
    header = [name.strip() for name in text.partition("\n")[0].split(",")]
    column_order = _column_order(path, header)
    if body is not None:
        try:
            table = np.loadtxt(body, delimiter=",", comments=None, quotechar=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == len(CSV_COLUMNS) and np.isfinite(table).all():
                return table if column_order == sorted(column_order) else table[:, column_order]
        text = raw.decode("utf-8").removeprefix("\ufeff")
    raise _first_fault(path, header, text.partition("\n")[2])


def _plain_body(raw: bytes, start: int) -> io.TextIOWrapper | None:
    """A text reader over ``raw[start:]`` if it is non-blank, only ``_NUMBER_BYTES`` and
    every CR in it ends a CRLF (which the reader reads as LF); else None.

    The bytes are searched in place and checked in blocks, and the reader decodes
    them in chunks, so no whole copy of the body is made.
    """
    cr = raw.find(b"\r", start)
    if cr >= 0 and raw.count(b"\r", cr) != raw.count(b"\r\n", cr):
        return None  # a lone CR
    if not _NOT_LINE_END.search(raw, start):
        return None  # a blank body
    for lo in range(start, len(raw), _CHECK_BLOCK_BYTES):
        if raw[lo : lo + _CHECK_BLOCK_BYTES].translate(None, _NUMBER_BYTES):
            return None
    body = io.BytesIO(raw)
    body.seek(start)
    return io.TextIOWrapper(body, encoding="ascii")


def _first_fault(path, header: list[str], body: str) -> SimulationParseError:
    """The first fault of a rejected body, row by row (the header is row 1, blank lines
    count): a cell, in file order, that is not a finite plain decimal, else a field count."""
    for row, line in enumerate(body.replace("\r\n", "\n").split("\n"), start=2):
        if not line:
            continue
        cells = line.split(",")
        for column, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is not None and not math.isfinite(value):
                return SimulationParseError(path, row, column, f"non-finite value: {cell!r}")
            if value is None or cell.strip(_NUMBER_CHARS):
                return SimulationParseError(path, row, column, f"not a number: {cell!r}")
        if len(cells) != len(CSV_COLUMNS):
            return SimulationParseError(path, row, None, f"expected {len(CSV_COLUMNS)} fields, found {len(cells)}")
    return SimulationParseError(path, None, None, "no data rows")


def write_simulation(sim: Simulation, path) -> None:
    """Write a simulation CSV; floats use shortest round-trip decimal form (``repr``)."""
    table = np.hstack([sim.points, sim.targets])
    row = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(table), _WRITE_BLOCK_ROWS):
            block = table[start : start + _WRITE_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def load_dataset(directory) -> Dataset:
    """Load a dataset directory: manifest.json, holding exactly the keys ``split_label`` and
    ``simulations``, plus the simulation CSVs it lists (a fault is a ``ConfigError``)."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME

    def fault(message: str) -> SimulationParseError:
        return SimulationParseError(manifest_path, None, None, message)

    manifest = read_json(manifest_path)
    _check_keys(manifest, str(manifest_path), required=("split_label", "simulations"))
    if manifest["split_label"] not in SPLIT_LABELS:
        raise fault(f"split_label must be one of {SPLIT_LABELS}, got {manifest['split_label']!r}")
    names = manifest["simulations"]
    if not (isinstance(names, list) and names and all(isinstance(name, str) for name in names)):
        raise fault("'simulations' must be a non-empty list of file names")
    first_entry = {}
    for name in names:
        stem = Path(name).stem  # the simulation name
        if stem in first_entry:
            raise fault(f"entry {name!r} repeats the simulation name {stem!r} of entry {first_entry[stem]!r}")
        if not is_file_name(name):
            raise fault(f"entry {name!r} must be one file-name component, a file in this directory")
        first_entry[stem] = name
    sims = tuple(load_simulation(directory / name) for name in names)
    return Dataset(simulations=sims, split_label=manifest["split_label"])


def write_dataset(dataset: Dataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    file_names = []
    for sim in dataset.simulations:
        file_name = f"{sim.name}.csv"
        write_simulation(sim, directory / file_name)
        file_names.append(file_name)
    write_json(directory / MANIFEST_NAME, {"split_label": dataset.split_label, "simulations": file_names})


def _pooled(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.vstack([s.points for s in dataset.simulations]),
        np.vstack([s.targets for s in dataset.simulations]),
    )


def fit_scaler(train: Dataset) -> ScalerPair:
    """Per-channel mean/std over the pooled points of a split (population std).

    Near-constant channels (std < 1e-12) are clamped to std 1 so the forward
    transform maps them to 0.  A channel whose std overflows float64 raises
    ``ValueError`` naming its column.
    """
    points, targets = _pooled(train)

    def stats(arr, kind, columns):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = arr.mean(axis=0)
            std = arr.std(axis=0)
        bad = ~np.isfinite(std)  # a non-finite mean makes the std non-finite too
        if bad.any():
            column = columns[np.argmax(bad)]
            raise ValueError(f"cannot standardize {kind} column {column!r}: its std overflows float64")
        std = np.where(std < _STD_CLAMP, 1.0, std)
        return mean, std

    input_mean, input_std = stats(points, "input", INPUT_COLUMNS)
    target_mean, target_std = stats(targets, "target", TARGET_COLUMNS)
    return ScalerPair(input_mean, input_std, target_mean, target_std)


def apply_scaler(scaler: ScalerPair, data, direction: str, which: str) -> np.ndarray:
    """Standardize (``forward``: (v-mean)/std) or restore (``inverse``: v*std+mean)."""
    if which == "inputs":
        mean, std, width = scaler.input_mean, scaler.input_std, len(INPUT_COLUMNS)
    elif which == "targets":
        mean, std, width = scaler.target_mean, scaler.target_std, len(TARGET_COLUMNS)
    else:
        raise ValueError(f"which must be 'inputs' or 'targets', got {which!r}")
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{which} array must have {width} channels, got shape {arr.shape}")
    if direction == "forward":
        return (arr - mean) / std
    if direction == "inverse":
        return arr * std + mean
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def kfold_split(dataset: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """Seeded random partition into k folds at simulation granularity.

    Fold sizes differ by at most one; each simulation lands in exactly one
    validation fold.  Returns (train, validation) dataset pairs.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = len(dataset)
    if n < k:
        raise ValueError(f"need at least {k} simulations for {k} folds, have {n}")
    # array_split puts the n % k folds one simulation bigger first.
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    return [
        (_subset(dataset, np.delete(np.arange(n), fold)), _subset(dataset, np.sort(fold))) for fold in folds
    ]


def subsample(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep ceil(fraction * #sims) simulations chosen by seeded shuffle.

    The kept simulations stay in their original order; fraction 1 is the
    identity.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(dataset)
    keep = math.ceil(fraction * n)
    return _subset(dataset, np.sort(np.random.default_rng(seed).permutation(n)[:keep]))


def _subset(dataset: Dataset, indices) -> Dataset:
    """The simulations at ``indices``, in that order, under the dataset's split label."""
    return Dataset(tuple(dataset.simulations[i] for i in indices), split_label=dataset.split_label)


# ---------------------------------------------------------------------------
# Synthetic flow: ideal incompressible potential flow past a circular cylinder
# with optional circulation, plus a smooth auxiliary eddy-viscosity channel.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderFlowConfig:
    """Parameters for one generated dataset of cylinder flows."""

    num_sims: int
    surface_points: int
    field_points: int
    radius_range: tuple[float, float]
    inlet_speed_range: tuple[float, float]
    circulation_range: tuple[float, float]
    seed: int
    ood: bool = False  # shifted ranges; `gen` sets it for the test_ood split alone

    def __post_init__(self):
        if self.num_sims < 1:
            raise ValueError("num_sims must be >= 1")
        if self.surface_points < 3 or self.field_points < 3:
            raise ValueError("surface_points and field_points must be >= 3")
        for name in ("radius_range", "inlet_speed_range", "circulation_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"{name} must be a finite (lo, hi) pair with lo <= hi")
        lo, hi = self.radius_range
        if lo <= 0:
            raise ValueError("radius_range must be positive")
        lo, hi = self.inlet_speed_range
        if lo <= 0:
            raise ValueError("inlet_speed_range must be positive")


def cylinder_velocity(
    xy: np.ndarray, radius: float, inlet_speed: float, circulation: float
) -> np.ndarray:
    """Velocity of potential flow past a cylinder at the given points.

    Freestream (inlet_speed, 0), cylinder of the given radius centred at the
    origin, point vortex of the given circulation (counterclockwise
    positive).  Points must lie on or outside the cylinder.
    """
    xy = np.asarray(xy, dtype=np.float64)
    x, y = xy[..., 0], xy[..., 1]
    r2 = x * x + y * y
    if (r2 < radius * radius * (1.0 - 1e-12)).any():
        raise ValueError("cylinder_velocity evaluated inside the cylinder")
    # u_r = U (1 - R^2/r^2) cos(t), u_t = -U (1 + R^2/r^2) sin(t) + G/(2 pi r)
    r = np.sqrt(r2)
    cos_t, sin_t = x / r, y / r
    ratio = (radius * radius) / r2
    u_r = inlet_speed * (1.0 - ratio) * cos_t
    u_t = -inlet_speed * (1.0 + ratio) * sin_t + circulation / (2.0 * np.pi * r)
    u = u_r * cos_t - u_t * sin_t
    v = u_r * sin_t + u_t * cos_t
    return np.stack([u, v], axis=-1)


def bernoulli_pressure(velocity: np.ndarray, inlet_speed: float) -> np.ndarray:
    """p/rho from Bernoulli with gauge zero at infinity: (U^2 - |u|^2) / 2."""
    velocity = np.asarray(velocity, dtype=np.float64)
    speed_sq = (velocity * velocity).sum(axis=-1)
    return 0.5 * inlet_speed * inlet_speed - 0.5 * speed_sq


def _ood_range(lo: float, hi: float) -> tuple[float, float]:
    # Shift the interval just above its own upper end, keeping its width.
    width = hi - lo
    return hi, hi + (width if width > 0 else abs(hi) + 1.0)


def _generate_one(
    name: str, config: CylinderFlowConfig, rng: np.random.Generator
) -> Simulation:
    ranges = (config.radius_range, config.inlet_speed_range, config.circulation_range)
    radius, inlet_speed, circulation = (
        rng.uniform(*(_ood_range(*bounds) if config.ood else bounds)) for bounds in ranges
    )

    # Surface ring: evenly spaced angles with a random phase.
    phase = rng.uniform(0.0, 2.0 * np.pi)
    theta = phase + 2.0 * np.pi * np.arange(config.surface_points) / config.surface_points
    surf_xy = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    surf_normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    surf_distance = np.zeros(config.surface_points)

    # Field points: annulus out to six radii.
    t = rng.uniform(0.05, 5.0, size=config.field_points)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=config.field_points)
    field_r = radius * (1.0 + t)
    field_xy = np.stack([field_r * np.cos(ang), field_r * np.sin(ang)], axis=1)
    field_normals = np.zeros((config.field_points, 2))
    field_distance = field_r - radius

    xy = np.vstack([surf_xy, field_xy])
    normals = np.vstack([surf_normals, field_normals])
    distance = np.concatenate([surf_distance, field_distance])

    velocity = cylinder_velocity(xy, radius, inlet_speed, circulation)
    pressure = bernoulli_pressure(velocity, inlet_speed)
    speed = np.hypot(velocity[:, 0], velocity[:, 1])
    nu_t = 0.01 * distance * speed

    n = len(xy)
    # Columns in CSV_COLUMNS order: x, y, inlet_vx, inlet_vy, distance, nx, ny | vx, vy, p, nut.
    points = np.column_stack([xy, np.full(n, inlet_speed), np.zeros(n), distance, normals])
    targets = np.column_stack([velocity, pressure, nu_t])

    order = rng.permutation(n)
    return Simulation(name=name, points=points[order], targets=targets[order])


def generate_cylinder_flow(config: CylinderFlowConfig, split_label: str) -> Dataset:
    """Generate a dataset of analytic cylinder flows.

    Each simulation draws a radius, inlet speed, and circulation from the
    configured ranges (``ood=True`` shifts every range above its upper end).
    Velocity comes from the potential-flow solution, pressure from Bernoulli,
    and the eddy-viscosity channel is the smooth surrogate
    ``0.01 * distance * speed``.  Ranges whose flows overflow float64 raise
    ``Simulation``'s ``ValueError`` for non-finite values, without a warning.
    """
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sims = tuple(_generate_one(f"{split_label}_{i:04d}", config, rng) for i in range(config.num_sims))
    return Dataset(simulations=sims, split_label=split_label)
