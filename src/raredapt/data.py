"""Long-tailed benchmark generation and CSV ingestion.

The generated benchmark mimics a camera-trap-style classification problem at
desk scale: each class is a Gaussian mixture over a handful of "locations"
(jittered copies of the class mean), the train/cis splits draw from one subset
of locations and the trans splits from held-out locations, and the rarest
class additionally gets a pool of synthetic samples. The synthetic generator
draws a fresh location jitter per sample (synthetic scenes are not tied to
physical cameras) and then pushes the point through a controllable affine gap

    x_syn = A @ z + b + render_noise

so the real/synthetic discrepancy can be dialed from zero (A=I, b=0, matched
noise) up to a shift comparable to the spacing between classes.

CSV schema (UTF-8, comma-separated, '.' decimal, header required):

    f0,...,f{d-1},class_id,domain,location_id,split

with domain in {real, synthetic} and split in {train, cis_val, cis_test,
trans_val, trans_test}. Floats are written with shortest round-trip repr, so
save -> load reproduces every value bit for bit and re-saving is
byte-identical. Synthetic samples carry split=train (they exist only as
training augmentation) and location_id -1 (no physical camera).

``load_csv`` parses the file in one plain pass over its lines: each line's
four metadata cells are split off and checked, and ``float()`` reads each
feature value, limited to numpy's float grammar. Feature values with
underscores (``1_0``) or non-ASCII digits, which ``float()`` accepts, are
rejected; ``save_csv`` never writes them. Faults are reported in file order.

Parsed cache: ``save_csv`` also writes ``<path>.parsed.npz``, the five
``Dataset`` columns in numpy's ``.npz`` format plus the SHA-256 of the CSV
bytes it wrote. ``load_csv`` builds the Dataset from that file instead of
parsing the CSV only when it belongs to the CSV as it is now: the CSV's
SHA-256 matches, and the arrays load without unpickling, have the expected
names, are arrays ``Dataset`` takes as they are (each already of its column's
dtype, in native byte order, so nothing is converted), and pass ``Dataset``
validation. In every other case it parses the CSV, so the cache can make a
load slower but never changes its result or its errors. The CSV stays the
source of truth: the cache may be deleted at any time, and ``load_csv`` never
writes one.

Split/histogram semantics: "train" throughout this package means the *real*
training samples; the synthetic pool is a separate population selected by
domain. The two row selectors, ``Dataset.real_split_indices`` and
``synthetic_indices``, are computed by ``Dataset.validate`` when the Dataset is
built and cover every row once; ``class_histogram`` counts real samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import zipfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, csv_block, remove_stale_temps
from .numerics import make_rng, require_fields, require_finite
from .parallel import ordered_map

SPLITS = ("train", "cis_val", "cis_test", "trans_val", "trans_test")
DOMAIN_TOKENS = ("real", "synthetic")
SYNTHETIC_LOCATION = -1
_META_COLUMNS = 4  # class_id, domain, location_id, split
# Each Dataset column and the dtype it is stored in
_DTYPES = {"features": np.float64, "class_ids": np.int64, "domains": np.str_,
           "location_ids": np.int64, "splits": np.str_}
_COLUMNS = tuple(_DTYPES)
_CSV_SHA256 = "csv_sha256"
_CACHE_KEYS = (_CSV_SHA256, *_COLUMNS)
# save_csv formats its rows on one process per ROWS_PER_WORKER rows, up to one
# per usable core, in blocks of _BLOCK_ROWS rows; a block of 32 features (about
# 40 KB) fits in a pipe's default 64 KiB, so a worker hands it over and goes on
# without waiting for this process to read it
ROWS_PER_WORKER = 4096
_BLOCK_ROWS = 64


class DataFormatError(ValueError):
    """Malformed dataset file or invariant-violating dataset contents."""


_GEN_SPEC_RULES = (
    (">= 2", lambda v: v >= 2, ("class_count", "feature_dim")),
    (">= 1", lambda v: v >= 1, ("max_train_count", "rare_train_count", "val_count_per_class",
                                "test_count_per_class", "trans_locations_per_class",
                                "gap_condition")),
    (">= 0", lambda v: v >= 0, ("synthetic_pool_size", "noise_scale", "class_mean_scale",
                                "location_jitter", "gap_noise_factor", "seed")),
)


@dataclass(frozen=True)
class GenSpec:
    """Benchmark generator configuration.

    ``gap_offset`` is measured in class-separation units: one unit is the RMS
    distance between two class means, ``class_mean_scale * sqrt(2 d)``. The
    default gap (condition ~1.5, one-unit offset, 1.5x render noise) puts the
    raw synthetic cluster about as far from the real rare cluster as two
    classes sit from each other.
    """

    class_count: int = 8
    feature_dim: int = 32
    rare_class_id: int = 7
    train_counts: tuple[int, ...] | None = None
    max_train_count: int = 1000
    rare_train_count: int = 41
    val_count_per_class: int = 40
    test_count_per_class: int = 80
    locations_per_class: int = 6
    trans_locations_per_class: int = 2
    class_mean_scale: float = 1.0
    location_jitter: float = 0.5
    noise_scale: float = 0.35
    synthetic_pool_size: int = 10000
    gap_condition: float = 1.5
    gap_rotation: float = 0.5236
    gap_offset: float = 1.0
    gap_noise_factor: float = 1.5
    gap_matrix: tuple | None = None
    gap_offset_vector: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        require_fields(self, _GEN_SPEC_RULES)
        if not 0 <= self.rare_class_id < self.class_count:
            raise ValueError(f"rare_class_id {self.rare_class_id} out of range")
        if self.locations_per_class - self.trans_locations_per_class < 1:
            raise ValueError(
                f"{self.locations_per_class} locations with "
                f"{self.trans_locations_per_class} held out leaves no train locations"
            )
        counts = self.resolved_train_counts()
        if len(counts) != self.class_count:
            raise ValueError(
                f"train_counts has {len(counts)} entries for {self.class_count} classes"
            )
        if any(c < 1 for c in counts):
            raise ValueError(f"train counts must be >= 1, got {counts}")
        if counts[self.rare_class_id] != min(counts):
            raise ValueError(
                f"rare class train count {counts[self.rare_class_id]} is not the minimum"
            )

    def resolved_train_counts(self) -> tuple[int, ...]:
        """Long-tail defaults: geometric decay from the largest class down to the rare one."""
        if self.train_counts is not None:
            return tuple(int(c) for c in self.train_counts)
        k = self.class_count
        ratio = (self.rare_train_count / self.max_train_count) ** (1.0 / (k - 1))
        counts = [int(round(self.max_train_count * ratio**c)) for c in range(k)]
        counts[self.rare_class_id] = self.rare_train_count
        return tuple(counts)


@dataclass
class Dataset:
    """Column-oriented sample store with validated invariants.

    The arrays are converted to their ``_DTYPES`` and validated once, when the
    Dataset is built, and are then trusted: training and evaluation do not
    rescan them. ``validate`` also derives every other field: ``num_classes``
    (the largest ``class_id`` plus one, since every class needs a real train
    row), ``rare_class_id``, and the read-only row selectors
    ``real_split_indices`` (the real rows of each split) and
    ``synthetic_indices`` (the synthetic pool). A Dataset is meant to be read,
    not edited: the derived fields are not updated if a column changes later.
    ``==`` compares the columns with ``datasets_equal``; a Dataset is unhashable.
    """

    features: np.ndarray
    class_ids: np.ndarray
    domains: np.ndarray
    location_ids: np.ndarray
    splits: np.ndarray
    num_classes: int = field(init=False)
    rare_class_id: int = field(init=False)
    real_split_indices: dict[str, np.ndarray] = field(init=False, repr=False)
    synthetic_indices: np.ndarray = field(init=False, repr=False)

    def __eq__(self, other):
        return datasets_equal(self, other) if isinstance(other, Dataset) else NotImplemented

    def __post_init__(self):
        for name, dtype in _DTYPES.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        self.validate()

    def validate(self) -> None:
        """Check every invariant, then set the fields derived from the columns."""
        n = self.features.shape[0] if self.features.ndim == 2 else -1
        if self.features.ndim != 2:
            raise DataFormatError(f"features must be 2-D, got shape {self.features.shape}")
        for name in _COLUMNS[1:]:
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise DataFormatError(f"{name} has shape {arr.shape}, expected ({n},)")
        if n == 0:
            raise DataFormatError("dataset has no rows")
        require_finite(self.features, "dataset features")
        # n rows hold at most n classes with a train row each; this also
        # bounds the per-class counts below
        k = min(int(self.class_ids.max()) + 1, n)
        if self.class_ids.min() < 0 or self.class_ids.max() >= k:
            raise DataFormatError(f"class_id out of range [0, {k})")
        self.num_classes = k
        bad_domain = ~np.isin(self.domains, DOMAIN_TOKENS)
        if bad_domain.any():
            raise DataFormatError(f"unknown domain token {str(self.domains[bad_domain][0])!r}")
        bad_split = ~np.isin(self.splits, SPLITS)
        if bad_split.any():
            raise DataFormatError(f"unknown split token {str(self.splits[bad_split][0])!r}")

        real = self.domains == "real"
        synthetic = ~real
        rows = {split: np.flatnonzero(real & (self.splits == split)) for split in SPLITS}
        pool = np.flatnonzero(synthetic)
        for idx in (*rows.values(), pool):
            idx.flags.writeable = False
        self.real_split_indices, self.synthetic_indices = rows, pool

        train_counts = np.bincount(self.class_ids[rows["train"]], minlength=k)
        if (train_counts == 0).any():
            missing = int(np.argmin(train_counts))
            raise DataFormatError(f"class {missing} has no real train samples")

        if pool.size:
            syn_classes = np.unique(self.class_ids[pool])
            if len(syn_classes) > 1:
                raise DataFormatError(
                    f"synthetic samples span classes {syn_classes.tolist()}; "
                    "synthetic data must belong to the single rare class"
                )
            rare = int(syn_classes[0])
            if train_counts[rare] != train_counts.min():
                raise DataFormatError(
                    f"synthetic samples carry class {rare} "
                    f"({train_counts[rare]} train samples), but class "
                    f"{int(np.argmin(train_counts))} is rarer"
                )
            if not (self.splits == "train")[synthetic].all():
                raise DataFormatError("synthetic samples must carry split 'train'")
        else:
            rare = int(np.argmin(train_counts))
        self.rare_class_id = rare

        train_cis = np.concatenate([rows["train"], rows["cis_val"], rows["cis_test"]])
        for split in ("trans_val", "trans_test"):
            overlap = np.intersect1d(self.location_ids[rows[split]], self.location_ids[train_cis])
            if overlap.size:
                raise DataFormatError(f"{split} reuses train/cis location ids {overlap.tolist()}")
        for split in ("cis_test", "trans_test"):
            if not (self.class_ids[rows[split]] == rare).any():
                raise DataFormatError(f"rare class {rare} missing from {split}")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _gap_field(spec: GenSpec, name: str, shape: tuple[int, ...], text: str) -> np.ndarray:
    """``spec.<name>`` as a finite float64 array of ``shape``, or one ValueError
    ``<name> must <text>, got …`` (or ``<name> must be finite``) naming it."""
    try:
        arr = np.asarray(getattr(spec, name))
    except ValueError:  # ragged, or nested past numpy's dimension limit
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must {text}, got a ragged or non-numeric value")
    if arr.shape != shape:
        raise ValueError(f"{name} must {text}, got {arr.shape}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def synthetic_map(spec: GenSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Resolve the affine gap (A, b) and the synthetic render-noise scale.

    Parametric form: A = R @ diag(spread) with R a rotation by gap_rotation in
    one random plane and spread spanning condition number gap_condition; b has
    norm gap_offset * class_mean_scale * sqrt(2 d). Explicit gap_matrix /
    gap_offset_vector fields override the parametric construction.
    """
    d = spec.feature_dim
    rng = make_rng(spec.seed, 2)
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(d)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)

    if spec.gap_matrix is not None:
        a = _gap_field(spec, "gap_matrix", (d, d), f"be {d}x{d}")
    else:
        theta = spec.gap_rotation
        eye = np.eye(d)
        rot = (
            eye
            + (np.cos(theta) - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + np.sin(theta) * (np.outer(u, v) - np.outer(v, u))
        )
        c = spec.gap_condition
        spread = np.geomspace(np.sqrt(c), 1.0 / np.sqrt(c), d)
        a = rot @ np.diag(spread)

    if spec.gap_offset_vector is not None:
        b = _gap_field(spec, "gap_offset_vector", (d,), f"have length {d}")
    else:
        separation_unit = spec.class_mean_scale * np.sqrt(2.0 * d)
        b = direction * spec.gap_offset * separation_unit
    return a, b, spec.noise_scale * spec.gap_noise_factor


def generate(spec: GenSpec) -> Dataset:
    """Draw the full benchmark deterministically from ``spec.seed``.

    Per-class location means are class mean plus jitter; train/cis samples use
    the first locations, trans samples the held-out ones. The rare class's
    synthetic pool maps fresh class-level draws through the affine gap.

    Every row is drawn into its place in one preallocated feature array and
    finished there in place, in the operation order of ``loc + noise * scale``
    and ``(scene @ A.T + b) + noise``, so the values are those expressions'.
    """
    k, d = spec.class_count, spec.feature_dim
    counts = spec.resolved_train_counts()
    means_rng = make_rng(spec.seed, 0)
    loc_rng = make_rng(spec.seed, 1)
    sample_rng = make_rng(spec.seed, 3)
    syn_rng = make_rng(spec.seed, 4)

    class_means = means_rng.standard_normal((k, d)) * spec.class_mean_scale
    n_loc = spec.locations_per_class
    n_cis = n_loc - spec.trans_locations_per_class
    loc_means = np.empty((k, n_loc, d))
    for c in range(k):
        loc_means[c] = class_means[c] + loc_rng.standard_normal((n_loc, d)) * spec.location_jitter

    gap_a, gap_b, syn_noise = synthetic_map(spec)

    split_counts = {
        "train": counts,
        "cis_val": (spec.val_count_per_class,) * k,
        "cis_test": (spec.test_count_per_class,) * k,
        "trans_val": (spec.val_count_per_class,) * k,
        "trans_test": (spec.test_count_per_class,) * k,
    }
    p = spec.synthetic_pool_size
    features = np.empty((sum(map(sum, split_counts.values())) + p, d))
    classes, domains, locations, splits = [], [], [], []
    at = 0
    for c in range(k):
        for split in SPLITS:
            n = split_counts[split][c]
            if split.startswith("trans"):
                local = n_cis + sample_rng.integers(0, spec.trans_locations_per_class, n)
            else:
                local = sample_rng.integers(0, n_cis, n)
            x = sample_rng.standard_normal(out=features[at : at + n])
            x *= spec.noise_scale
            x += loc_means[c, local]
            at += n
            classes.append(np.full(n, c))
            domains.append(np.full(n, "real"))
            locations.append(c * n_loc + local)
            splits.append(np.full(n, split))

    if p > 0:
        scene = syn_rng.standard_normal((p, d))
        scene *= spec.location_jitter
        scene += class_means[spec.rare_class_id]
        x = np.matmul(scene, gap_a.T, out=features[at:])
        x += gap_b
        noise = syn_rng.standard_normal(out=scene)  # scene is used up
        noise *= syn_noise
        x += noise
        classes.append(np.full(p, spec.rare_class_id))
        domains.append(np.full(p, "synthetic"))
        locations.append(np.full(p, SYNTHETIC_LOCATION))
        splits.append(np.full(p, "train"))

    return Dataset(
        features=features,
        class_ids=np.concatenate(classes),
        domains=np.concatenate(domains),
        location_ids=np.concatenate(locations),
        splits=np.concatenate(splits),
    )


def class_histogram(dataset: Dataset, split: str) -> np.ndarray:
    """Per-class counts of the real samples of a split."""
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    idx = dataset.real_split_indices[split]
    return np.bincount(dataset.class_ids[idx], minlength=dataset.num_classes)


def expected_header(feature_dim: int) -> list[str]:
    return [f"f{i}" for i in range(feature_dim)] + ["class_id", "domain", "location_id", "split"]


def save_csv(dataset: Dataset, path) -> None:
    """Write the documented CSV schema, then its parsed cache ``<path>.parsed.npz``.

    First the ``<file>.<pid>.tmp`` that a killed writer left for either file
    is deleted, and no other file. Floats use shortest round-trip repr. The
    rows are formatted in blocks of ``_BLOCK_ROWS`` rows, on a forked pool of one
    worker per ``ROWS_PER_WORKER`` rows up to one per usable core, or in this
    process when that makes one; the bytes do not depend on it. The workers
    inherit the columns and send back only the formatted blocks (see
    :func:`raredapt.parallel.ordered_map`). This process writes the blocks in
    row order and hashes them (SHA-256) as it writes. The cache holds
    the five columns as ``load_csv``'s parse builds them and that hash; both
    files are replaced atomically, the CSV first, so a cache left from an
    earlier CSV no longer matches and is ignored.
    """
    path = Path(path)
    remove_stale_temps(path.parent, (path.name, cache_path(path).name))
    arrays = {name: getattr(dataset, name) for name in _COLUMNS}

    def block(start: int) -> bytes:
        return _csv_block([column[start:start + _BLOCK_ROWS] for column in arrays.values()])

    starts = range(0, len(dataset), _BLOCK_ROWS)
    workers = _csv_workers(len(dataset))
    formatted = (ordered_map(block, starts, workers) if workers > 1
                 else (block(start) for start in starts))
    digest = hashlib.sha256()
    with contextlib.closing(formatted), atomic_open(path, "wb") as fh:
        for chunk in itertools.chain([csv_block([expected_header(dataset.feature_dim)])],
                                     formatted):
            digest.update(chunk)
            fh.write(chunk)
    arrays["features"] = np.ascontiguousarray(arrays["features"])
    for name, tokens in (("domains", DOMAIN_TOKENS), ("splits", SPLITS)):
        # the narrowest width that holds the tokens present, as np.array() of the cells gives
        width = max(len(token) for token in tokens if token in arrays[name])
        arrays[name] = arrays[name].astype(f"U{width}")
    with atomic_open(cache_path(path), "wb") as fh:
        np.savez(fh, **{_CSV_SHA256: np.array(digest.hexdigest())}, **arrays)


def _csv_block(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of one block of rows, given as its slice of each column."""
    features, *meta = (column.tolist() for column in columns)
    return csv_block([*x, *cells] for x, *cells in zip(features, *meta))


def _csv_workers(rows: int) -> int:
    """Processes for formatting ``rows`` CSV rows: one per ``ROWS_PER_WORKER``
    rows, at most one per usable core, at least one."""
    usable = getattr(os, "sched_getaffinity", None)
    if usable is None:
        return 1
    return max(1, min(len(usable(0)), rows // ROWS_PER_WORKER))


def cache_path(path) -> Path:
    """Where ``save_csv`` writes the parsed cache of the CSV at ``path``."""
    return Path(f"{path}.parsed.npz")


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB reads hash as fast as 1 MiB ones, and repeated loads then
        # leave the process with a lower peak RSS
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _load_cache(path) -> Dataset | None:
    """The Dataset in the parsed cache of ``path`` if that cache belongs to the
    CSV's current bytes and holds a valid Dataset, else None."""
    cache = cache_path(path)
    if not cache.is_file():
        return None
    try:
        arrays = {}
        with zipfile.ZipFile(cache) as npz:
            if sorted(npz.namelist()) != sorted(f"{name}.npy" for name in _CACHE_KEYS):
                return None
            for name in _CACHE_KEYS:  # the hash first: a stale cache costs one small read
                with npz.open(f"{name}.npy", mode="r") as member:
                    arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
                    # zipfile checks a member's CRC-32 only once it is read to its end
                    if member.read(1):
                        return None
                if name == _CSV_SHA256 and str(arrays.pop(name)) != _file_sha256(path):
                    return None
        # only arrays Dataset takes as they are: a converted one could differ
        # from the CSV's values (np.asarray keeps a byte-swapped string column)
        if any(np.asarray(a, dtype=_DTYPES[name]) is not a or not a.dtype.isnative
               for name, a in arrays.items()):
            return None
        return Dataset(**arrays)
    except Exception:
        # The cache is only a shortcut, so any failure to read it means "no
        # cache" and the CSV parse decides. A damaged .npz fails in numpy or
        # zipfile with more types than ValueError, BadZipFile and EOFError:
        # a flipped header byte can raise tokenize.TokenError, a forged shape
        # MemoryError. An unreadable CSV fails again, with its error, in the parse.
        return None


def load_csv(path) -> Dataset:
    """Read the CSV schema back into a Dataset, validating every invariant.

    If ``<path>.parsed.npz`` exists, the file is hashed first (SHA-256, in
    64 KiB chunks), and a cache that matches it and holds a valid Dataset is
    returned without parsing the CSV; one that does not is ignored. The
    result and every error below are the parse's either way.

    The parse is one plain pass over the file, which is never held in memory
    whole: the header fixes the feature dimension, then each data line's four
    metadata cells are split off and checked, and ``float()`` reads its
    feature values into an unboxed float64 buffer. Feature values follow
    numpy's float grammar, which is ``float()``'s minus underscores (``1_0``
    is rejected) and non-ASCII digits, neither of which ``save_csv`` writes.

    The class count is the largest ``class_id`` plus one, so an id outside
    int64, or a class_id no smaller than the row count (every class needs a
    real train row), is rejected before anything per class is built.

    Errors carry 1-based line numbers, and a bad value is reported in the
    words of ``float()`` or ``int()``. Each line is checked in full before
    the next is read, so the fault reported is the first in file order; the
    class_id-below-row-count check and ``Dataset`` validation follow the pass.
    """
    cached = _load_cache(path)
    return cached if cached is not None else _parse_csv(path)


def _parse_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise DataFormatError(f"{path}: empty file")
        header_text = header_line.rstrip("\n")
        header = header_text.split(",")
        d = len(header) - _META_COLUMNS
        if d < 1 or header != expected_header(d):
            raise DataFormatError(
                f"{path}: line 1: malformed header; expected f0..f{{d-1}},class_id,domain,"
                f"location_id,split, got {header_text[:80]!r}"
            )
        feats = array("d")  # unboxed, so a large file costs 8 bytes per value
        classes, domains, locations, splits = [], [], [], []
        for line_no, line in enumerate(fh, start=2):
            try:
                line = line.rstrip("\n")
                cells = line.rsplit(",", _META_COLUMNS)
                if len(cells) != _META_COLUMNS + 1 or cells[0].count(",") != d - 1:
                    raise ValueError(
                        f"expected {d + _META_COLUMNS} columns ({d} features + "
                        f"{_META_COLUMNS} metadata), got {line.count(',') + 1}"
                    )
                features, class_id, domain, location_id, split = cells
                class_id, location_id = int(class_id), int(location_id)
                if domain not in DOMAIN_TOKENS:
                    raise ValueError(f"unknown domain token {domain!r}")
                if split not in SPLITS:
                    raise ValueError(f"unknown split token {split!r}")
                for name, value in (("class_id", class_id), ("location_id", location_id)):
                    if not -2**63 <= value < 2**63:
                        raise ValueError(f"{name} {value} is outside int64")
                read = float if _plain(features) else _numpy_float
                feats.extend(map(read, features.split(",")))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {line_no}: {exc}") from exc
            classes.append(class_id)
            locations.append(location_id)
            domains.append(domain)
            splits.append(split)
    if not classes:
        raise DataFormatError(f"{path}: no data rows")
    class_ids = np.array(classes, dtype=np.int64)
    top = int(np.argmax(class_ids))
    if class_ids[top] >= len(class_ids):
        raise DataFormatError(
            f"{path}: line {top + 2}: class_id {class_ids[top]} is not below the number of "
            f"data rows ({len(class_ids)}); every class needs a real train row"
        )
    try:
        return Dataset(
            features=np.frombuffer(feats, dtype=np.float64).reshape(-1, d),
            class_ids=class_ids,
            domains=np.array(domains),
            location_ids=np.array(locations, dtype=np.int64),
            splits=np.array(splits),
        )
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _plain(text: str) -> bool:
    """Whether ``float()`` reads the values in ``text`` as numpy does: on ASCII
    text it does, bar underscores (numpy rejects them) and \\x1c-\\x1f (numpy strips them)."""
    return text.isascii() and not (
        "_" in text or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text)


def _numpy_float(token: str) -> float:
    """``token`` read with numpy's float grammar: Unicode whitespace around an
    ASCII ``float()`` literal without underscores; else ``float()``'s ValueError."""
    body = token.strip()
    if body.isascii() and "_" not in body:
        with contextlib.suppress(ValueError):
            return float(body)
    raise ValueError(f"could not convert string to float: {token!r}")


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Column-for-column sample equality."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _COLUMNS)
