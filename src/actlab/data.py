"""CIFAR-100 ingestion, normalization, deterministic batching.

The on-disk format is the canonical CIFAR-100 binary layout: each record
is 3074 bytes, one coarse-label byte, one fine-label byte, then 3072
pixel bytes (red plane, green plane, blue plane, each 32x32 row-major).
The full distribution ships ``train.bin`` (50,000 records) and
``test.bin`` (10,000 records).

Pixels map byte -> float via x/255. Standardization uses per-channel
mean/std computed over the train split, so the test split is normalized
with train statistics. A process computes them once for each content
of train.bin, kept under the sha256 of its bytes, and writes nothing
into the data directory. A split is held as its pixel bytes, a uint8
view of the records as read, and only the images a caller draws (a
batch, an evaluation slice, the probe batch) are decoded and
standardized, each step in float32, so an image has the same bits
whatever batch it is drawn in. The statistics are taken from counts
of each byte value per channel, so no path holds a float array of a
whole split. No augmentation of any kind is applied here: the
training recipes this lab studies are deliberately bare, and augmenting
would confound them.

Every file actlab writes goes through :func:`atomic_write`, so a killed
process never leaves a half-written file in place of a good one.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "RECORD_BYTES",
    "SPLIT_FILES",
    "DATA_DIR_ENV",
    "Dataset",
    "atomic_write",
    "write_cifar_records",
    "load_cifar100",
    "subset",
    "batches",
    "write_synthetic_cifar100",
]

RECORD_BYTES = 3074  # 1 coarse + 1 fine + 3*32*32 pixels
SPLIT_FILES = {"train": "train.bin", "test": "test.bin"}
DATA_DIR_ENV = "ACTLAB_DATA_DIR"
PUBLIC_SOURCE = "https://www.cs.toronto.edu/~kriz/cifar.html (CIFAR-100 binary version)"
_SYNTH_CHUNK = 128  # samples per noise draw in write_synthetic_cifar100
_STATS_CHUNK = 256  # samples per chunk of the channel statistics' byte-value counts
_SYNTH_SIGNAL = 0.85  # prototype share of a synthetic pixel; the rest is noise
_TRAIN_STATS: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # train records' sha256 -> (mean, std)


@dataclass
class Dataset:
    """In-memory split: its uint8 pixel bytes [N,3,32,32], their int64
    fine labels, and the train split's per-channel float32 ``mean`` and
    ``std`` in x/255 units, with which ``images`` standardizes them."""

    pixels: np.ndarray
    fine_labels: np.ndarray
    mean: np.ndarray
    std: np.ndarray

    def __len__(self) -> int:
        return self.pixels.shape[0]

    def images(self, index) -> np.ndarray:
        """The standardized float32 images at ``index`` (a slice or an
        index array), decoded from their bytes: x/255, minus the mean,
        over the std, each step in float32."""
        x = self.pixels[index].astype(np.float32)
        x /= np.float32(255.0)
        x -= self.mean.reshape(1, 3, 1, 1)
        x /= self.std.reshape(1, 3, 1, 1)
        return x


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write ``path`` through a temp file that replaces it only on success.

    The temp file sits next to ``path`` and carries the process id; if
    anything raises it is deleted and ``path`` is left untouched. Plain
    ``open`` gives the usual umask permissions. No fsync: this survives a
    killed process, not a power loss. Text modes write UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_records(path) -> np.ndarray:
    """The file's bytes as a C-contiguous (N, RECORD_BYTES) uint8 array,
    N >= 1: a missing file, an empty one and a partial record are refused
    with a message that names the path."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; obtain the dataset from {PUBLIC_SOURCE}")
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise ValueError(f"{path} holds no records")
    if raw.size % RECORD_BYTES != 0:
        expected = (raw.size // RECORD_BYTES + 1) * RECORD_BYTES
        raise ValueError(
            f"{path} has {raw.size} bytes, not a multiple of the {RECORD_BYTES}-byte record size "
            f"(nearest whole-record size would be {expected})"
        )
    return raw.reshape(-1, RECORD_BYTES)


def _pixel_view(records: np.ndarray) -> np.ndarray:
    """The pixel bytes of (N, RECORD_BYTES) records as an [N,3,32,32] view."""
    return records[:, 2:].reshape(records.shape[0], 3, 32, 32)


def write_cifar_records(path, coarse: np.ndarray, fine: np.ndarray, pixels: np.ndarray):
    """Serialize records back to the canonical binary layout."""
    n = fine.shape[0]
    if coarse.shape != (n,) or pixels.shape != (n, 3, 32, 32):
        raise ValueError(f"inconsistent record arrays: coarse {coarse.shape}, fine {fine.shape}, pixels {pixels.shape}")
    records = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = coarse
    records[:, 1] = fine
    records[:, 2:] = pixels.reshape(n, -1)
    with atomic_write(path, "wb") as f:
        records.tofile(f)


def _channel_stats(data_dir: Path, train_records: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The train split's per-channel float32 mean and std in x/255 units.

    ``train_records`` is train.bin's records when the caller has already
    read them; without it train.bin is read here. The statistics are
    computed once per process for each content of train.bin: they are
    kept under the sha256 of its records, so replaced bytes get fresh
    statistics. Every split loaded from the same bytes shares the two
    arrays, so they are read-only. A train split with a channel whose
    std is 0 is refused, naming train.bin and the channel.
    """
    train_path = data_dir / SPLIT_FILES["train"]
    records = _read_records(train_path) if train_records is None else train_records
    key = hashlib.sha256(records).hexdigest()
    if key not in _TRAIN_STATS:
        mean, std = _pixel_stats(_pixel_view(records))
        for ch, s in enumerate(std):
            if not s > 0:
                raise ValueError(f"{train_path}: channel {ch} has std {s}, so it cannot be standardized")
        stats = mean.astype(np.float32), std.astype(np.float32)
        for a in stats:
            a.flags.writeable = False
        _TRAIN_STATS[key] = stats
    return _TRAIN_STATS[key]


def _pixel_stats(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 per-channel mean and std of the float32 x/255 decode x
    of uint8 [N, C, H, W] pixels. x takes only 256 values, so this counts
    each byte value per channel, over chunks of ``_STATS_CHUNK`` samples,
    and weights the 256 decoded values by those counts. The counts are
    exact, so the result depends on neither the order of the samples nor
    the chunk size, and a constant channel's mean is exactly its value."""
    n, c = pixels.shape[:2]
    counts = np.zeros((c, 256), dtype=np.int64)
    for start in range(0, n, _STATS_CHUNK):
        part = pixels[start : start + _STATS_CHUNK]
        for ch in range(c):
            counts[ch] += np.bincount(part[:, ch].ravel(), minlength=256)
    decoded = (np.arange(256, dtype=np.float32) / np.float32(255.0)).astype(np.float64)
    count = pixels.size // c
    mean = (counts * decoded).sum(axis=1) / count
    return mean, np.sqrt((counts * (decoded - mean[:, None]) ** 2).sum(axis=1) / count)


def load_cifar100(data_dir, split: str) -> Dataset:
    """Load one split: its pixel bytes as read, its labels, and the train
    split's per-channel statistics, which ``Dataset.images`` standardizes
    with. Loading the train split computes them from the records it has
    just read; the test split reads train.bin for them."""
    if split not in SPLIT_FILES:
        raise ValueError(f"split must be one of {sorted(SPLIT_FILES)}, got {split!r}")
    data_dir = Path(data_dir)
    records = _read_records(data_dir / SPLIT_FILES[split])
    mean, std = _channel_stats(data_dir, records if split == "train" else None)
    return Dataset(pixels=_pixel_view(records), fine_labels=records[:, 1].astype(np.int64), mean=mean, std=std)


def default_data_dir(cli_value=None):
    """Resolve the data directory: explicit flag wins, then the env var."""
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise ValueError(f"no data directory given; pass --data-dir or set {DATA_DIR_ENV}")


def subset(ds: Dataset, per_class: int, seed: int) -> Dataset:
    """Class-balanced subset: ``per_class`` samples of every label,
    chosen by a seeded permutation of each class's indices."""
    rng = np.random.default_rng(seed)
    picks = []
    for k in np.unique(ds.fine_labels):
        idx = np.flatnonzero(ds.fine_labels == k)
        if idx.size < per_class:
            raise ValueError(f"class {int(k)} has only {idx.size} samples, need {per_class}")
        picks.append(rng.permutation(idx)[:per_class])
    sel = np.concatenate(picks)
    return replace(ds, pixels=ds.pixels[sel], fine_labels=ds.fine_labels[sel])


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (images, labels) chunks of ``batch_size`` in shuffled order;
    the last short batch is kept. The order is a pure function of
    (seed, epoch)."""
    order = np.random.default_rng([seed, epoch]).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        sel = order[start : start + batch_size]
        yield ds.images(sel), ds.fine_labels[sel]


def eval_batches(ds: Dataset, batch_size: int):
    """Unshuffled chunks for evaluation passes."""
    for start in range(0, len(ds), batch_size):
        sel = slice(start, start + batch_size)
        yield ds.images(sel), ds.fine_labels[sel]


def write_synthetic_cifar100(
    data_dir,
    train_per_class: int,
    test_per_class: int,
    num_classes: int = 100,
    seed: int = 0,
):
    """Generate a class-separable stand-in dataset in the CIFAR binary layout.

    Each class gets a fixed random prototype image; samples mix the
    prototype (weight 0.85) with uniform pixel noise, which
    makes the classes easy to tell apart while exercising the exact same
    loader, normalization and batching paths as the real data. Intended
    for desk-scale runs and CI, where the real dataset is not available.
    The mix is clean enough that a few hundred optimizer steps
    show real learning even in the deliberately fragile training regime.

    The noise is drawn and mixed in chunks of whole samples from one
    generator stream, so the files do not depend on the chunk size and
    no full-size float64 array is ever held.
    """
    if not 1 <= num_classes <= 256:
        raise ValueError(f"num_classes must be in 1..256 (a label is one byte), got {num_classes}")
    for name, per_class in (("train_per_class", train_per_class), ("test_per_class", test_per_class)):
        if per_class < 1:
            raise ValueError(f"{name} must be at least 1, got {per_class}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    signal = _SYNTH_SIGNAL * rng.uniform(0.0, 255.0, size=(num_classes, 3, 32, 32))

    def make_split(per_class, split_seed):
        srng = np.random.default_rng([seed, split_seed])
        n = per_class * num_classes
        fine = np.repeat(np.arange(num_classes, dtype=np.uint8), per_class)
        pixels = np.empty((n, 3, 32, 32), dtype=np.uint8)
        for a in range(0, n, _SYNTH_CHUNK):
            b = min(a + _SYNTH_CHUNK, n)
            mix = srng.uniform(0.0, 255.0, size=(b - a, 3, 32, 32))
            mix *= 1.0 - _SYNTH_SIGNAL
            mix += signal[fine[a:b]]
            pixels[a:b] = np.clip(mix, 0.0, 255.0, out=mix)
        order = srng.permutation(n)
        coarse = (fine // 5).astype(np.uint8)
        return coarse[order], fine[order], pixels[order]

    write_cifar_records(data_dir / SPLIT_FILES["train"], *make_split(train_per_class, 1))
    write_cifar_records(data_dir / SPLIT_FILES["test"], *make_split(test_per_class, 2))
