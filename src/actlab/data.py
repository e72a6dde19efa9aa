"""CIFAR-100 ingestion, normalization, deterministic batching.

The on-disk format is the canonical CIFAR-100 binary layout: each record
is 3074 bytes, one coarse-label byte, one fine-label byte, then 3072
pixel bytes (red plane, green plane, blue plane, each 32x32 row-major).
The full distribution ships ``train.bin`` (50,000 records) and
``test.bin`` (10,000 records).

Pixels map byte -> float via x/255. Standardization uses per-channel
mean/std computed over the train split and cached in a small JSON
sidecar next to the data files, so the test split is normalized with
train statistics. The sidecar records train.bin's size and sha256 and
is recomputed whenever they no longer match or it does not hold three
finite means and three finite stds above 0. A split is decoded once,
into the float32 array that is then standardized in place. No
augmentation of any kind is applied here: the training recipes this lab
studies are deliberately bare, and augmenting would confound them.

Every file actlab writes goes through :func:`atomic_write`, so a killed
process never leaves a half-written file in place of a good one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RECORD_BYTES",
    "SPLIT_FILES",
    "STATS_FILE",
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
STATS_FILE = "channel_stats.json"
DATA_DIR_ENV = "ACTLAB_DATA_DIR"
PUBLIC_SOURCE = "https://www.cs.toronto.edu/~kriz/cifar.html (CIFAR-100 binary version)"
_SYNTH_CHUNK = 128  # samples per noise draw in write_synthetic_cifar100
_STATS_CHUNK = 256  # samples per float64 chunk of the channel std
_SYNTH_SIGNAL = 0.85  # prototype share of a synthetic pixel; the rest is noise


@dataclass
class Dataset:
    """In-memory split: standardized float32 images [N,3,32,32] and their
    int64 fine labels."""

    images: np.ndarray
    fine_labels: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]


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


def _unit_pixels(records: np.ndarray) -> np.ndarray:
    """The pixels of (N, RECORD_BYTES) records as float32 x/255 [N,3,32,32],
    decoded straight from the records into one new array."""
    x = np.empty((records.shape[0], 3, 32, 32), dtype=np.float32)
    x[...] = _pixel_view(records)
    x /= np.float32(255.0)
    return x


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


def _train_identity(path: Path, records: np.ndarray | None) -> dict:
    """train.bin's size and sha256, hashed from ``records`` (its bytes as
    already read) when given, else streamed from the file."""
    digest = hashlib.sha256()
    if records is not None:
        digest.update(records)
        size = records.nbytes
    else:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        size = path.stat().st_size
    return {"train_bytes": size, "train_sha256": digest.hexdigest()}


def _channel_stats(data_dir: Path, train: tuple[np.ndarray, np.ndarray] | None) -> dict:
    """Per-channel mean/std of the train split in x/255 units.

    Cached in a JSON sidecar together with train.bin's size and sha256.
    The sidecar is reused only while it is a JSON object whose size and
    sha256 match train.bin and whose ``mean`` and ``std`` each hold three
    finite floats, every std above 0, as this function writes them.
    Anything else (unreadable JSON, another identity, a missing or
    malformed field, a std of 0 or below) is stale: the statistics are
    recomputed and the sidecar is replaced atomically. A train split with
    a channel whose own std is 0 is refused, naming train.bin and the
    channel. ``train`` is train.bin's records and their x/255 pixels
    when the caller has already read and decoded them; without it
    train.bin is read here.
    """
    train_path = data_dir / SPLIT_FILES["train"]
    sidecar = data_dir / STATS_FILE
    identity = _train_identity(train_path, None if train is None else train[0])
    stats = _cached_stats(sidecar, identity)
    if stats is not None:
        return stats
    x = _unit_pixels(_read_records(train_path)) if train is None else train[1]
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    std = _channel_std(x, mean)
    for ch, s in enumerate(std):
        if not s > 0:
            raise ValueError(f"{train_path}: channel {ch} has std {s}, so it cannot be standardized")
    stats = {
        "mean": [float(m) for m in mean],
        "std": [float(s) for s in std],
        "source_split": "train",
        "scale": "x/255",
        **identity,
    }
    with atomic_write(sidecar) as f:
        f.write(json.dumps(stats, indent=2, sort_keys=True))
    return stats


def _cached_stats(sidecar: Path, identity: dict) -> dict | None:
    """The sidecar's statistics if they can be trusted (see
    ``_channel_stats``), else None."""
    try:
        stats = json.loads(sidecar.read_text())
    except (FileNotFoundError, ValueError):  # no sidecar, or not UTF-8 JSON
        return None
    if not isinstance(stats, dict) or any(stats.get(k) != v for k, v in identity.items()):
        return None
    for key in ("mean", "std"):
        values = stats.get(key)
        if not (isinstance(values, list) and len(values) == 3):
            return None
        if not all(type(v) is float and math.isfinite(v) for v in values):
            return None
    if not all(s > 0 for s in stats["std"]):
        return None
    return stats


def _channel_std(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``x.std(axis=(0, 2, 3), dtype=np.float64)`` of a C-contiguous
    [N, C, H, W] array, bit for bit, given its per-channel float64 mean,
    in float64 chunks of ``_STATS_CHUNK`` samples instead of one copy of
    all of x. numpy's sum of squared deviations is a pairwise sum over
    each sample's H*W values per channel, added sample after sample;
    this adds them in that order."""
    n, c = x.shape[:2]
    m = mean.reshape(1, c, 1, 1)
    total = np.zeros(c)
    for start in range(0, n, _STATS_CHUNK):
        d = x[start : start + _STATS_CHUNK] - m
        np.multiply(d, d, out=d)
        for per_sample in d.reshape(d.shape[0], c, -1).sum(axis=2):
            total += per_sample
    return np.sqrt(total / (x.size // c))


def load_cifar100(data_dir, split: str) -> Dataset:
    """Load one split, pixels mapped to x/255 and then standardized per
    channel with the train split's statistics.

    The split is decoded once into one float32 array and standardized in
    place; loading the train split takes any statistics it must
    recompute from that same x/255 array."""
    if split not in SPLIT_FILES:
        raise ValueError(f"split must be one of {sorted(SPLIT_FILES)}, got {split!r}")
    data_dir = Path(data_dir)
    records = _read_records(data_dir / SPLIT_FILES[split])
    images = _unit_pixels(records)
    stats = _channel_stats(data_dir, (records, images) if split == "train" else None)
    images -= np.asarray(stats["mean"], dtype=np.float32).reshape(1, 3, 1, 1)
    images /= np.asarray(stats["std"], dtype=np.float32).reshape(1, 3, 1, 1)
    return Dataset(images=images, fine_labels=records[:, 1].astype(np.int64))


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
    return Dataset(images=ds.images[sel], fine_labels=ds.fine_labels[sel])


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (images, labels) chunks of ``batch_size`` in shuffled order;
    the last short batch is kept. The order is a pure function of
    (seed, epoch)."""
    order = np.random.default_rng([seed, epoch]).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        sel = order[start : start + batch_size]
        yield ds.images[sel], ds.fine_labels[sel]


def eval_batches(ds: Dataset, batch_size: int):
    """Unshuffled chunks for evaluation passes."""
    for start in range(0, len(ds), batch_size):
        yield ds.images[start : start + batch_size], ds.fine_labels[start : start + batch_size]


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
