"""Loader byte-exactness, standardization, subsetting, batch order."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import actlab.data as data
from actlab.data import (
    RECORD_BYTES,
    Dataset,
    atomic_write,
    batches,
    load_cifar100,
    subset,
    write_cifar_records,
    write_synthetic_cifar100,
)

from oracles import standardized_split_reference, synthetic_records_one_shot


@pytest.fixture
def fixture_dir(tmp_path):
    """Two hand-constructed records with fully known bytes."""
    coarse = np.array([1, 2], dtype=np.uint8)
    fine = np.array([7, 42], dtype=np.uint8)
    pixels = np.zeros((2, 3, 32, 32), dtype=np.uint8)
    pixels[0, 0, 0, 0] = 255
    pixels[0, 1, 3, 4] = 128
    pixels[1, 2, 31, 31] = 1
    write_cifar_records(tmp_path / "train.bin", coarse, fine, pixels)
    write_cifar_records(tmp_path / "test.bin", coarse[::-1].copy(), fine[::-1].copy(), pixels[::-1].copy())
    return tmp_path, coarse, fine, pixels


def read_records(path):
    """(coarse, fine, pixels [N,3,32,32]) as uint8, read with numpy straight
    from the 3074-byte record layout: coarse byte, fine byte, 3072 pixels."""
    records = np.fromfile(path, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    return records[:, 0], records[:, 1], records[:, 2:].reshape(-1, 3, 32, 32)


def unit_pixels(data_dir, split):
    """A split's pixels as x/255 in float32, before standardization."""
    _, fine, pixels = read_records(data_dir / f"{split}.bin")
    return pixels.astype(np.float32) / np.float32(255.0), fine


def _edited(**fields):
    """A sidecar damage: the good sidecar with each given field set to its
    value, or dropped where the value is None."""

    def damage(good):
        stats = json.loads(good)
        for key, value in fields.items():
            if value is None:
                del stats[key]
            else:
                stats[key] = value
        return json.dumps(stats).encode()

    return damage


def _first_std(value):
    """A sidecar damage: the good sidecar with ``std[0]`` set to ``value``."""

    def damage(good):
        stats = json.loads(good)
        stats["std"][0] = value
        return json.dumps(stats).encode()

    return damage


# each maps the good sidecar's text to the damaged sidecar's bytes
DAMAGED_SIDECARS = {
    "list": lambda good: b"[1, 2]",
    "truncated": lambda good: good[:-20].encode(),
    "not-utf8": lambda good: b"\xff\xfe",
    "other-identity": _edited(train_sha256="0"),
    "no-mean": _edited(mean=None),
    "one-value-mean": _edited(mean=[0.1]),
    "string-std": _edited(std="abc"),
    "string-values-std": _edited(std=["a", "b", "c"]),
    "object-std": _edited(std={}),
    "nan-std": _edited(std=[1.0, float("nan"), 1.0]),
    "inf-mean": _edited(mean=[0.1, 0.2, float("inf")]),
    "bool-mean": _edited(mean=[True, 0.2, 0.3]),
    "zero-std": _first_std(0.0),
    "negative-std": _first_std(-1.0),
}


class TestLoader:
    def test_exact_tensors_and_labels_from_fixture(self, fixture_dir):
        d, coarse, fine, pixels = fixture_dir
        got_coarse, got_fine, got_pixels = read_records(d / "train.bin")
        for got, want in ((got_coarse, coarse), (got_fine, fine), (got_pixels, pixels)):
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
        ds = load_cifar100(d, "train")
        assert len(ds) == 2 and ds.images.dtype == np.float32
        np.testing.assert_array_equal(ds.fine_labels, fine)
        assert ds.fine_labels.dtype == np.int64
        x, _ = unit_pixels(d, "train")
        assert x[0, 0, 0, 0] == 1.0  # byte 255 -> exactly 1.0
        np.testing.assert_allclose(x[0, 1, 3, 4], 128 / 255, rtol=1e-7)
        assert x[1, 2, 31, 31] == np.float32(1.0 / 255.0)

    def test_missing_file_names_path_and_source(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="cs.toronto.edu"):
            load_cifar100(tmp_path, "train")

    def test_wrong_length_reports_byte_counts(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(b"\x00" * (RECORD_BYTES + 5))
        with pytest.raises(ValueError, match=str(RECORD_BYTES + 5)):
            load_cifar100(tmp_path, "train")

    def test_empty_train_file_refused_without_sidecar(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="train.bin holds no records"):
            load_cifar100(tmp_path, "train")
        assert not (tmp_path / "channel_stats.json").exists()

    def test_unknown_split_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="split"):
            load_cifar100(tmp_path, "validation")

    def test_roundtrip_is_byte_identical(self, fixture_dir, tmp_path):
        d, *_ = fixture_dir
        out = tmp_path / "resaved.bin"
        write_cifar_records(out, *read_records(d / "train.bin"))
        assert out.read_bytes() == (d / "train.bin").read_bytes()


class TestAtomicWrite:
    def test_failed_binary_write_leaves_previous_file_and_no_temp(self, tmp_path):
        path = tmp_path / "t.bin"
        with atomic_write(path, "wb") as f:
            f.write(b"good")
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode  # same permissions as a plain open()

        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path, "wb") as f:
                f.write(b"bad")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"good"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.bin", "t.bin"]


class TestStandardization:
    def test_train_split_standardizes_to_unit_stats(self, tmp_path):
        write_synthetic_cifar100(tmp_path, 8, 2, num_classes=20, seed=3)
        ds = load_cifar100(tmp_path, "train")
        mean = ds.images.mean(axis=(0, 2, 3), dtype=np.float64)
        std = ds.images.std(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(mean, 0.0, atol=1e-3)
        np.testing.assert_allclose(std, 1.0, atol=1e-3)

    def test_sidecar_written_once_and_reused(self, tmp_path):
        write_synthetic_cifar100(tmp_path, 2, 1, num_classes=5, seed=1)
        load_cifar100(tmp_path, "train")
        sidecar = tmp_path / "channel_stats.json"
        assert sidecar.exists()
        stats1 = json.loads(sidecar.read_text())
        assert len(stats1["mean"]) == 3 and len(stats1["std"]) == 3
        # a second load must read the sidecar, not recompute
        mutated = dict(stats1)
        mutated["mean"] = [0.5, 0.5, 0.5]
        sidecar.write_text(json.dumps(mutated))
        ds = load_cifar100(tmp_path, "train")
        assert json.loads(sidecar.read_text())["mean"] == [0.5, 0.5, 0.5]
        x, _ = unit_pixels(tmp_path, "train")
        std = np.asarray(stats1["std"], dtype=np.float32).reshape(1, 3, 1, 1)
        assert ds.images.tobytes() == ((x - np.float32(0.5)) / std).tobytes()

    @pytest.mark.parametrize("damage", DAMAGED_SIDECARS.values(), ids=DAMAGED_SIDECARS.keys())
    def test_damaged_sidecar_is_recomputed_and_replaced(self, tmp_path, damage):
        fresh, damaged = tmp_path / "fresh", tmp_path / "damaged"
        for d in (fresh, damaged):
            write_synthetic_cifar100(d, 2, 1, num_classes=5, seed=1)
        load_cifar100(fresh, "train")
        good = (fresh / "channel_stats.json").read_text()
        sidecar = damaged / "channel_stats.json"
        sidecar.write_bytes(damage(good))
        for split in ("test", "train"):
            got = load_cifar100(damaged, split)
            assert got.images.tobytes() == load_cifar100(fresh, split).images.tobytes()
            assert sidecar.read_text() == good

    def test_train_split_checks_sidecar_without_reopening_train_bin(self, tmp_path, monkeypatch):
        write_synthetic_cifar100(tmp_path, 2, 1, num_classes=5, seed=1)
        load_cifar100(tmp_path, "train")
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(Path(path).name)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(data, "open", recording_open, raising=False)
        load_cifar100(tmp_path, "train")
        assert "train.bin" not in opened
        load_cifar100(tmp_path, "test")  # the test split still hashes train.bin itself
        assert opened.count("train.bin") == 1

    def test_replaced_train_records_get_fresh_statistics(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.arange(4, dtype=np.uint8)

        def write_train(low, high):
            pixels = rng.integers(low, high, size=(4, 3, 32, 32), dtype=np.uint8)
            write_cifar_records(tmp_path / "train.bin", labels, labels, pixels)
            return pixels

        write_train(0, 100)
        load_cifar100(tmp_path, "train")
        pixels = write_train(100, 256)  # same size, different bytes
        ds = load_cifar100(tmp_path, "train")
        x = pixels.astype(np.float32) / np.float32(255.0)
        stats = json.loads((tmp_path / "channel_stats.json").read_text())
        assert stats["mean"] == [float(m) for m in x.mean(axis=(0, 2, 3), dtype=np.float64)]
        assert stats["train_bytes"] == (tmp_path / "train.bin").stat().st_size
        np.testing.assert_allclose(ds.images.mean(axis=(0, 2, 3), dtype=np.float64), 0.0, atol=1e-3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["channel_stats.json", "train.bin"]

    def test_constant_channel_train_split_refused_naming_file_and_channel(self, tmp_path):
        labels = np.arange(4, dtype=np.uint8)
        pixels = np.random.default_rng(0).integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
        pixels[:, 1] = 77
        for split in ("train", "test"):
            write_cifar_records(tmp_path / f"{split}.bin", labels, labels, pixels)
        for split in ("train", "test"):
            with pytest.raises(ValueError, match=r"train\.bin: channel 1 has std 0\.0"):
                load_cifar100(tmp_path, split)
        assert not (tmp_path / "channel_stats.json").exists()

    def test_test_split_uses_train_statistics(self, tmp_path):
        write_synthetic_cifar100(tmp_path, 4, 4, num_classes=10, seed=2)
        test_norm = load_cifar100(tmp_path, "test")
        stats = json.loads((tmp_path / "channel_stats.json").read_text())
        test_raw, _ = unit_pixels(tmp_path, "test")
        mean = np.asarray(stats["mean"], dtype=np.float32).reshape(1, 3, 1, 1)
        std = np.asarray(stats["std"], dtype=np.float32).reshape(1, 3, 1, 1)
        np.testing.assert_allclose(test_norm.images, (test_raw - mean) / std, rtol=1e-6)


class TestSubset:
    def make_ds(self, per_class=10, classes=6, seed=0):
        rng = np.random.default_rng(seed)
        n = per_class * classes
        return Dataset(
            images=rng.standard_normal((n, 3, 32, 32)).astype(np.float32),
            fine_labels=np.repeat(np.arange(classes), per_class).astype(np.int64),
        )

    def test_balanced_counts(self):
        ds = self.make_ds()
        sub = subset(ds, per_class=4, seed=7)
        assert len(sub) == 24
        _, counts = np.unique(sub.fine_labels, return_counts=True)
        assert np.all(counts == 4)

    def test_full_class_size_is_permutation(self):
        ds = self.make_ds(per_class=5, classes=3)
        sub = subset(ds, per_class=5, seed=1)
        assert sorted(map(tuple, sub.images.reshape(len(sub), -1)[:, :2])) == sorted(
            map(tuple, ds.images.reshape(len(ds), -1)[:, :2])
        )

    def test_same_seed_same_indices(self):
        ds = self.make_ds()
        a = subset(ds, per_class=3, seed=42)
        b = subset(ds, per_class=3, seed=42)
        np.testing.assert_array_equal(a.images, b.images)
        c = subset(ds, per_class=3, seed=43)
        assert not np.array_equal(a.images, c.images)

    def test_insufficient_class_names_the_class(self):
        ds = self.make_ds(per_class=3, classes=4)
        with pytest.raises(ValueError, match="class 0 has only 3"):
            subset(ds, per_class=4, seed=0)


class TestBatches:
    def make_ds(self, n):
        return Dataset(
            images=np.arange(n, dtype=np.float32).reshape(n, 1, 1, 1) * np.ones((n, 3, 32, 32), dtype=np.float32),
            fine_labels=np.arange(n, dtype=np.int64),
        )

    def test_batch_sizes_with_short_tail(self):
        ds = self.make_ds(300)
        sizes = [len(lab) for _, lab in batches(ds, batch_size=128, seed=0, epoch=0)]
        assert sizes == [128, 128, 44]

    def test_epochs_shuffle_differently_but_reproducibly(self):
        ds = self.make_ds(64)
        order0 = next(iter(batches(ds, batch_size=64, seed=5, epoch=0)))[1]
        order1 = next(iter(batches(ds, batch_size=64, seed=5, epoch=1)))[1]
        assert not np.array_equal(order0, order1)
        np.testing.assert_array_equal(order0, next(iter(batches(ds, batch_size=64, seed=5, epoch=0)))[1])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=200), bs=st.integers(min_value=1, max_value=64), epoch=st.integers(0, 3))
    def test_concatenation_is_a_permutation_of_the_dataset(self, n, bs, epoch):
        ds = self.make_ds(n)
        all_labels = np.concatenate([lab for _, lab in batches(ds, batch_size=bs, seed=9, epoch=epoch)])
        assert sorted(all_labels.tolist()) == list(range(n))


class TestSynthetic:
    def test_file_sizes_and_loadability(self, tmp_path):
        write_synthetic_cifar100(tmp_path, 3, 2, num_classes=10, seed=0)
        assert (tmp_path / "train.bin").stat().st_size == 30 * RECORD_BYTES
        assert (tmp_path / "test.bin").stat().st_size == 20 * RECORD_BYTES
        train = load_cifar100(tmp_path, "train")
        _, counts = np.unique(train.fine_labels, return_counts=True)
        assert np.all(counts == 3)

    def test_deterministic_per_seed(self, tmp_path):
        write_synthetic_cifar100(tmp_path / "a", 2, 1, num_classes=4, seed=9)
        write_synthetic_cifar100(tmp_path / "b", 2, 1, num_classes=4, seed=9)
        assert (tmp_path / "a" / "train.bin").read_bytes() == (tmp_path / "b" / "train.bin").read_bytes()

    @pytest.mark.parametrize(
        "name, value",
        [("num_classes", 300), ("num_classes", 257), ("num_classes", 0),
         ("train_per_class", 0), ("test_per_class", 0), ("test_per_class", -1), ("seed", -1)],
    )
    def test_out_of_range_arguments_refused_by_name(self, tmp_path, name, value):
        args = {"train_per_class": 1, "test_per_class": 1, "num_classes": 4, name: value}
        with pytest.raises(ValueError, match=name):
            write_synthetic_cifar100(tmp_path / "d", **args)
        assert not (tmp_path / "d").exists()

    def test_256_classes_keep_distinct_labels(self, tmp_path):
        write_synthetic_cifar100(tmp_path, 1, 1, num_classes=256, seed=0)
        _, fine, _ = read_records(tmp_path / "train.bin")
        assert sorted(fine.tolist()) == list(range(256))

    def test_classes_are_separable_by_prototype_distance(self, tmp_path):
        # nearest class prototype (computed from train) classifies test well
        write_synthetic_cifar100(tmp_path, 20, 5, num_classes=8, seed=4)
        train, train_labels = unit_pixels(tmp_path, "train")
        test, test_labels = unit_pixels(tmp_path, "test")
        protos = np.stack([train[train_labels == k].mean(axis=0) for k in range(8)])
        flat = test.reshape(len(test), -1)
        dists = ((flat[:, None, :] - protos.reshape(8, -1)[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == test_labels).mean()
        assert acc > 0.9


@pytest.mark.parametrize("n", [1, data._STATS_CHUNK - 1, data._STATS_CHUNK, data._STATS_CHUNK + 1, 600])
def test_chunked_channel_std_has_numpys_bits(n):
    rng = np.random.default_rng(n)
    x = rng.integers(0, 256, (n, 3, 32, 32)).astype(np.float32) / np.float32(255.0)
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    want = x.std(axis=(0, 2, 3), dtype=np.float64)
    assert data._channel_std(x, mean).tobytes() == want.tobytes()


CHUNK = data._SYNTH_CHUNK


# (train per class, test per class, classes): the train split is shorter
# than one noise chunk, exactly one, two whole ones, or ends on a short one
@pytest.mark.parametrize(
    "train_per_class, test_per_class, num_classes",
    [(3, 2, 10), (CHUNK // 4, 1, 4), (CHUNK // 2, 3, 4), (CHUNK // 2 + 3, CHUNK // 2 - 1, 5)],
    ids=["under-one-chunk", "one-chunk", "two-chunks", "short-last-chunk"],
)
@pytest.mark.parametrize("first_split", ["train", "test"])
def test_chunked_writer_and_loader_match_one_shot_references(
    tmp_path, train_per_class, test_per_class, num_classes, first_split
):
    assert CHUNK % 4 == 0
    seed = train_per_class + num_classes
    write_synthetic_cifar100(tmp_path, train_per_class, test_per_class, num_classes=num_classes, seed=seed)
    want = synthetic_records_one_shot(train_per_class, test_per_class, num_classes, seed)
    files = [(tmp_path / name).read_bytes() for name in ("train.bin", "test.bin")]
    for got, records in zip(files, want):
        assert got == records.tobytes()

    splits = [first_split, "test" if first_split == "train" else "train"]
    loaded = {split: load_cifar100(tmp_path, split) for split in splits}
    for split, raw in zip(("train", "test"), files):
        stats_text, images, labels = standardized_split_reference(files[0], raw)
        assert (tmp_path / "channel_stats.json").read_text() == stats_text
        ds = loaded[split]
        assert ds.images.dtype == np.float32 and ds.images.flags.c_contiguous
        assert ds.images.shape == images.shape and ds.images.tobytes() == images.tobytes()
        assert ds.fine_labels.dtype == np.int64 and np.array_equal(ds.fine_labels, labels)
