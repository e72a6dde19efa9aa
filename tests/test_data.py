"""Loader byte-exactness, standardization, subsetting, batch order."""

import tracemalloc
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
    eval_batches,
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


def whole(ds):
    """Every image of ``ds``, decoded in one draw."""
    return ds.images(slice(None))


def unit_pixels(data_dir, split):
    """A split's pixels as x/255 in float32, before standardization."""
    _, fine, pixels = read_records(data_dir / f"{split}.bin")
    return pixels.astype(np.float32) / np.float32(255.0), fine


@pytest.fixture(autouse=True)
def no_kept_statistics(monkeypatch):
    """Each test starts with no train statistics kept in the process, so
    the first load of a train.bin's content computes them."""
    monkeypatch.setattr(data, "_TRAIN_STATS", {})


class TestLoader:
    def test_exact_tensors_and_labels_from_fixture(self, fixture_dir):
        d, coarse, fine, pixels = fixture_dir
        got_coarse, got_fine, got_pixels = read_records(d / "train.bin")
        for got, want in ((got_coarse, coarse), (got_fine, fine), (got_pixels, pixels)):
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
        ds = load_cifar100(d, "train")
        assert len(ds) == 2 and ds.pixels.dtype == np.uint8 and whole(ds).dtype == np.float32
        np.testing.assert_array_equal(ds.pixels, pixels)
        np.testing.assert_array_equal(ds.fine_labels, fine)
        assert ds.fine_labels.dtype == np.int64
        x, _ = unit_pixels(d, "train")
        assert x[0, 0, 0, 0] == 1.0  # byte 255 -> exactly 1.0
        np.testing.assert_allclose(x[0, 1, 3, 4], 128 / 255, rtol=1e-7)
        assert x[1, 2, 31, 31] == np.float32(1.0 / 255.0)

    def test_missing_file_names_path_and_source(self, tmp_path):
        message = r"train\.bin not found; obtain the dataset from .*cs\.toronto\.edu"
        with pytest.raises(FileNotFoundError, match=message):
            load_cifar100(tmp_path, "train")
        write_random_split(tmp_path / "test.bin", 2, seed=0)
        with pytest.raises(FileNotFoundError, match=message):  # the test split reads train.bin for its statistics
            load_cifar100(tmp_path, "test")

    def test_wrong_length_reports_byte_counts(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(b"\x00" * (RECORD_BYTES + 5))
        with pytest.raises(ValueError, match=str(RECORD_BYTES + 5)):
            load_cifar100(tmp_path, "train")

    def test_empty_train_file_refused_writing_nothing(self, tmp_path):
        (tmp_path / "train.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="train.bin holds no records"):
            load_cifar100(tmp_path, "train")
        assert [p.name for p in tmp_path.iterdir()] == ["train.bin"]

    def test_unknown_split_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="split"):
            load_cifar100(tmp_path, "validation")

    def test_loading_writes_nothing_into_the_data_directory(self, tmp_path, monkeypatch):
        write_synthetic_cifar100(tmp_path, 2, 1, num_classes=5, seed=1)
        listing = sorted(p.name for p in tmp_path.iterdir())

        def read_only(path, mode="w"):
            raise PermissionError(f"[Errno 30] Read-only file system: '{path}'")

        monkeypatch.setattr(data, "atomic_write", read_only)
        for split in ("test", "train"):
            load_cifar100(tmp_path, split)
        assert sorted(p.name for p in tmp_path.iterdir()) == listing

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
        mean = whole(ds).mean(axis=(0, 2, 3), dtype=np.float64)
        std = whole(ds).std(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(mean, 0.0, atol=1e-3)
        np.testing.assert_allclose(std, 1.0, atol=1e-3)

    def test_train_split_reads_train_bin_once(self, tmp_path, monkeypatch):
        write_synthetic_cifar100(tmp_path, 2, 1, num_classes=5, seed=1)
        read, computed = [], []
        read_records, pixel_stats = data._read_records, data._pixel_stats

        def recording_read(path):
            read.append(Path(path).name)
            return read_records(path)

        def recording_stats(pixels):
            computed.append(len(pixels))
            return pixel_stats(pixels)

        monkeypatch.setattr(data, "_read_records", recording_read)
        monkeypatch.setattr(data, "_pixel_stats", recording_stats)
        load_cifar100(tmp_path, "train")
        assert read == ["train.bin"] and computed == [10]
        load_cifar100(tmp_path, "test")  # re-reads train.bin to key its statistics, kept from the train load
        assert read == ["train.bin", "test.bin", "train.bin"] and computed == [10]

    def test_replaced_train_records_get_fresh_statistics(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.arange(4, dtype=np.uint8)

        def write_train(low, high):
            pixels = rng.integers(low, high, size=(4, 3, 32, 32), dtype=np.uint8)
            write_cifar_records(tmp_path / "train.bin", labels, labels, pixels)
            return pixels

        first_pixels = write_train(0, 100)
        first = load_cifar100(tmp_path, "train")
        pixels = write_train(100, 256)  # same size, different bytes
        ds = load_cifar100(tmp_path, "train")
        x = pixels.astype(np.float32) / np.float32(255.0)
        assert ds.mean.tobytes() == x.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32).tobytes()
        assert ds.std.tobytes() == x.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32).tobytes()
        np.testing.assert_allclose(whole(ds).mean(axis=(0, 2, 3), dtype=np.float64), 0.0, atol=1e-3)
        write_cifar_records(tmp_path / "train.bin", labels, labels, first_pixels)  # the first bytes again
        again = load_cifar100(tmp_path, "train")
        assert again.mean is first.mean and again.std is first.std
        assert not (first.mean.flags.writeable or first.std.flags.writeable)
        assert [p.name for p in tmp_path.iterdir()] == ["train.bin"]

    def test_constant_channel_train_split_refused_naming_file_and_channel(self, tmp_path):
        # 3 samples hold 3,072 values per channel, no power of two: the
        # constant channel's mean must still come back as exactly its value
        for n in (4, 3):
            d = tmp_path / str(n)
            d.mkdir()
            labels = np.arange(n, dtype=np.uint8)
            pixels = np.random.default_rng(0).integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
            pixels[:, 1] = 77
            for split in ("train", "test"):
                write_cifar_records(d / f"{split}.bin", labels, labels, pixels)
            for split in ("train", "test"):
                with pytest.raises(ValueError, match=r"train\.bin: channel 1 has std 0\.0"):
                    load_cifar100(d, split)
            assert sorted(p.name for p in d.iterdir()) == ["test.bin", "train.bin"]

    def test_test_split_uses_train_statistics(self, tmp_path):
        write_synthetic_cifar100(tmp_path, 4, 4, num_classes=10, seed=2)
        test_norm = load_cifar100(tmp_path, "test")
        train_raw, _ = unit_pixels(tmp_path, "train")
        mean = train_raw.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        std = train_raw.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        assert test_norm.mean.tobytes() == mean.tobytes() and test_norm.std.tobytes() == std.tobytes()
        test_raw, _ = unit_pixels(tmp_path, "test")
        want = (test_raw - mean.reshape(1, 3, 1, 1)) / std.reshape(1, 3, 1, 1)
        np.testing.assert_allclose(whole(test_norm), want, rtol=1e-6)


def pixel_dataset(pixels, labels):
    """A Dataset of uint8 ``pixels`` whose images are plain x/255."""
    return Dataset(pixels=pixels, fine_labels=labels, mean=np.zeros(3, np.float32), std=np.ones(3, np.float32))


class TestSubset:
    def make_ds(self, per_class=10, classes=6, seed=0):
        rng = np.random.default_rng(seed)
        n = per_class * classes
        return pixel_dataset(
            rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8),
            np.repeat(np.arange(classes), per_class).astype(np.int64),
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
        assert sorted(map(tuple, sub.pixels.reshape(len(sub), -1)[:, :2])) == sorted(
            map(tuple, ds.pixels.reshape(len(ds), -1)[:, :2])
        )

    def test_same_seed_same_indices(self):
        ds = self.make_ds()
        a = subset(ds, per_class=3, seed=42)
        b = subset(ds, per_class=3, seed=42)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        c = subset(ds, per_class=3, seed=43)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_insufficient_class_names_the_class(self):
        ds = self.make_ds(per_class=3, classes=4)
        with pytest.raises(ValueError, match="class 0 has only 3"):
            subset(ds, per_class=4, seed=0)


class TestBatches:
    def make_ds(self, n):
        """Sample i's label is i, and its first two pixel bytes are i's
        low and high byte."""
        index = np.arange(n)
        pixels = np.zeros((n, 3, 32, 32), dtype=np.uint8)
        pixels[:, 0, 0, 0] = index % 256
        pixels[:, 0, 0, 1] = index // 256
        return pixel_dataset(pixels, index.astype(np.int64))

    def test_batch_sizes_with_short_tail(self):
        ds = self.make_ds(300)
        drawn = list(batches(ds, batch_size=128, seed=0, epoch=0))
        assert [len(lab) for _, lab in drawn] == [128, 128, 44]
        for images, labels in drawn:  # each image is the one its label names
            low, high = np.rint(images[:, 0, 0, :2] * 255).astype(np.int64).T
            np.testing.assert_array_equal(low + 256 * high, labels)

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


def float32_stats(mean, std):
    """The bytes of float64 channel statistics cast to float32, as a
    Dataset holds them."""
    return [a.astype(np.float32).tobytes() for a in (mean, std)]


def one_shot_float32_stats(pixels):
    """float32_stats of numpy's one-shot float64 x.mean and x.std of the
    whole float32 x/255 decode of ``pixels``."""
    x = pixels.astype(np.float32) / np.float32(255.0)
    return float32_stats(x.mean(axis=(0, 2, 3), dtype=np.float64), x.std(axis=(0, 2, 3), dtype=np.float64))


@pytest.mark.parametrize("n", [1, data._STATS_CHUNK - 1, data._STATS_CHUNK, data._STATS_CHUNK + 1, 600])
def test_channel_statistics_have_numpys_float32_bits_at_chunk_edges(n):
    # in float32, which standardizes: the float64 statistics add in
    # another order than numpy's, so their last bits may differ
    pixels = np.random.default_rng(n).integers(0, 256, (n, 3, 32, 32), dtype=np.uint8)
    assert float32_stats(*data._pixel_stats(pixels)) == one_shot_float32_stats(pixels)


def test_channel_statistics_have_numpys_float32_bits_on_random_splits():
    rng = np.random.default_rng(26)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        low = int(rng.integers(0, 256))
        high = int(rng.integers(low, 256)) + 1  # high == low + 1 gives a constant split, std 0
        pixels = rng.integers(low, high, (n, 3, 32, 32), dtype=np.uint8)
        assert float32_stats(*data._pixel_stats(pixels)) == one_shot_float32_stats(pixels), (n, low, high)


def test_channel_statistics_depend_on_neither_sample_order_nor_chunk_size(monkeypatch):
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, (300, 3, 32, 32), dtype=np.uint8)

    def stats_bytes(p):
        return [a.tobytes() for a in data._pixel_stats(p)]

    want = stats_bytes(pixels)
    for order in (rng.permutation(300), np.arange(300)[::-1]):
        assert stats_bytes(pixels[order]) == want
    for chunk in (1, 7, 256):
        monkeypatch.setattr(data, "_STATS_CHUNK", chunk)
        assert stats_bytes(pixels) == want


def write_random_split(path, n, seed):
    """``n`` records of uniform random pixels and labels; the file's bytes."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 100, n, dtype=np.uint8)
    write_cifar_records(path, labels // 5, labels, rng.integers(0, 256, (n, 3, 32, 32), dtype=np.uint8))
    return path.read_bytes()


@pytest.mark.parametrize("n", [1, data._STATS_CHUNK - 1, data._STATS_CHUNK + 1, 2 * data._STATS_CHUNK + 1])
def test_train_statistics_are_the_one_shot_statistics_of_the_decoded_split(tmp_path, n):
    # a split's mean and std are the float32 of the one-shot x.mean and
    # x.std of the whole x/255 train split, both when they are computed
    # for a train.bin that replaced another of the same size and when
    # they are kept from an earlier load of the same bytes
    train = tmp_path / "train.bin"
    write_random_split(train, n, seed=n + 1)
    load_cifar100(tmp_path, "train")
    raw = write_random_split(train, n, seed=n)
    want = [a.tobytes() for a in standardized_split_reference(raw, raw)[0]]
    for _ in range(2):
        ds = load_cifar100(tmp_path, "train")
        assert [ds.mean.tobytes(), ds.std.tobytes()] == want


@pytest.mark.parametrize("split", ["train", "test"])
def test_drawn_images_have_the_whole_split_standardizations_bits(tmp_path, split):
    # 70 train and 30 test images: batches of 32 end on a short tail
    write_synthetic_cifar100(tmp_path, 7, 3, num_classes=10, seed=5)
    raw = {name: (tmp_path / f"{name}.bin").read_bytes() for name in ("train", "test")}
    _, want, labels = standardized_split_reference(raw["train"], raw[split])
    ds = load_cifar100(tmp_path, split)
    n = len(ds)
    assert ds.images(slice(3, 40)).tobytes() == want[3:40].tobytes()
    shuffled = np.random.default_rng(1).permutation(n)
    assert ds.images(shuffled).tobytes() == want[shuffled].tobytes()
    drawn = list(batches(ds, batch_size=32, seed=2, epoch=1))
    assert len(drawn[-1][1]) == n % 32
    order = np.random.default_rng([2, 1]).permutation(n)
    assert np.concatenate([x for x, _ in drawn]).tobytes() == want[order].tobytes()
    assert np.concatenate([lab for _, lab in drawn]).tobytes() == labels[order].tobytes()
    assert np.concatenate([x for x, _ in eval_batches(ds, 32)]).tobytes() == want.tobytes()


def test_loading_holds_the_records_and_one_statistics_chunk_at_most(tmp_path, monkeypatch):
    # no float copy of a split: the peak is the records as read (the test
    # split's and train.bin's, which it reads for its statistics) plus one
    # chunk's channel bytes, copied and cast to intp for np.bincount (the
    # statistics are computed here, as none are kept yet), and the byte
    # counts and numpy's buffers, under 128 KiB
    n = {"train": 4000, "test": 1000}
    for split, count in n.items():
        write_random_split(tmp_path / f"{split}.bin", count, seed=count)
    for split, records in (("test", n["train"] + n["test"]), ("train", n["train"])):
        monkeypatch.setattr(data, "_TRAIN_STATS", {})
        tracemalloc.start()
        try:
            ds = load_cifar100(tmp_path, split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n[split] and len(data._TRAIN_STATS) == 1
        assert peak < records * RECORD_BYTES + data._STATS_CHUNK * 32 * 32 * (np.dtype(np.intp).itemsize + 1) + 2**17


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
        (mean, std), images, labels = standardized_split_reference(files[0], raw)
        ds = loaded[split]
        assert ds.mean.tobytes() == mean.tobytes() and ds.std.tobytes() == std.tobytes()
        got = whole(ds)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == images.shape and got.tobytes() == images.tobytes()
        assert ds.fine_labels.dtype == np.int64 and np.array_equal(ds.fine_labels, labels)
