"""Command-line entry point.

Subcommands:

* ``train``          run the training harness, write run CSVs/JSON
* ``curves``         dump activation shape curves (baseline + parameter sweeps)
* ``gradcheck``      finite-difference check of every differentiable op
* ``params``         exact parameter-count table, optionally asserted
* ``drift``          forward mean-drift experiment through a deep stack
* ``center-oracle``  offline centering-anchor search on a sample

Every output file is UTF-8 CSV or JSON with documented headers. Given a
fixed seed, reruns produce byte-identical files. ``train`` exits 0 even
when the run diverges: divergence is a measured result, not an error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from actlab.activations import (
    C_INIT,
    ActivationKind,
    ZCSwishParams,
    activation_curves,
    apply_activation,
    find_centering_anchor,
    zc_swish_eval,
)
from actlab.config import PRESETS, ExperimentConfig
from actlab.data import DATA_DIR_ENV, atomic_write, default_data_dir, load_cifar100, subset
from actlab.plainnet import DEPTH_LAYOUTS, build, count_params
from actlab.probes import drift_experiment
from actlab.tensor import (
    Tensor,
    add,
    conv2d,
    dropout,
    gradcheck,
    linear,
    maxpool2,
    mul,
    reshape,
    scale,
    softmax_cross_entropy,
    tsum,
)
from actlab.trainer import AGGREGATE_HEADER, aggregate_runs, format_aggregate_row, train

__all__ = ["main", "GRADCHECK_CASES"]


def _write_csv(path, header: list[str], rows):
    """Floats as ``repr`` (shortest round-trip form), everything else as ``str``."""
    with atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(path, obj):
    with atomic_write(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _parse_list(flag: str, text: str, convert, what: str, sep: str = ",") -> list:
    """Split a list-valued flag and convert each item; a bad item fails
    with a message that names the flag and the item."""
    out = []
    for item in text.split(sep):
        try:
            out.append(convert(item))
        except ValueError:
            raise ValueError(f"{flag}: {item!r} is not {what} (in {text!r})") from None
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _merge_config(args) -> ExperimentConfig:
    """Precedence: defaults < preset < config file < explicit flags."""
    merged: dict = {}
    if args.preset:
        merged.update(PRESETS[args.preset]())
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except ValueError as exc:  # malformed JSON, or not UTF-8
            raise ValueError(f"--config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object, got {type(loaded).__name__}")
        merged.update(loaded)
    overrides = {
        "depth": args.depth,
        "width_divisor": args.width_divisor,
        "activation": args.activation,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "train_per_class": args.per_class,
        "test_per_class": args.per_class,
        "data_dir": args.data_dir,
        "out_dir": args.out,
        "seeds": None if args.seeds is None else _parse_list("--seeds", args.seeds, int, "an integer"),
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(merged)


def cmd_train(args) -> int:
    config = _merge_config(args)
    data_dir = default_data_dir(config.data_dir)
    config.data_dir = str(data_dir)
    train_ds = load_cifar100(data_dir, "train")
    test_ds = load_cifar100(data_dir, "test")
    for split, ds in (("train", train_ds), ("test", test_ds)):
        top = int(ds.fine_labels.max(initial=-1))
        if top >= config.num_classes:
            raise ValueError(f"the {split} split has label {top}, but num_classes is {config.num_classes}")
    if config.train_per_class is not None:
        train_ds = subset(train_ds, config.train_per_class, seed=config.seeds[0])
    if config.test_per_class is not None:
        test_ds = subset(test_ds, config.test_per_class, seed=config.seeds[0])

    out_dir = Path(config.out_dir) if config.out_dir else Path("runs") / (
        f"{config.activation}_d{config.depth}_w{config.width_divisor}_e{config.epochs}"
    )
    config.out_dir = str(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", config.to_dict())

    records = []
    for seed in config.seeds:
        record = train(config, train_ds, test_ds, seed=seed)
        seed_dir = out_dir / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        for fname, (header, rows) in record.tables().items():
            _write_csv(seed_dir / fname, header, rows)
        _write_json(seed_dir / "summary.json", record.summary_dict())
        records.append(record)

    agg = aggregate_runs(records)
    summary = {
        "config": config.to_dict(),
        "aggregate": agg,
        "per_seed": [r.summary_dict() for r in records],
    }
    _write_json(out_dir / "summary.json", summary)
    print(AGGREGATE_HEADER)
    print(format_aggregate_row(config.activation, agg))
    print(f"run directory: {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


CURVE_GRID = (-6.0, 6.0, 241)  # x from -6 to 6 in steps of 0.05, so x = 0.0 is row 120
SWEEPS = {  # parameter -> (values, zc_swish with that parameter set to v)
    "c": ((-1.0, -0.5, 0.0, 0.5, 1.0), lambda x, v: zc_swish_eval(x, c=v, beta=1.0, g=1.0)),
    "g": ((0.5, 1.0, 2.0), lambda x, v: zc_swish_eval(x, c=C_INIT, beta=1.0, g=v)),
    "beta": ((0.5, 1.0, 2.0, 4.0), lambda x, v: zc_swish_eval(x, c=C_INIT, beta=v, g=1.0)),
}


def cmd_curves(args) -> int:
    xs = np.linspace(*CURVE_GRID)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cols = activation_curves(xs)
    _write_csv(out_dir / "baseline.csv", list(cols), zip(*(cols[k].tolist() for k in cols)))

    for pname, (values, fn) in SWEEPS.items():
        header = ["x"] + [f"{pname}={v:g}" for v in values]
        columns = [xs.tolist()] + [fn(xs, v).tolist() for v in values]
        _write_csv(out_dir / f"{pname}_sweep.csv", header, zip(*columns))
    print(f"wrote baseline.csv, c_sweep.csv, g_sweep.csv, beta_sweep.csv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _case_conv2d(rng, dtype):
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), dtype=dtype)
    w = Tensor(rng.standard_normal((2, 3, 3, 3)), dtype=dtype)
    b = Tensor(rng.standard_normal(2), dtype=dtype)
    return lambda a, ww, bb: tsum(mul(conv2d(a, ww, bb), conv2d(a, ww, bb))), [x, w, b]


def _case_maxpool2(rng, dtype):
    # well-separated values keep the argmax stable under probing
    base = rng.permutation(64).reshape(1, 4, 4, 4) * 0.5
    x = Tensor(base, dtype=dtype)
    return lambda a: tsum(mul(maxpool2(a), maxpool2(a))), [x]


def _case_linear(rng, dtype):
    x = Tensor(rng.standard_normal((3, 5)), dtype=dtype)
    w = Tensor(rng.standard_normal((4, 5)), dtype=dtype)
    b = Tensor(rng.standard_normal(4), dtype=dtype)
    return lambda a, ww, bb: tsum(mul(linear(a, ww, bb), linear(a, ww, bb))), [x, w, b]


def _case_dropout(rng, dtype):
    x = Tensor(rng.standard_normal((6, 6)) + 3.0, dtype=dtype)
    return lambda a: tsum(dropout(a, 0.4, training=True, rng=np.random.default_rng(99))), [x]


def _case_softmax_ce(rng, dtype):
    z = Tensor(rng.standard_normal((4, 7)), dtype=dtype)
    labels = np.array([0, 3, 6, 2])
    return lambda a: softmax_cross_entropy(a, labels), [z]


def _case_elementwise(rng, dtype):
    x = Tensor(rng.standard_normal((3, 3)), dtype=dtype)
    y = Tensor(rng.standard_normal((3, 3)), dtype=dtype)

    def fn(a, b):
        left = reshape(add(a, b), (9,))
        right = mul(scale(reshape(mul(a, a), (9,)), 0.5), reshape(b, (9,)))
        return tsum(mul(left, right))

    return fn, [x, y]


def _case_relu(rng, dtype):
    vals = (rng.uniform(0.3, 2.0, size=20) * rng.choice([-1.0, 1.0], size=20))
    x = Tensor(vals, dtype=dtype)
    relu = ActivationKind.RELU
    return lambda a: tsum(mul(apply_activation(a, relu), apply_activation(a, relu))), [x]


def _case_smooth(kind: ActivationKind):
    """The case of a smooth stateless activation: its sum over 24 values."""

    def case(rng, dtype):
        x = Tensor(rng.standard_normal(24) * 2, dtype=dtype)
        return lambda a: tsum(apply_activation(a, kind)), [x]

    return case


def _case_zc_swish(rng, dtype):
    x = Tensor(rng.standard_normal((5, 2, 2, 2)) * 2, dtype=dtype)
    c = Tensor(rng.uniform(-1, 1, 2), dtype=dtype)
    braw = Tensor(rng.uniform(-2, 2, 2), dtype=dtype)
    g = Tensor(rng.uniform(0.5, 2, 2), dtype=dtype)
    zc = ActivationKind.ZCSWISH
    return lambda xx, cc, bb, gg: tsum(apply_activation(xx, zc, ZCSwishParams(cc, bb, gg))), [x, c, braw, g]


GRADCHECK_CASES = [
    ("conv2d", _case_conv2d),
    ("maxpool2", _case_maxpool2),
    ("linear", _case_linear),
    ("dropout", _case_dropout),
    ("softmax_cross_entropy", _case_softmax_ce),
    ("elementwise", _case_elementwise),
    ("relu", _case_relu),
    ("gelu", _case_smooth(ActivationKind.GELU)),
    ("swish", _case_smooth(ActivationKind.SWISH)),
    ("zc_swish", _case_zc_swish),
]


def run_gradcheck_suite(dtype=np.float64) -> dict[str, float]:
    """Max relative FD error for every differentiable op, one case each
    drawn from seed 0, at step 1e-5 in float64 and 1e-2 in float32."""
    h = 1e-5 if dtype == np.float64 else 1e-2
    errors = {}
    for name, case in GRADCHECK_CASES:
        fn, inputs = case(np.random.default_rng(0), dtype)
        errors[name] = gradcheck(fn, inputs, h=h)
    return errors


def cmd_gradcheck(args) -> int:
    dtype = np.float64 if args.dtype == 64 else np.float32
    tol = 1e-5 if args.dtype == 64 else 1e-2
    errors = run_gradcheck_suite(dtype=dtype)
    failed = []
    print(f"{'op':<24}{'max rel err':>14}   result (tol {tol:g}, {args.dtype}-bit)")
    for name, err in errors.items():
        ok = err < tol
        if not ok:
            failed.append(name)
        print(f"{name:<24}{err:>14.3e}   {'PASS' if ok else 'FAIL'}")
    if failed:
        print(f"FAILED ops: {', '.join(failed)}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def cmd_params(args) -> int:
    expected = None
    if args.expect:
        expected = _parse_list("--expect", args.expect, lambda p: int(p.replace("_", "").replace(",", "")), "an integer", ":")
        if len(expected) > 2:
            raise ValueError(f"--expect takes TOTAL[:ACTIVATION], got {len(expected)} fields in {args.expect!r}")
    cfg = ExperimentConfig(depth=args.depth, width_divisor=1, activation=args.activation)
    model = build(cfg, np.random.default_rng(0))
    report = count_params(model)
    print(report.format_table())
    if expected:
        expect_total = expected[0]
        expect_act = expected[1] if len(expected) > 1 else None
        if report.total != expect_total:
            print(f"MISMATCH: total {report.total:,} != expected {expect_total:,}")
            return 1
        if expect_act is not None and report.activation_params != expect_act:
            print(f"MISMATCH: activation params {report.activation_params:,} != expected {expect_act:,}")
            return 1
        print("counts match expectation")
    return 0


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def cmd_drift(args) -> int:
    report = drift_experiment(
        activation=args.activation,
        depth=args.depth,
        width=args.width,
        seed=args.seed,
        samples=args.samples,
        center=args.center,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out,
        ["layer", "mean", "std", "activation", "seed"],
        [(s.index, s.mean, s.std, report.activation, report.seed) for s in report.sites],
    )
    print(f"activation={report.activation} depth={args.depth} center={report.center}")
    print(f"final |mean| = {report.final_abs_mean!r}")
    print(f"|mean| non-decreasing over layers: {report.abs_mean_nondecreasing}")
    print(f"spearman(|mean|, depth) = {report.spearman_abs_mean_vs_depth!r}")
    if report.anchors:
        print("anchors: " + " ".join(f"{a:.4g}" for a in report.anchors))
        print(f"anchors converged: {report.anchors_converged}/{len(report.anchors)}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# center-oracle
# ---------------------------------------------------------------------------


def cmd_center_oracle(args) -> int:
    if args.input:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's "input contained no data"
            try:
                sample = np.loadtxt(args.input, dtype=np.float64).ravel()
            except ValueError as exc:
                raise ValueError(f"--input {args.input}: {exc}") from None
        if sample.size == 0:
            raise ValueError(f"--input {args.input} holds no sample values")
        finite = np.isfinite(sample)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"--input {args.input}: sample value {i} is {sample[i]}, not finite")
    else:
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        sample = np.random.default_rng(args.seed).standard_normal(args.samples)
    res = find_centering_anchor(sample, beta=args.beta, tol=args.tol)
    mean_at_zero = float(np.mean(zc_swish_eval(sample, c=0.0, beta=args.beta, g=1.0)))
    print(f"converged={res.converged}")
    print(f"c_star={res.c!r}")
    print(f"mean_at_c_star={res.mean_at_c!r}")
    print(f"mean_at_c_zero={mean_at_zero!r}")
    print(f"iterations={res.iterations}")
    print(f"evaluations={res.evaluations}")
    if res.note:
        print(f"note={res.note}")
    return 0 if res.converged else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="actlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a PlainNet and record everything")
    t.add_argument("--preset", choices=sorted(PRESETS), help="named recipe applied before file/flag overrides")
    t.add_argument("--config", help="JSON config file (flags still override)")
    t.add_argument("--depth", type=int, choices=sorted(DEPTH_LAYOUTS))
    t.add_argument("--width-divisor", type=int, dest="width_divisor")
    t.add_argument("--activation", choices=[k.value for k in ActivationKind])
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--seeds", help="comma-separated seed list, e.g. 42,0,12345")
    t.add_argument("--per-class", type=int, dest="per_class", help="balanced subset size per class (train and test)")
    t.add_argument("--data-dir", dest="data_dir", help=f"CIFAR-100 binary directory (default: ${DATA_DIR_ENV})")
    t.add_argument("--out", help="output directory (default derives from the config)")
    t.set_defaults(fn=cmd_train)

    c = sub.add_parser("curves", help="activation shape curves as CSV")
    c.add_argument("--out", default="curves")
    c.set_defaults(fn=cmd_curves)

    g = sub.add_parser("gradcheck", help="finite-difference check of every op")
    g.add_argument("--dtype", type=int, choices=(32, 64), default=64)
    g.set_defaults(fn=cmd_gradcheck)

    pa = sub.add_parser("params", help="exact parameter-count table at full width")
    pa.add_argument("--depth", type=int, choices=sorted(DEPTH_LAYOUTS), default=16)
    pa.add_argument("--activation", choices=[k.value for k in ActivationKind], default="relu")
    pa.add_argument("--expect", help="TOTAL[:ACTIVATION] integers to assert, e.g. 15041316:12672")
    pa.set_defaults(fn=cmd_params)

    d = sub.add_parser("drift", help="forward mean-drift through a deep stack")
    d.add_argument("--activation", choices=[k.value for k in ActivationKind], default="swish")
    d.add_argument("--depth", type=int, default=16)
    d.add_argument("--width", type=int, default=256)
    d.add_argument("--seed", type=int, default=42)
    d.add_argument("--samples", type=int, default=4096)
    d.add_argument("--center", choices=("default", "oracle"), default="default")
    d.add_argument("--out", default="drift.csv")
    d.set_defaults(fn=cmd_drift)

    o = sub.add_parser("center-oracle", help="search the anchor that zeroes mean activation")
    o.add_argument("--beta", type=float, default=1.0)
    o.add_argument("--tol", type=float, default=1e-6)
    o.add_argument("--samples", type=int, default=10_000)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--input", help="file of sample values, one per line (overrides --samples)")
    o.set_defaults(fn=cmd_center_oracle)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # every --seed flag seeds a numpy generator
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
