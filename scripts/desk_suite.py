#!/usr/bin/env python3
"""Run the desk preset for each activation and print one comparison table.

Trains on the CIFAR-100 binaries in --data-dir, else in ACTLAB_DATA_DIR; a
directory named either way must hold them, or the first run fails. With
neither, it generates synthetic stand-in data under the output root.
When relu and zcswish both ran, it also prints the directional check
(zcswish >= relu in best train accuracy), which is informational, not a
pass/fail gate; with both runs at or below chance it reads "undecided".
For the depth-16 stretch: --depth 16 --epochs 10 --activations relu,zcswish.
"""

import argparse
import json
import time
from pathlib import Path

from actlab.cli import main as actlab_main
from actlab.data import DATA_DIR_ENV, SPLIT_FILES, default_data_dir, write_synthetic_cifar100
from actlab.trainer import AGGREGATE_HEADER, format_aggregate_row


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data-dir", help=f"CIFAR-100 binary directory (default: ${DATA_DIR_ENV}, else synthetic under --out)")
    p.add_argument("--out", default="runs/desk_suite")
    p.add_argument("--epochs", type=int, default=None, help="override the preset's epoch count")
    p.add_argument("--depth", help="override the preset's depth (passed to actlab train)")
    p.add_argument("--activations", default="relu,gelu,swish,zcswish")
    args = p.parse_args()

    out_root = Path(args.out)
    try:
        data_dir = default_data_dir(args.data_dir)
    except ValueError:  # neither --data-dir nor the env var: synthetic data under --out
        data_dir = out_root / "data"
        if not (data_dir / SPLIT_FILES["train"]).exists():
            print(f"no dataset at {data_dir}, generating synthetic stand-in data")
            write_synthetic_cifar100(data_dir, train_per_class=40, test_per_class=20, num_classes=100, seed=0)

    rows = []
    for act in args.activations.split(","):
        run_dir = out_root / act
        t0 = time.perf_counter()
        argv = ["train", "--preset", "desk", "--activation", act, "--data-dir", str(data_dir), "--out", str(run_dir)]
        if args.epochs is not None:
            argv += ["--epochs", str(args.epochs)]
        if args.depth is not None:
            argv += ["--depth", args.depth]
        rc = actlab_main(argv)
        if rc != 0:
            raise SystemExit(f"run failed for {act}")
        run = json.loads((run_dir / "summary.json").read_text())
        rows.append((act, run, time.perf_counter() - t0))

    print()
    print(AGGREGATE_HEADER)
    for act, run, dt in rows:
        print(format_aggregate_row(act, run["aggregate"]))
    print()
    print(f"{'activation':<12}{'loss ratio':>12}{'best train %':>14}{'best test %':>13}{'nonfinite':>11}{'secs':>7}")
    for act, run, dt in rows:
        s = run["per_seed"][0]
        ratio = s["final_train_loss"] / s["initial_train_loss"]
        print(
            f"{act:<12}{ratio:>12.4f}{s['best_train_acc'] * 100:>14.2f}{s['best_test_acc'] * 100:>13.2f}"
            f"{s['nonfinite_steps']:>11}{dt:>7.0f}"
        )

    runs = {act: run for act, run, _ in rows}
    if "relu" in runs and "zcswish" in runs:
        best = {act: runs[act]["per_seed"][0]["best_train_acc"] for act in ("relu", "zcswish")}
        chance = 1.0 / runs["zcswish"]["config"]["num_classes"]
        if max(best.values()) <= chance:
            verdict = "undecided"
        else:
            verdict = "holds" if best["zcswish"] >= best["relu"] else "does not hold"
        depth = runs["zcswish"]["config"]["depth"]
        print()
        print(
            f"directional check (zcswish >= relu at depth {depth}, best train acc "
            f"{best['zcswish']:.1%} vs {best['relu']:.1%}): {verdict}"
        )


if __name__ == "__main__":
    main()
