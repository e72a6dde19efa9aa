#!/usr/bin/env python3
"""Generate a synthetic CIFAR-100-format dataset for desk-scale runs.

The files use the exact canonical binary record layout, so every loader,
normalization and batching path is exercised identically to real data.
"""

import argparse

from actlab.data import write_synthetic_cifar100


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", required=True, help="target directory for train.bin / test.bin")
    p.add_argument("--train-per-class", type=int, default=40)
    p.add_argument("--test-per-class", type=int, default=20)
    p.add_argument("--classes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    write_synthetic_cifar100(
        args.out,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        num_classes=args.classes,
        seed=args.seed,
    )
    n_train = args.train_per_class * args.classes
    n_test = args.test_per_class * args.classes
    print(f"wrote {args.out}/train.bin ({n_train} records) and test.bin ({n_test} records)")


if __name__ == "__main__":
    main()
