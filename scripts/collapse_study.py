#!/usr/bin/env python3
"""Train the multi-centroid arm on the fixed synthetic benchmark across
seeds, with and without the quality-classification term, and print test EER
plus the final inter-centroid cosine for each run.

Usage: python3 scripts/collapse_study.py [--seeds 1 2 3 4 5]
"""

import argparse

from mcoc.data import benchmark_spec, generate_synthetic
from mcoc.scoring import score_dataset
from mcoc.training import benchmark_train_config, train


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args()

    print(f"{'seed':>4} {'lam':>5} {'eer_ensemble':>12} {'eer_max':>8} "
          f"{'centroid_cos':>12}")
    for seed in args.seeds:
        train_recs = generate_synthetic(benchmark_spec(seed, train=True))
        test_recs = generate_synthetic(benchmark_spec(seed, train=False))
        for lam in (0.1, 0.0):
            report, ckpt = train(train_recs, benchmark_train_config(seed, lam))
            ens = score_dataset(test_recs, ckpt.encoder, ckpt.bank, "ensemble")
            mx = score_dataset(test_recs, ckpt.encoder, ckpt.bank, "max")
            cos = report.epochs[-1].centroid_cosine
            print(f"{seed:>4} {lam:>5.2f} {ens.eer:>12.4f} {mx.eer:>8.4f} "
                  f"{cos:>12.4f}")


if __name__ == "__main__":
    main()
