#!/usr/bin/env python3
"""Run a fixed small session through the CLI and print the sha256 of every
output, one `<sha256>  <path>` line per file, sorted by path.

The session: `gen` of the benchmark_spec(3) train and test sets and of the
train set under a 3-level quality policy (thresholds [2.0, 3.5]), `ablate`
with benchmark_train_config(3), `train` of the `single_centroid` loss, of
the default loss under `sgd-momentum` (the two arms `ablate` leaves out),
of the `wce_quality` loss through a tanh encoder (a trained head bias and
the tanh backward) and of the default loss at wide shapes (hidden
[256, 256], batch 256, 3 epochs: the 480 training rows make a full and a
partial batch through the large gradient products), `score` of the test
set under `max` and `ensemble` (multi_centroid checkpoint) and `head` (wce
checkpoint), `eval` of the ensemble scores, and `export` with the
multi_centroid checkpoint; then
`score` (ensemble), `eval` and `export` of `inputs/quoted.jsonl`, two bona
fide and two spoof test records whose ids hold `,`, `"`, `\n` and `\r`,
so that the CSV quoting rule is in the digest; then `score` (ensemble)
and `export` of `inputs/odd.jsonl`, the same four records as a hand-made
file may hold them (CRLF line ends, blank lines, non-ASCII ids, integer
features and an integer mos), which load_jsonl reads line by line.
`manifest.json` and `report.json` embed paths under DIR, so they are
hashed with DIR (made absolute) replaced by `<out>`. Two commits that
print the same list wrote byte-identical checkpoints, metrics, reports,
manifests, summaries, scores, ablation table, histogram, embeddings and
datasets.

Usage: python3 scripts/output_digest.py --out DIR   (DIR must be empty or new)
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from mcoc.cli import main as cli
from mcoc.data import (BONAFIDE, SPOOF, benchmark_spec, generate_synthetic,
                       save_jsonl)
from mcoc.training import benchmark_train_config

SEED = 3
# ids that a CSV writer must quote
QUOTED_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rid"]
# ids that are not ASCII
ODD_IDS = ["café", "naïve", "ünï", "日本"]
# files that embed paths under the output directory
WITH_PATHS = ("manifest.json", "report.json")


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _steps(out):
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs)
    train_spec = _dump(benchmark_spec(SEED, train=True).to_dict(),
                       os.path.join(inputs, "train_spec.json"))
    test_spec = _dump(benchmark_spec(SEED, train=False).to_dict(),
                      os.path.join(inputs, "test_spec.json"))
    policy_spec = _dump({**benchmark_spec(SEED, train=True).to_dict(),
                         "policy": {"thresholds": [2.0, 3.5]}},
                        os.path.join(inputs, "policy_spec.json"))
    config = _dump(benchmark_train_config(SEED).to_dict(),
                   os.path.join(inputs, "config.json"))
    records = generate_synthetic(benchmark_spec(SEED, train=False))
    picked = records.take([*np.flatnonzero(records.y == BONAFIDE)[:2],
                           *np.flatnonzero(records.y == SPOOF)[:2]])
    quoted = os.path.join(inputs, "quoted.jsonl")
    save_jsonl(dataclasses.replace(picked, ids=QUOTED_IDS), quoted)
    odd = os.path.join(inputs, "odd.jsonl")
    _write_odd(picked, odd)
    train = os.path.join(out, "train", "data.jsonl")
    test = os.path.join(out, "test", "data.jsonl")
    ablate = os.path.join(out, "ablate")
    mc = os.path.join(ablate, "multi_centroid", "checkpoint.json")
    wce = os.path.join(ablate, "wce", "checkpoint.json")
    return [
        ["gen", "--spec", train_spec, "--out", os.path.dirname(train)],
        ["gen", "--spec", test_spec, "--out", os.path.dirname(test)],
        ["gen", "--spec", policy_spec, "--out", os.path.join(out, "gen_policy")],
        ["ablate", "--config", config, "--data", train, "--test", test,
         "--out", ablate],
        ["train", "--config", config, "--data", train,
         "--set", "loss=single_centroid",
         "--out", os.path.join(out, "train_single_centroid")],
        ["train", "--config", config, "--data", train,
         "--set", 'optimizer.kind="sgd-momentum"',
         "--out", os.path.join(out, "train_sgd_momentum")],
        ["train", "--config", config, "--data", train,
         "--set", "loss=wce_quality", "--set", 'encoder.activation="tanh"',
         "--out", os.path.join(out, "train_wce_quality_tanh")],
        ["train", "--config", config, "--data", train,
         "--set", "encoder.hidden=[256,256]", "--set", "batch_size=256",
         "--set", "epochs=3", "--out", os.path.join(out, "train_wide")],
        ["score", "--checkpoint", mc, "--data", test, "--strategy", "max",
         "--out", os.path.join(out, "score_max")],
        ["score", "--checkpoint", mc, "--data", test, "--strategy", "ensemble",
         "--out", os.path.join(out, "score_ensemble")],
        ["score", "--checkpoint", wce, "--data", test, "--strategy", "head",
         "--out", os.path.join(out, "score_head")],
        ["eval", "--scores", os.path.join(out, "score_ensemble", "scores.csv"),
         "--out", os.path.join(out, "eval")],
        ["export", "--checkpoint", mc, "--data", test,
         "--out", os.path.join(out, "export")],
        ["score", "--checkpoint", mc, "--data", quoted, "--strategy", "ensemble",
         "--out", os.path.join(out, "score_quoted")],
        ["eval", "--scores", os.path.join(out, "score_quoted", "scores.csv"),
         "--out", os.path.join(out, "eval_quoted")],
        ["export", "--checkpoint", mc, "--data", quoted,
         "--out", os.path.join(out, "export_quoted")],
        ["score", "--checkpoint", mc, "--data", odd, "--strategy", "ensemble",
         "--out", os.path.join(out, "score_odd")],
        ["export", "--checkpoint", mc, "--data", odd,
         "--out", os.path.join(out, "export_odd")],
    ]


def _write_odd(records, path):
    """`records` (two bona fide, then two spoof) with the ODD_IDS, the
    first record's mos as an integer and the second's features rounded to
    integers, one line each with CRLF ends and a blank line between."""
    lines = []
    for i, rid in enumerate(ODD_IDS):
        feats = records.X[i].tolist()
        obj = {"id": rid, "features": ([round(x) for x in feats] if i == 1
                                       else feats),
               "label": "bonafide" if records.y[i] == BONAFIDE else "spoof"}
        if not np.isnan(records.mos[i]):
            obj["mos"] = round(records.mos[i]) if i == 0 else records.mos[i]
        lines.append(json.dumps(obj, ensure_ascii=False))
    with open(path, "w", encoding="utf-8", newline="\r\n") as fh:
        fh.write("\n\n".join(lines) + "\n")


def _digests(out):
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name in WITH_PATHS:
                data = data.replace(out.encode(), b"<out>")
            lines.append((os.path.relpath(path, out),
                          hashlib.sha256(data).hexdigest()))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if os.path.isdir(args.out) and os.listdir(args.out):
        print(f"{args.out} is not empty", file=sys.stderr)
        return 2
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    for argv in _steps(out):
        # the commands' own messages go to stderr; stdout is the digest list
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli(argv)
        if rc != 0:
            print(f"mcoc {argv[0]} exited {rc}", file=sys.stderr)
            return rc
    print("\n".join(_digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
