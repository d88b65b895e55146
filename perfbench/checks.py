"""Output checks run after every pass. Each returns a list of failure
messages; an empty list means the pass is correct.

Scores and embeddings are recomputed here from the checkpoint JSON and the
JSONL inputs with plain numpy, one batched forward over the whole matrix,
without calling into mcoc. run.py calls this file as a script, in a child
process, so that the memory the checks use does not count towards the
benchmark process's peak RSS:

    python3 perfbench/checks.py WORKLOAD_JSON   # prints {"errors", "eers"}
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

TOLERANCE = 1e-12
_DETERMINISTIC = ("checkpoint.json", "scores.csv", "data.jsonl", "histogram.csv",
                  "embeddings.csv", "ablation.csv", "metrics.csv", "summary.json")


class Inputs:
    """JSONL files, each parsed once per check process, keyed by content hash."""

    def __init__(self):
        self._cache = {}

    def load(self, path):
        key = file_hash(path)
        if key not in self._cache:
            ids, labels, rows = [], [], []
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line)
                    ids.append(obj["id"])
                    labels.append(obj["label"])
                    rows.append(obj["features"])
            self._cache[key] = (ids, labels, np.array(rows, dtype=np.float64))
        return self._cache[key]


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_hashes(out_dir):
    """sha256 of every output file whose bytes the determinism contract pins."""
    hashes = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            if f in _DETERMINISTIC:
                path = os.path.join(root, f)
                hashes[os.path.relpath(path, out_dir)] = file_hash(path)
    return hashes


def _embed(ckpt, X):
    A = X
    for layer in ckpt["encoder"]["layers"]:
        A = A @ np.asarray(layer["weight"]).T + np.asarray(layer["bias"])
        if layer["activation"] == "relu":
            A = np.maximum(A, 0.0)
        elif layer["activation"] == "tanh":
            A = np.tanh(A)
    return A / np.linalg.norm(A, axis=1, keepdims=True)


def _scores(ckpt, X, strategy):
    E = _embed(ckpt, X)
    if strategy == "head":
        return -(E @ np.asarray(ckpt["head"]["weight"]) + ckpt["head"]["bias"])
    sims = E @ np.asarray(ckpt["bank"]["weights"]).T
    return sims.max(axis=1) if strategy == "max" else sims.mean(axis=1)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_scores(inputs, scores_csv, ckpt_path, data, strategy):
    ids, labels, X = inputs.load(data)
    rows = _read_csv(scores_csv)[1:]
    if len(rows) != len(ids):
        return [f"{scores_csv}: {len(rows)} rows for {len(ids)} records"]
    expect = _scores(_read_json(ckpt_path), X, strategy)
    got = np.array([float(r[1]) for r in rows])
    errors = []
    if [r[0] for r in rows] != ids or [r[2] for r in rows] != labels:
        errors.append(f"{scores_csv}: ids or labels out of order")
    if any(r[3] != strategy for r in rows):
        errors.append(f"{scores_csv}: strategy column is not {strategy}")
    worst = float(np.max(np.abs(got - expect)))
    if not worst <= TOLERANCE:
        errors.append(f"{scores_csv}: differs from the batched recompute "
                      f"by {worst!r}")
    return errors


def check_export(inputs, export_dir, ckpt_path, data):
    ids, _, X = inputs.load(data)
    errors = []
    hist = _read_csv(os.path.join(export_dir, "histogram.csv"))[1:]
    if sum(int(r[2]) + int(r[3]) for r in hist) != len(ids):
        errors.append(f"{export_dir}: histogram counts do not sum to {len(ids)}")
    rows = _read_csv(os.path.join(export_dir, "embeddings.csv"))[1:]
    if len(rows) != len(ids) or [r[0] for r in rows] != ids:
        return errors + [f"{export_dir}: embeddings rows do not match the records"]
    got = np.array([[float(v) for v in r[3:]] for r in rows])
    worst = float(np.max(np.abs(got - _embed(_read_json(ckpt_path), X))))
    if not worst <= TOLERANCE:
        errors.append(f"{export_dir}: embeddings differ from the batched "
                      f"recompute by {worst!r}")
    return errors


def check_pass(wl, inputs):
    """Every output check of one pass; returns (errors, eval EERs)."""
    errors = []
    for path, count in wl.records.items():
        with open(path, "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != count:
            errors.append(f"{path}: {lines} records, expected {count}")
    scored = list(wl.scored)
    eers = []
    if wl.ablation:
        with open(os.path.join(wl.ablation, "ablation.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 5:
            errors.append(f"ablation.csv has {len(rows)} arms, expected 5")
        ablate = next(s for s in wl.steps if s[0] == "ablate")
        test = ablate[ablate.index("--test") + 1]
        for row in rows:
            arm_dir = os.path.join(wl.ablation, row["arm"])
            scored.append((f"{arm_dir}/scores.csv", f"{arm_dir}/checkpoint.json",
                           test, row["strategy"]))
            eers.append(float(row["eer"]))
    for args in scored:
        errors += check_scores(inputs, *args)
    for summary, report in wl.evals:
        eer = _read_json(summary)["eer"]
        if eer != _read_json(report)["eer"]:
            errors.append(f"{summary}: eval EER {eer!r} != score report EER")
        eers.append(eer)
    for args in wl.exports:
        errors += check_export(inputs, *args)
    if not max(eers) <= wl.eer_ceiling:
        errors.append(f"held-out EER {max(eers)!r} above {wl.eer_ceiling}")
    return errors, eers


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        workload = SimpleNamespace(**json.load(fh))
    errors, eers = check_pass(workload, Inputs())
    print(json.dumps({"errors": errors, "eers": eers}))
