"""The two benchmark workloads: their inputs, made from a seed, and the
`mcoc` command sequence of one pass.

Every workload runs a whole README session (gen, train or ablate, score,
eval, export), so every end-to-end metric is measured on every workload.
The workloads differ in which step dominates; perfbench/README.md records
why each one exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from mcoc.data import benchmark_spec
from mcoc.training import benchmark_train_config

WHY = {
    "paper_ablation": "the paper's 5-arm ablation: 8-d inputs, batch 32, so "
                      "per-step Python in training, losses and per-record "
                      "validation scoring dominate",
    "wide_io": "64-d inputs, hidden (256, 256), batch 256, so encoder matmuls "
               "and Adam dominate training; then gen, score (ensemble and "
               "head), eval and export of 4,000 JSONL records",
}
NAMES = tuple(WHY)


@dataclass
class Workload:
    """One workload, built for a seed inside a work directory.

    Paths are absolute. `records` maps every JSONL file a pass reads or
    writes to its record count; the checks in checks.py use the rest.
    """

    name: str
    steps: list  # CLI argv lists, run in order
    records: dict = field(default_factory=dict)  # jsonl path -> count
    scored: list = field(default_factory=list)  # (scores.csv, ckpt, data, strategy)
    evals: list = field(default_factory=list)  # (summary.json, score report.json)
    exports: list = field(default_factory=list)  # (export dir, ckpt, data)
    ablation: str = None  # ablate --out directory, if the pass ablates
    eer_ceiling: float = 0.05


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _count(spec):
    return sum(c["count"] for c in spec["clusters"])


def _paper_spec(seed, train, per_cluster, seed_offset=0):
    """benchmark_spec(seed) with `per_cluster` records in each cluster."""
    spec = benchmark_spec(seed, train=train).to_dict()
    for c in spec["clusters"]:
        c["count"] = per_cluster
    spec["seed"] += seed_offset
    return spec


def _wide_spec(seed, per_cluster):
    """64-d version of the benchmark geometry. The spoof clusters sit 1.0
    from the bona fide ones at spread 0.35, so the classes overlap and the
    held-out EER stays above 0."""

    def mean(axis, value):
        v = [0.0] * 64
        v[0] = 1.0
        v[axis] = value
        return v

    clusters = [
        (mean(1, -0.2), "bonafide", "low"),
        (mean(1, 0.2), "bonafide", "high"),
        (mean(2, 1.0), "spoof", None),
        (mean(3, 1.0), "spoof", None),
    ]
    return {
        "dim": 64,
        "seed": seed,
        "clusters": [{"count": per_cluster, "mean": m, "spread": 0.35,
                      "label": lab, "quality_band": band}
                     for m, lab, band in clusters],
    }


def _session(wl, out, score_jsonl, ckpt, export_jsonl, head_ckpt=None):
    """Append score (ensemble, then head if given), eval and export."""
    wl.steps.append(["score", "--checkpoint", ckpt, "--data", score_jsonl,
                     "--strategy", "ensemble", "--out", f"{out}/score"])
    wl.scored.append((f"{out}/score/scores.csv", ckpt, score_jsonl, "ensemble"))
    if head_ckpt is not None:
        wl.steps.append(["score", "--checkpoint", head_ckpt, "--data",
                         score_jsonl, "--strategy", "head",
                         "--out", f"{out}/score_head"])
        wl.scored.append((f"{out}/score_head/scores.csv", head_ckpt,
                          score_jsonl, "head"))
    wl.steps += [
        ["eval", "--scores", f"{out}/score/scores.csv", "--out", f"{out}/eval"],
        ["export", "--checkpoint", ckpt, "--data", export_jsonl,
         "--out", f"{out}/export"],
    ]
    wl.evals.append((f"{out}/eval/summary.json", f"{out}/score/report.json"))
    wl.exports.append((f"{out}/export", ckpt, export_jsonl))


def _gen(wl, spec, spec_path, out_dir):
    _dump(spec, spec_path)
    wl.steps.append(["gen", "--spec", spec_path, "--out", out_dir])
    wl.records[f"{out_dir}/data.jsonl"] = _count(spec)
    return f"{out_dir}/data.jsonl"


def build(name, seed, inp, out, smoke=False):
    """Write the inputs of workload `name` under `inp` and return it; its
    commands write under `out`. `smoke` shrinks every set to a few records
    per cluster and every training to two epochs."""
    os.makedirs(inp, exist_ok=True)
    wl = Workload(name=name, steps=[])

    def per_cluster(full):
        return 12 if smoke else full

    def config(cfg, epochs):
        cfg["epochs"] = 2 if smoke else epochs
        return cfg

    if name == "paper_ablation":
        train = _gen(wl, _paper_spec(seed, True, per_cluster(150)),
                     f"{inp}/train_spec.json", f"{out}/train")
        test = _gen(wl, _paper_spec(seed, False, per_cluster(50)),
                    f"{inp}/test_spec.json", f"{out}/test")
        # a larger held-out set for the session's score/eval/export, so that
        # those steps are timed over more than a few milliseconds
        held_out = _gen(wl, _paper_spec(seed, False, per_cluster(1500), 1000),
                        f"{inp}/held_out_spec.json", f"{out}/held_out")
        cfg = _dump(config(benchmark_train_config(seed).to_dict(), 50),
                    f"{inp}/config.json")
        wl.steps.append(["ablate", "--config", cfg, "--data", train,
                         "--test", test, "--out", f"{out}/ablate"])
        wl.ablation = f"{out}/ablate"
        _session(wl, out, held_out,
                 f"{out}/ablate/multi_centroid/checkpoint.json", held_out)
    elif name == "wide_io":
        train = _gen(wl, _wide_spec(seed, per_cluster(500)),
                     f"{inp}/train_spec.json", f"{out}/train")
        held_out = _gen(wl, _wide_spec(seed + 1000, per_cluster(1000)),
                        f"{inp}/held_out_spec.json", f"{out}/held_out")
        wide = {"seed": seed, "batch_size": 256,
                "encoder": {"hidden": [256, 256], "embed_dim": 32}}
        for loss, epochs in (("multi_centroid", 20), ("wce", 10)):
            cfg = _dump(config(dict(wide, loss=loss), epochs),
                        f"{inp}/config_{loss}.json")
            wl.steps.append(["train", "--config", cfg, "--data", train,
                             "--out", f"{out}/{loss}"])
        wl.eer_ceiling = 0.4
        _session(wl, out, held_out, f"{out}/multi_centroid/checkpoint.json",
                 held_out, head_ckpt=f"{out}/wce/checkpoint.json")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl


def step_records(wl, argv):
    """Records a CLI call handles: written by gen, read by score/export."""
    if argv[0] == "gen":
        return wl.records[f"{argv[argv.index('--out') + 1]}/data.jsonl"]
    if argv[0] in ("score", "export"):
        return wl.records[argv[argv.index("--data") + 1]]
    return 0
