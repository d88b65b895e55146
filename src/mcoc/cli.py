"""Command-line front door: gen, train, score, eval, ablate, export.

Config-file-first: gen, train and ablate read a JSON spec or config and
accept repeated ``--set key=value`` overrides with dotted paths and
``--seed``; score, eval and export take neither. Every run writes a
manifest.json with the resolved inputs and the seed, so it can be re-run
bit-identically; ablate's holds its config as given, which each arm
patches, and the seed all of its arms trained with.

Exit codes, one exception class each: 0 ok, 2 config error (ConfigError,
of which MissingQuality is one), 3 I/O error (OSError), 4 training
divergence (DivergenceDetected), 1 any other McocError.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys

from . import __version__, parallel
from .data import (
    BONAFIDE,
    SPOOF,
    SyntheticSpec,
    generate_synthetic,
    load_jsonl,
    load_jsonl_beside,
    save_jsonl,
)
from .errors import (
    UNDECODABLE,
    ConfigError,
    DivergenceDetected,
    McocError,
    echo,
    load_json,
    require,
)
from .model import load_checkpoint, save_checkpoint
from .scoring import (
    POLARITY,
    STRATEGIES,
    compute_eer,
    default_strategy,
    embed,
    export_distributions,
    export_embeddings,
    read_scores_csv,
    score_dataset,
    write_scores_csv,
)
from .training import TrainConfig, check_data, train

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4
MAX_BINS = 10_000  # export histogram bins; each costs a row of histogram.csv

ABLATION_ARMS = (
    # (arm name, --set overrides of the config, scoring strategy; None: the
    # checkpoint's default, scoring.default_strategy)
    ("wce", ["loss=wce"], None),
    ("wce_quality", ["loss=wce_quality"], None),
    ("multi_centroid", ["loss=multi_centroid"], None),
    ("multi_centroid_no_quality", ["loss=multi_centroid", "hyper.lam=0.0"], None),
    ("multi_centroid_max_score", ["loss=multi_centroid"], "max"),
)


def _apply_overrides(config: dict, pairs):
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {echo(pair)} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except UNDECODABLE:  # not JSON: the config check sees a string
            value = raw
        node = config
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {echo(key)}")
        node[parts[-1]] = value
    return config


def _outdir(args, default_name):
    out = args.out
    if out is None:
        root = os.environ.get("MCOC_OUT", ".")
        out = os.path.join(root, default_name)
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, obj):
    """`obj` as sorted JSON indented by one space, plus a newline, in one
    write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_manifest(outdir, command, resolved, seed=None):
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": command,
        "resolved": resolved,
        "seed": seed,
        "package_version": __version__,
        "polarity": POLARITY,
    })


def _require_features(records, dim, path, source):
    """ConfigError unless the records of `path` have `dim` features each,
    as `source` does. A file with no records passes, and so does any file
    against a `source` with no records (dim 0)."""
    got = records.X.shape[1]
    if len(records) and dim and got != dim:
        raise ConfigError(f"{path!r}: {got} features per record, "
                          f"{source} has {dim}")


def _config_dict(path, args):
    """The JSON object at `path` with the --set overrides and --seed."""
    config = _apply_overrides(load_json(path), args.set)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _cmd_gen(args):
    spec = SyntheticSpec.from_dict(_config_dict(args.spec, args))
    records = generate_synthetic(spec)
    outdir = _outdir(args, "gen")
    save_jsonl(records, os.path.join(outdir, "data.jsonl"))
    _write_manifest(outdir, "gen", spec.to_dict(), seed=spec.seed)
    print(f"wrote {len(records)} records to {outdir}/data.jsonl")
    return 0


def _write_trained(outdir, report, ckpt):
    """checkpoint.json, then report.json naming it, then metrics.csv."""
    ckpt_path = os.path.join(outdir, "checkpoint.json")
    save_checkpoint(ckpt, ckpt_path)
    report.final_checkpoint = ckpt_path
    _write_json(os.path.join(outdir, "report.json"), report.to_dict())
    report.write_csv(os.path.join(outdir, "metrics.csv"))


def _cmd_train(args):
    config = TrainConfig.from_dict(_config_dict(args.config, args))
    records = load_jsonl(args.data, config.policy)
    report, ckpt = train(records, config)
    outdir = _outdir(args, "train")
    _write_trained(outdir, report, ckpt)
    _write_manifest(outdir, "train", config.to_dict(), seed=config.seed)
    eer = getattr(report.epochs[-1], f"val_eer_{default_strategy(ckpt.head)}")
    print(f"trained {config.loss} for {config.epochs} epochs; "
          f"final val EER: {eer}")
    return 0


def _scoring_inputs(args):
    """(checkpoint, records) of score and export; the records of --data
    must have the checkpoint's feature count. The checkpoint is loaded
    first, or beside the forked readers of a large --data file."""
    ckpt, records = load_jsonl_beside(args.data, load_checkpoint,
                                      args.checkpoint)
    _require_features(records, ckpt.encoder.input_dim, args.data,
                      "the checkpoint")
    return ckpt, records


def _score_records(records, ckpt, strategy, embeddings=None):
    return score_dataset(records, ckpt.encoder, ckpt.bank, strategy,
                         head=ckpt.head, embeddings=embeddings)


def _cmd_score(args):
    ckpt, records = _scoring_inputs(args)
    report = _score_records(records, ckpt, args.strategy)
    outdir = _outdir(args, "score")
    write_scores_csv(report, os.path.join(outdir, "scores.csv"))
    _write_json(os.path.join(outdir, "report.json"), report.to_dict())
    _write_manifest(outdir, "score",
                    {"checkpoint": args.checkpoint, "data": args.data,
                     "strategy": report.strategy})
    print(f"scored {len(report.scores)} records (strategy={report.strategy}, "
          f"{POLARITY}); EER: {report.eer}")
    return 0


def _cmd_eval(args):
    _, scores, labels = read_scores_csv(args.scores)
    bona = scores[labels == BONAFIDE]
    spoof = scores[labels == SPOOF]
    eer, threshold = compute_eer(bona, spoof)
    summary = {
        "eer": eer,
        "threshold": threshold,
        "num_bonafide": int(bona.size),
        "num_spoof": int(spoof.size),
        "polarity": POLARITY,
    }
    outdir = _outdir(args, "eval")
    _write_json(os.path.join(outdir, "summary.json"), summary)
    _write_manifest(outdir, "eval", {"scores": args.scores})
    print(f"EER {eer:.4f} at threshold {threshold:.4g}")
    return 0


def _cmd_ablate(args):
    """Every arm's config and both inputs are checked before the first
    training; arms whose resolved configs are written the same share one
    training, and the distinct configs train on every usable CPU with the
    files, bytes and errors of one loop. The manifest holds the config as
    given, after --set and --seed (each arm patches it, so it is resolved
    per arm), and the seed every arm trained with: the arms patch only the
    loss and hyper.lam."""
    base = _config_dict(args.config, args)
    configs = [TrainConfig.from_dict(_apply_overrides(copy.deepcopy(base), sets))
               for _, sets, _ in ABLATION_ARMS]
    # the arms patch only the loss and hyper.lam, so all share one policy
    records = load_jsonl(args.data, configs[0].policy)
    test_records = load_jsonl(args.test, configs[0].policy)
    _require_features(test_records, records.X.shape[1], args.test,
                      "the training data")
    for config in configs:
        check_data(records, config)
    outdir = _outdir(args, "ablate")
    # keyed by the serialized config, not the config: lam 0 and 0.0 compare
    # equal but are written differently into report.json and the checkpoint
    keys = [json.dumps(config.to_dict(), sort_keys=True) for config in configs]
    trained = _train_split(records, dict(zip(keys, configs)))
    rows = []
    for (arm, _, strategy), config, key in zip(ABLATION_ARMS, configs, keys):
        if key not in trained:
            trained[key] = train(records, config)
        report, ckpt = trained[key]
        arm_dir = os.path.join(outdir, arm)
        os.makedirs(arm_dir, exist_ok=True)
        _write_trained(arm_dir, report, ckpt)
        sreport = _score_records(test_records, ckpt, strategy)
        write_scores_csv(sreport, os.path.join(arm_dir, "scores.csv"))
        rows.append((arm, config.loss, sreport.strategy, sreport.eer))
        print(f"{arm:28s} loss={config.loss:14s} "
              f"strategy={sreport.strategy:8s} EER={sreport.eer}")
    # as metrics.csv: a float as its repr, a missing EER as an empty cell
    with open(os.path.join(outdir, "ablation.csv"), "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["arm", "loss", "strategy", "eer"])
        w.writerows(rows)
    _write_manifest(outdir, "ablate",
                    {"config": base, "data": args.data, "test": args.test},
                    seed=configs[0].seed)
    return 0


def _train_split(records, configs):
    """{key: train(records, config)} for the {key: config} items `configs`,
    trained in round-robin groups on up to usable_cpus() processes, the
    first group here. Empty where nothing forks, a fork fails or the first
    group raises a McocError; without the configs of a child that failed.
    ablate's loop trains what is missing, in arm order, so a failing arm
    raises there, after the arms before it were written."""
    keys = list(configs)
    groups = min(len(keys), parallel.usable_cpus())
    if groups < 2:
        return {}

    def train_group(group):
        # train by this module's name at call time: tests and tracers
        # patch it
        return [(key, train(records, configs[key])) for key in group]

    try:
        parts = parallel.fork_map(train_group, [keys[g::groups]
                                                for g in range(groups)])
    except (McocError, OSError):  # a failing arm, or no fork: train serially
        return {}
    return {key: result for part in parts if part is not None
            for key, result in part}


def _cmd_export(args):
    require(args.bins >= 1, "--bins", args.bins, "at least 1")
    require(args.bins <= MAX_BINS, "--bins", args.bins, f"at most {MAX_BINS}")
    ckpt, records = _scoring_inputs(args)
    E = embed(records, ckpt.encoder)
    report = _score_records(records, ckpt, args.strategy, embeddings=E)
    outdir = _outdir(args, "export")
    export_distributions(report, os.path.join(outdir, "histogram.csv"),
                         bins=args.bins)
    export_embeddings(records, E, os.path.join(outdir, "embeddings.csv"))
    _write_manifest(outdir, "export",
                    {"checkpoint": args.checkpoint, "data": args.data,
                     "strategy": report.strategy, "bins": args.bins})
    print(f"exported histogram and embeddings for {len(records)} records")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcoc",
        description="Quality-aware multi-centroid one-class learning "
                    "(higher CM score = bona fide)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $MCOC_OUT/<command>)")

    def configured(p):
        """--out, and the overrides of the command's JSON config."""
        common(p)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path)")
        p.add_argument("--seed", type=int, default=None)

    def scoring(p):
        """The checkpoint, the records and the strategy of score and
        export."""
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--strategy", choices=STRATEGIES,
                       help="default: head if the checkpoint has one, "
                            "else ensemble")

    p = sub.add_parser("gen", help="generate a synthetic JSONL dataset")
    p.add_argument("--spec", required=True)
    configured(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train one arm and write a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    configured(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a dataset with a checkpoint")
    scoring(p)
    common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="compute EER from a scores.csv")
    p.add_argument("--scores", required=True)
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the 5-arm loss/scoring matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--test", required=True, help="test JSONL")
    configured(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("export", help="export histogram and embedding CSVs")
    scoring(p)
    p.add_argument("--bins", type=int, default=30)
    common(p)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceDetected as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except McocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
