"""errors.from_dict, the one builder from a JSON object to a config
dataclass: round trips through to_dict and JSON, and the errors that name
their section."""

import json
from dataclasses import asdict, fields

import pytest

from mcoc.data import (MAX_VALUES, ClusterSpec, QualityPolicy, SyntheticSpec,
                       benchmark_spec, generate_synthetic)
from mcoc.errors import ECHO_MAX, ConfigError, echo, from_dict
from mcoc.training import OptimizerConfig, TrainConfig, benchmark_train_config

POLICY_3 = QualityPolicy(thresholds=(2.0, 3.5))


def through_json(d):
    return json.loads(json.dumps(d))


@pytest.mark.parametrize("train", [True, False])
def test_spec_round_trip(train):
    spec = benchmark_spec(3, train=train)
    assert SyntheticSpec.from_dict(spec.to_dict()) == spec
    assert SyntheticSpec.from_dict(through_json(spec.to_dict())) == spec


def test_train_config_round_trip():
    cfg = benchmark_train_config(3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert TrainConfig.from_dict(through_json(cfg.to_dict())) == cfg


def test_policy_round_trip():
    assert from_dict(QualityPolicy, asdict(POLICY_3), "policy") == POLICY_3
    assert from_dict(QualityPolicy, through_json(asdict(POLICY_3)),
                     "policy") == POLICY_3


def test_train_config_with_policy_round_trip():
    cfg = TrainConfig(policy=POLICY_3)
    assert TrainConfig.from_dict(through_json(cfg.to_dict())) == cfg


def test_spec_with_policy_round_trip():
    spec = SyntheticSpec(dim=1, clusters=(ClusterSpec(1, (0.0,), 1.0,
                                                      "bonafide", "high"),),
                         policy=POLICY_3)
    assert spec.to_dict()["policy"] == {"thresholds": (2.0, 3.5)}
    assert SyntheticSpec.from_dict(through_json(spec.to_dict())) == spec


def test_policy_is_its_thresholds():
    assert [f.name for f in fields(QualityPolicy)] == ["thresholds"]
    assert QualityPolicy().thresholds == (2.5,)
    assert QualityPolicy().num_levels == 2
    assert POLICY_3.num_levels == 3
    assert QualityPolicy(thresholds=[]).num_levels == 1


def test_spec_json_keeps_label_names():
    d = benchmark_spec(3).to_dict()
    assert [c["label"] for c in d["clusters"]] == ["bonafide", "bonafide",
                                                   "spoof", "spoof"]


def test_left_out_keys_take_defaults():
    assert from_dict(QualityPolicy, {}, "policy") == QualityPolicy()
    assert TrainConfig.from_dict({"optimizer": {"lr": 0.5}}) == \
        TrainConfig(optimizer=OptimizerConfig(lr=0.5))
    spec = SyntheticSpec.from_dict(
        {"dim": 1, "clusters": [{"count": 1, "mean": [0], "spread": 1,
                                 "quality_band": "low"}]})
    assert spec.seed == 0 and spec.clusters[0].label == "bonafide"


def _spec(**cluster):
    c = {"count": 2, "mean": [0.0], "spread": 1.0, "label": "spoof", **cluster}
    return {"dim": 1, "clusters": [c]}


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig.from_dict({"lrr": 1}), "config: unknown keys ['lrr']"),
    (lambda: TrainConfig.from_dict({"optimizer": {"lrr": 1, "b": 2}}),
     "config.optimizer: unknown keys ['b', 'lrr']"),
    (lambda: TrainConfig.from_dict({"policy": {"taus": 1}}),
     "config.policy: unknown keys ['taus']"),
    (lambda: TrainConfig.from_dict({"policy": {"tau": 3.0,
                                               "thresholds": [2.5]}}),
     "config.policy: unknown keys ['tau']"),
    (lambda: TrainConfig.from_dict({"policy": {"num_levels": 2}}),
     "config.policy: unknown keys ['num_levels']"),
    (lambda: SyntheticSpec.from_dict({**_spec(), "policy": {"num_levels": 3}}),
     "spec.policy: unknown keys ['num_levels']"),
    (lambda: TrainConfig.from_dict({"hyper": [1]}),
     "config.hyper must be an object, got [1]"),
    (lambda: TrainConfig.from_dict([]), "config must be an object, got []"),
    (lambda: SyntheticSpec.from_dict({**_spec(), "sed": 7}),
     "spec: unknown keys ['sed']"),
    (lambda: SyntheticSpec.from_dict(_spec(labl="spoof")),
     "spec.clusters[0]: unknown keys ['labl']"),
    (lambda: SyntheticSpec.from_dict({"clusters": []}),
     "spec: missing keys ['dim']"),
    (lambda: SyntheticSpec.from_dict({"dim": 1, "clusters": [{"count": 1}]}),
     "spec.clusters[0]: missing keys ['mean', 'spread']"),
    (lambda: SyntheticSpec.from_dict({"dim": 1, "clusters": [3]}),
     "spec.clusters[0] must be an object, got 3"),
    (lambda: SyntheticSpec.from_dict({"dim": 1}),
     "spec: missing keys ['clusters']"),
    (lambda: SyntheticSpec.from_dict(_spec(label=["spoof"])),
     "spec.clusters[0]: label must be 'bonafide' or 'spoof', got ['spoof']"),
    (lambda: SyntheticSpec.from_dict(_spec(label={"a": 1})),
     "spec.clusters[0]: label must be 'bonafide' or 'spoof', got {'a': 1}"),
    (lambda: SyntheticSpec.from_dict(_spec(label=1)),
     "spec.clusters[0]: label must be 'bonafide' or 'spoof', got 1"),
    (lambda: SyntheticSpec.from_dict(_spec(count=2.5)),
     "spec.clusters[0]: count must be an integer >= 1, got 2.5"),
    (lambda: from_dict(QualityPolicy, {"thresholds": [2.5], "tua": 3},
                       "checkpoint.policy"),
     "checkpoint.policy: unknown keys ['tua']"),
    (lambda: SyntheticSpec.from_dict(_spec(mean=[0.0, 0.0])),
     "spec.clusters[0]: mean has 2 values, dim is 1"),
    (lambda: generate_synthetic(SyntheticSpec.from_dict(
        _spec(mean=[1.7e308], spread=1e308, count=50))),
     "spec.clusters[0]: mean and spread draw a feature beyond the float "
     "range"),
    (lambda: SyntheticSpec.from_dict(_spec(quality_band="banana")),
     "spec.clusters[0]: quality_band must be null for a spoof cluster, got "
     "'banana'"),
    (lambda: SyntheticSpec.from_dict(_spec(count=MAX_VALUES + 1)),
     f"spec: total count times dim must be at most {MAX_VALUES}, got "
     f"{MAX_VALUES + 1}"),
], ids=["top", "section", "policy", "policy-tau", "policy-num-levels",
        "spec-policy", "section-not-object", "not-object",
        "spec-top", "cluster-key", "spec-missing", "cluster-missing",
        "cluster-not-object", "no-clusters", "label-list", "label-dict",
        "label-int", "count", "named-policy", "cluster-mean-length",
        "cluster-overflow", "spoof-quality-band", "values-bound"])
def test_errors_name_their_section(build, message):
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value) == message


def test_cluster_label_is_a_name():
    assert ClusterSpec(1, (0.0,), 1.0, "spoof").label == "spoof"
    with pytest.raises(ConfigError):
        ClusterSpec(1, (0.0,), 1.0, 1)


@pytest.mark.parametrize("value", ["epochs", 3, 0.5, None, [1, "a"], "a\nb\r\x00",
                                   "x" * (ECHO_MAX - 2)])
def test_echo_is_the_repr_of_a_short_value(value):
    assert echo(value) == repr(value)


@pytest.mark.parametrize("value", ["x" * (ECHO_MAX - 1), "[" * 100_000,
                                   "\n" * ECHO_MAX, list(range(1000))])
def test_echo_cuts_a_long_value_and_counts_it(value):
    text = repr(value)
    assert echo(value) == f"{text[:ECHO_MAX]}… ({len(text)} chars)"
    assert "\n" not in echo(value) and "\r" not in echo(value)


def test_config_error_echoes_a_bounded_value():
    with pytest.raises(ConfigError) as info:
        TrainConfig(epochs="9" * 100_000)
    assert len(str(info.value)) < 2 * ECHO_MAX
    assert str(info.value).endswith("… (100002 chars)")
