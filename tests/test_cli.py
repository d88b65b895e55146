import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcoc.data
from mcoc import cli, training
from mcoc.cli import ABLATION_ARMS, main
from mcoc.data import ClusterSpec, SyntheticSpec
from mcoc.errors import (ECHO_MAX, ConfigError, DivergenceDetected, EmptyClass,
                         MissingQuality, MosOutOfRange, ParseError,
                         ScoreOutOfRange, ZeroNorm)
from mcoc.scoring import STRATEGIES, read_scores_csv
from mcoc.training import EncoderConfig, OptimizerConfig, TrainConfig


def tiny_spec(seed=1):
    base = [1.0] + [0.0] * 5
    far = [-2.0] + [0.0] * 5
    return SyntheticSpec(
        dim=6,
        clusters=(
            ClusterSpec(30, tuple(base), 0.3, "bonafide", "low"),
            ClusterSpec(30, tuple(base), 0.3, "bonafide", "high"),
            ClusterSpec(30, tuple(far), 0.3, "spoof"),
        ),
        seed=seed,
    )


def tiny_train_config():
    return TrainConfig(epochs=3, seed=0, batch_size=16,
                       optimizer=OptimizerConfig(lr=0.01),
                       encoder=EncoderConfig(hidden=(12,), embed_dim=6))


@pytest.fixture()
def workspace(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec().to_dict()))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(tiny_train_config().to_dict()))
    return tmp_path, spec_path, cfg_path


def run(*argv):
    return main([str(a) for a in argv])


def count_calls(monkeypatch, tmp_path, name):
    """Patch mcoc.cli.<name> to log the pid of each call, in this process
    and in any forked from it, as a line of a file under tmp_path. Returns a
    function that gives the pids logged so far, one per call."""
    log = tmp_path / f"{name}.calls"
    log.write_text("")
    fn = getattr(cli, name)

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return lambda: [int(pid) for pid in log.read_text().split()]


def rewrite_jsonl(src, dst, change):
    """Copy the JSONL file `src` to `dst`, applying change(record) to every
    record."""
    rows = [json.loads(line) for line in src.read_text().splitlines()]
    for r in rows:
        change(r)
    dst.write_text("".join(json.dumps(r) + "\n" for r in rows))


def _strict_json(text):
    """json.loads, with NaN and Infinity rejected."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_pipeline_smoke(workspace):
    tmp, spec, cfg = workspace
    assert run("gen", "--spec", spec, "--out", tmp / "data") == 0
    data = tmp / "data" / "data.jsonl"
    assert data.exists()
    assert run("train", "--config", cfg, "--data", data,
               "--out", tmp / "run") == 0
    ckpt = tmp / "run" / "checkpoint.json"
    assert ckpt.exists()
    assert (tmp / "run" / "manifest.json").exists()

    assert run("score", "--checkpoint", ckpt, "--data", data,
               "--strategy", "ensemble", "--out", tmp / "sc") == 0
    scores = tmp / "sc" / "scores.csv"
    with open(scores) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 90

    assert run("eval", "--scores", scores, "--out", tmp / "ev") == 0
    summary = _strict_json((tmp / "ev" / "summary.json").read_text())
    assert 0.0 <= summary["eer"] <= 1.0

    assert run("export", "--checkpoint", ckpt, "--data", data,
               "--out", tmp / "ex", "--bins", "10") == 0
    assert (tmp / "ex" / "histogram.csv").exists()
    assert (tmp / "ex" / "embeddings.csv").exists()
    # every JSON file each command wrote is strict JSON
    written = sorted(tmp.glob("*/*.json"))
    assert {p.parent.name for p in written} == {"data", "run", "sc", "ev",
                                                "ex"}
    for path in written:
        _strict_json(path.read_text())


def test_gen_deterministic(workspace):
    tmp, spec, _ = workspace
    run("gen", "--spec", spec, "--out", tmp / "a")
    run("gen", "--spec", spec, "--out", tmp / "b")
    assert (tmp / "a" / "data.jsonl").read_bytes() == \
        (tmp / "b" / "data.jsonl").read_bytes()


def test_gen_manifest_records_the_policy(workspace):
    # the policy moves every bona fide MOS, so two runs that differ only in
    # the policy differ in their manifests too, and the recorded spec
    # re-runs the command
    tmp, spec, _ = workspace
    policy = {"thresholds": [2.0, 3.5]}
    run("gen", "--spec", spec, "--out", tmp / "a")
    run("gen", "--spec", spec, "--set", f"policy={json.dumps(policy)}",
        "--out", tmp / "b")
    assert (tmp / "a" / "data.jsonl").read_bytes() != \
        (tmp / "b" / "data.jsonl").read_bytes()
    manifests = [json.loads((tmp / d / "manifest.json").read_text())
                 for d in ("a", "b")]
    assert manifests[0] != manifests[1]
    assert manifests[1]["resolved"]["policy"] == policy
    rerun = tmp / "rerun.json"
    rerun.write_text(json.dumps(manifests[1]["resolved"]))
    run("gen", "--spec", rerun, "--out", tmp / "c")
    assert (tmp / "c" / "data.jsonl").read_bytes() == \
        (tmp / "b" / "data.jsonl").read_bytes()


def test_train_and_score_deterministic(workspace):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    data = tmp / "data" / "data.jsonl"
    for tag in ("r1", "r2"):
        run("train", "--config", cfg, "--data", data, "--out", tmp / tag)
        run("score", "--checkpoint", tmp / tag / "checkpoint.json",
            "--data", data, "--out", tmp / f"s_{tag}")
    assert (tmp / "r1" / "checkpoint.json").read_bytes() == \
        (tmp / "r2" / "checkpoint.json").read_bytes()
    assert (tmp / "s_r1" / "scores.csv").read_bytes() == \
        (tmp / "s_r2" / "scores.csv").read_bytes()


def test_override_flag(workspace):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    data = tmp / "data" / "data.jsonl"
    assert run("train", "--config", cfg, "--data", data,
               "--set", "epochs=1", "--set", "hyper.lam=0.0",
               "--out", tmp / "ov") == 0
    manifest = json.loads((tmp / "ov" / "manifest.json").read_text())
    assert manifest["resolved"]["epochs"] == 1
    assert manifest["resolved"]["hyper"]["lam"] == 0.0


def test_unknown_config_key_exit_code(workspace):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    rc = run("train", "--config", cfg, "--data", tmp / "data" / "data.jsonl",
             "--set", "nonsense=1", "--out", tmp / "x")
    assert rc == 2


def test_config_not_an_object_exit_code(workspace, capsys):
    tmp, _, cfg = workspace
    cfg.write_text("[]")
    rc = run("train", "--config", cfg, "--data", tmp / "absent.jsonl",
             "--set", "epochs=1", "--out", tmp / "x")
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_missing_file_exit_code(tmp_path):
    rc = run("score", "--checkpoint", tmp_path / "none.json",
             "--data", tmp_path / "none.jsonl", "--out", tmp_path / "o")
    assert rc == 3


def test_unknown_flag_usage_error(capsys):
    for argv in [
        ["train", "--bogus"],
        # score, eval and export read no JSON config: --set and --seed are
        # not theirs (the required options are given, so the flag is the
        # error)
        ["score", "--checkpoint", "c.json", "--data", "d.jsonl", "--set", "x=1"],
        ["score", "--checkpoint", "c.json", "--data", "d.jsonl", "--seed", "9"],
        ["eval", "--scores", "s.csv", "--set", "x=1"],
        ["eval", "--scores", "s.csv", "--seed", "9"],
        ["export", "--checkpoint", "c.json", "--data", "d.jsonl", "--set", "x=1"],
        ["export", "--checkpoint", "c.json", "--data", "d.jsonl", "--seed", "4"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


def test_ablate_writes_table(workspace, monkeypatch):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    run("gen", "--spec", spec, "--seed", "2", "--out", tmp / "te")
    trainings = count_calls(monkeypatch, tmp, "train")
    loads = count_calls(monkeypatch, tmp, "load_jsonl")
    rc = run("ablate", "--config", cfg, "--data", tmp / "tr" / "data.jsonl",
             "--test", tmp / "te" / "data.jsonl", "--out", tmp / "ab")
    assert rc == 0
    # multi_centroid_max_score differs from multi_centroid only in scoring
    assert (len(trainings()), len(loads())) == (4, 2)
    with open(tmp / "ab" / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["arm"] for r in rows] == [
        "wce", "wce_quality", "multi_centroid",
        "multi_centroid_no_quality", "multi_centroid_max_score",
    ]
    assert all(0.0 <= float(r["eer"]) <= 1.0 for r in rows)
    for r in rows:
        arm_dir = tmp / "ab" / r["arm"]
        for name in ("checkpoint.json", "metrics.csv", "scores.csv"):
            assert (arm_dir / name).exists()
        report = json.loads((arm_dir / "report.json").read_text())
        assert report["final_checkpoint"] == str(arm_dir / "checkpoint.json")
    shared, max_arm = tmp / "ab" / "multi_centroid", \
        tmp / "ab" / "multi_centroid_max_score"
    for name in ("checkpoint.json", "metrics.csv"):
        assert (shared / name).read_bytes() == (max_arm / name).read_bytes()


@pytest.mark.parametrize("lam, trainings", [
    # every arm but the wce ones resolves to one config
    ("0.0", 3),
    # lam 0 and the no-quality arm's 0.0 are equal numbers but are written
    # differently, so they stay two trainings
    ("0", 4),
])
def test_ablate_trains_each_written_config_once(workspace, monkeypatch, lam,
                                                trainings):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    calls = count_calls(monkeypatch, tmp, "train")
    assert run("ablate", "--config", cfg, "--data", data, "--test", data,
               "--set", f"hyper.lam={lam}", "--out", tmp / "ab") == 0
    assert len(calls()) == trainings
    written = {arm: json.loads((tmp / "ab" / arm / "report.json").read_text())
               ["config"]["hyper"]["lam"] for arm, _, _ in ABLATION_ARMS}
    assert repr(written["multi_centroid"]) == lam
    assert repr(written["multi_centroid_no_quality"]) == "0.0"


def test_ablate_leaves_a_missing_eer_empty(workspace):
    # a spoof-only test set has no EER; ablation.csv leaves the cell empty,
    # as metrics.csv does
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    spoof = tmp / "spoof.jsonl"
    spoof.write_text("".join(line for line in data.read_text().splitlines(True)
                             if '"spoof"' in line))
    assert run("ablate", "--config", cfg, "--data", data, "--test", spoof,
               "--out", tmp / "ab") == 0
    lines = (tmp / "ab" / "ablation.csv").read_text().splitlines()
    assert lines[0] == "arm,loss,strategy,eer"
    # the strategies are literal, so they pin the arms apart from the table
    assert lines[1:] == [f"{arm},{sets[0][5:]},{strategy},"
                         for (arm, sets, _), strategy in zip(
                             ABLATION_ARMS,
                             ["head", "head", "ensemble", "ensemble", "max"])]


@pytest.mark.parametrize("seed_args, seed", [([], 0), (["--seed", "7"], 7)])
def test_ablate_manifest_names_the_seed_its_arms_trained_with(
        workspace, seed_args, seed):
    # a config without a seed trains with the default one, as train records
    tmp, spec, _ = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    cfg = tmp / "bare.json"
    cfg.write_text(json.dumps({"epochs": 1}))
    assert run("ablate", "--config", cfg, "--data", data, "--test", data,
               "--out", tmp / "ab", *seed_args) == 0
    assert run("train", "--config", cfg, "--data", data, "--out", tmp / "tr1",
               *seed_args) == 0
    manifest = json.loads((tmp / "ab" / "manifest.json").read_text())
    assert manifest["seed"] == seed
    assert manifest["seed"] == json.loads(
        (tmp / "tr1" / "manifest.json").read_text())["seed"]
    assert {json.loads((tmp / "ab" / arm / "checkpoint.json").read_text())
            ["metadata"]["seed"] for arm, _, _ in ABLATION_ARMS} == {seed}
    # the config stays as given: {"loss": ...} is no config on its own
    assert manifest["resolved"]["config"] == {"epochs": 1, **(
        {"seed": seed} if seed_args else {})}


# ablate trains its distinct arm configs on every usable CPU, in round-robin
# groups: on 2 CPUs the caller trains wce and multi_centroid, a child
# wce_quality and multi_centroid_no_quality; on 3 the caller trains wce and
# multi_centroid_no_quality, and a child each of the other two

def _ablate_outcome(tmp, monkeypatch, capfd, name, cpus, *argv):
    """(exit code, stdout, stderr, {path: bytes, or None for a directory})
    of `ablate *argv --out ab` run in the new directory tmp/name on `cpus`
    usable CPUs. The relative --out keeps the paths report.json writes the
    same across runs."""
    with monkeypatch.context() as mp:
        mp.setattr("mcoc.parallel.usable_cpus", lambda: cpus)
        (tmp / name).mkdir()
        mp.chdir(tmp / name)
        capfd.readouterr()
        rc = run("ablate", *argv, "--out", "ab")
        out, err = capfd.readouterr()
    return rc, out, err, _tree(tmp / name)


def _tree(root):
    """{path under root: its bytes, or None for a directory}."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("sets, distinct", [([], 4), (["hyper.lam=0.0"], 3)])
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_ablate_gives_the_serial_bytes(workspace, monkeypatch, capfd,
                                               sets, distinct, cpus):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    run("gen", "--spec", spec, "--seed", "2", "--out", tmp / "te")
    argv = ["--config", cfg, "--data", tmp / "tr" / "data.jsonl",
            "--test", tmp / "te" / "data.jsonl",
            *(a for s in sets for a in ("--set", s))]
    serial = _ablate_outcome(tmp, monkeypatch, capfd, "serial", 1, *argv)
    pids = count_calls(monkeypatch, tmp, "train")
    split = _ablate_outcome(tmp, monkeypatch, capfd, "split", cpus, *argv)
    # ab, ablation.csv, manifest.json and 5 arm directories of 4 files
    assert serial[0] == 0 and len(serial[3]) == 28
    assert split == serial
    # each distinct config trained once, on min(distinct, cpus) processes
    assert len(pids()) == distinct
    assert len(set(pids())) == min(distinct, cpus)
    assert os.getpid() in pids()


def _diverging(arm, error=DivergenceDetected):
    """A wrapper of mcoc.cli.train that raises `error` (DivergenceDetected
    by default) for the config of `arm` and trains every other."""
    fn = cli.train
    sets = next(sets for name, sets, _ in ABLATION_ARMS if name == arm)
    lam0 = "hyper.lam=0.0" in sets

    def train(records, config):
        if (config.loss, config.hyper.lam == 0.0) == (sets[0][5:], lam0):
            raise error(f"epoch 1: {arm} diverged")
        return fn(records, config)

    return train


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("arm", ["wce", "wce_quality", "multi_centroid",
                                 "multi_centroid_no_quality"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_ablate_fails_as_the_serial_one(workspace, monkeypatch,
                                                capfd, arm, cpus):
    # the failing arm is trained here or in a child; either way the arms
    # before it are written and printed, then its error is the one line
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    monkeypatch.setattr(cli, "train", _diverging(arm))
    argv = ["--config", cfg, "--data", data, "--test", data]
    serial = _ablate_outcome(tmp, monkeypatch, capfd, "serial", 1, *argv)
    split = _ablate_outcome(tmp, monkeypatch, capfd, "split", cpus, *argv)
    rc, out, err, _ = serial
    assert (rc, err) == (4, f"divergence: epoch 1: {arm} diverged\n")
    arms = [name for name, _, _ in ABLATION_ARMS]
    assert len(out.splitlines()) == arms.index(arm)
    assert split == serial


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("arm", ["multi_centroid",
                                 "multi_centroid_no_quality"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_ablate_fails_as_the_serial_one_for_any_exception(
        workspace, monkeypatch, capfd, arm, cpus):
    # an error that is no McocError leaves cli.main; the failing arm is
    # trained here on 2 CPUs for multi_centroid and on 3 for
    # multi_centroid_no_quality, else in a child
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    monkeypatch.setattr(cli, "train", _diverging(arm, KeyError))
    argv = ["--config", cfg, "--data", data, "--test", data]
    outcomes = []
    for name, n in [("serial", 1), ("split", cpus)]:
        with pytest.raises(KeyError):
            _ablate_outcome(tmp, monkeypatch, capfd, name, n, *argv)
        outcomes.append((capfd.readouterr(), _tree(tmp / name)))
    (out, err), tree = outcomes[0]
    arms = [name for name, _, _ in ABLATION_ARMS]
    # the arms before the failing one are written and printed
    assert len(out.splitlines()) == arms.index(arm) and err == ""
    assert len(tree) == 1 + 5 * arms.index(arm)
    assert outcomes[1] == outcomes[0]


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("case", ["fork-fails", "sigchld-ignored"])
def test_a_split_ablate_that_cannot_fork_or_reap_gives_the_serial_bytes(
        workspace, monkeypatch, capfd, case):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    argv = ["--config", cfg, "--data", data, "--test", data]
    serial = _ablate_outcome(tmp, monkeypatch, capfd, "serial", 1, *argv)
    pids = count_calls(monkeypatch, tmp, "train")
    if case == "fork-fails":
        def no_fork():
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        split = _ablate_outcome(tmp, monkeypatch, capfd, "split", 2, *argv)
        assert pids() == [os.getpid()] * 4
    else:
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            split = _ablate_outcome(tmp, monkeypatch, capfd, "split", 2,
                                    *argv)
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert len(set(pids())) == 2
    assert split == serial


ABLATE_AFTER_BLAS = """
import sys

import numpy as np

from mcoc import cli, parallel

# a threaded product starts the OpenBLAS pool before ablate forks
a = np.random.default_rng(0).normal(size=(512, 512))
a @ a
cpus = int(sys.argv[1])
parallel.usable_cpus = lambda: cpus
sys.exit(cli.main(sys.argv[2:]))
"""


def test_ablate_forks_after_a_threaded_blas_call(workspace):
    # the children train, so they run BLAS after the parent's pool started
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    data = tmp / "tr" / "data.jsonl"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    outcomes = []
    for cpus in (1, 2):
        (tmp / str(cpus)).mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", ABLATE_AFTER_BLAS, str(cpus), "ablate",
             "--config", str(cfg), "--data", str(data), "--test", str(data),
             "--out", "ab"],
            cwd=tmp / str(cpus), env=env, capture_output=True, timeout=120)
        outcomes.append((proc.returncode, proc.stdout, proc.stderr,
                         _tree(tmp / str(cpus))))
    assert outcomes[0][0] == 0 and outcomes[0][2] == b""
    assert outcomes[1] == outcomes[0]


# score and export load their checkpoint in the caller while forked children
# read the later ranges of --data; the caller's range is shorter by the
# checkpoint's bytes

def _scoring_outcome(tmp, monkeypatch, capfd, name, cpus, ckpt, data):
    """([score's exit code, export's], stdout, stderr, {path: bytes, or None
    for a directory}) of score then export of `data` with `ckpt`, run in the
    new directory tmp/name on `cpus` usable CPUs, with every file of 1 byte
    or more split where more than one CPU is usable."""
    with monkeypatch.context() as mp:
        mp.setattr("mcoc.data.SPLIT_BYTES", 1)
        mp.setattr("mcoc.parallel.usable_cpus", lambda: cpus)
        (tmp / name).mkdir()
        mp.chdir(tmp / name)
        capfd.readouterr()
        rcs = [run("score", "--checkpoint", ckpt, "--data", data,
                   "--out", "sc"),
               run("export", "--checkpoint", ckpt, "--data", data,
                   "--out", "ex")]
        out, err = capfd.readouterr()
    return rcs, out, err, _tree(tmp / name)


def log_ranges(monkeypatch, tmp_path):
    """Patch mcoc.data._read_range to log the pid, start and end of each
    range read, in this process and in any forked from it. Returns a
    function that gives the (pid, start, end) logged so far, in the order
    they were logged: a child may log before the caller."""
    log = tmp_path / "ranges.log"
    log.write_text("")
    read_range = mcoc.data._read_range

    def logged(task):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {task[1]} {task[2]}\n")
        return read_range(task)

    monkeypatch.setattr("mcoc.data._read_range", logged)
    return lambda: [tuple(map(int, line.split()))
                    for line in log.read_text().splitlines()]


def _no_fork(monkeypatch):
    """Make os.fork fail as past the process limit; returns the list of
    forks tried."""
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    return forks


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_score_and_export_give_the_serial_bytes(workspace,
                                                        monkeypatch, capfd,
                                                        cpus):
    tmp, data, ckpt = trained(workspace)
    with monkeypatch.context() as mp:  # nothing forks on one usable CPU
        forks = _no_fork(mp)
        serial = _scoring_outcome(tmp, mp, capfd, "serial", 1, ckpt, data)
    assert forks == []
    assert serial[0] == [0, 0] and serial[2] == ""
    loads = count_calls(monkeypatch, tmp, "load_checkpoint")
    ranges = log_ranges(monkeypatch, tmp)
    split = _scoring_outcome(tmp, monkeypatch, capfd, "split", cpus, ckpt,
                             data)
    assert split == serial
    # each command loaded the checkpoint once, here, and read cpus ranges,
    # the first here and shorter than the rest by about the checkpoint's
    # bytes
    assert loads() == [os.getpid()] * 2
    read = ranges()
    assert len(read) == 2 * cpus
    size, weight = data.stat().st_size, ckpt.stat().st_size
    for command in (read[:cpus], read[cpus:]):
        first, *rest = sorted(command, key=lambda r: r[1:])
        assert first[:2] == (os.getpid(), 0)
        assert os.getpid() not in [pid for pid, _, _ in rest]
        share = (size + weight) // cpus
        # the cut moves to the end of the line it falls in, of < 400 bytes
        assert share - weight <= first[2] < share - weight + 400
        assert [start for _, start, _ in rest] == [first[2]] + [
            end for _, _, end in rest[:-1]]


@pytest.mark.usefixtures("no_child_left")
def test_a_checkpoint_larger_than_its_share_leaves_the_caller_no_range(
        workspace, monkeypatch, capfd):
    tmp, data, ckpt = trained(workspace)
    # trailing white space is valid JSON, and only the checkpoint's size
    # moves the cut
    padded = tmp / "padded.json"
    padded.write_bytes(ckpt.read_bytes() + b" " * (2 * data.stat().st_size))
    serial = _scoring_outcome(tmp, monkeypatch, capfd, "serial", 1, padded,
                              data)
    ranges = log_ranges(monkeypatch, tmp)
    split = _scoring_outcome(tmp, monkeypatch, capfd, "split", 2, padded,
                             data)
    assert serial[0] == [0, 0] and split == serial
    size = data.stat().st_size
    read = [(pid == os.getpid(), start, end) for pid, start, end in ranges()]
    assert sorted(read[:2]) == sorted(read[2:]) == [(False, 0, size),
                                                    (True, 0, 0)]


def _break_checkpoint(ckpt, case):
    if case == "missing":
        ckpt.unlink()
    else:
        ckpt.write_text(ckpt.read_text()[:-20])


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("checkpoint, code, prefix", [
    ("missing", 3, "io error: "), ("malformed", 2, "config error: ")])
@pytest.mark.parametrize("bad_data", ["missing", "bad-first-line",
                                      "bad-last-line"])
def test_a_bad_checkpoint_beside_bad_data_gives_the_checkpoints_error(
        workspace, monkeypatch, capfd, checkpoint, code, prefix, bad_data):
    tmp, data, ckpt = trained(workspace)
    _break_checkpoint(ckpt, checkpoint)
    if bad_data == "missing":
        data = tmp / "no-such.jsonl"
    else:
        lines = data.read_text().splitlines(True)
        lines[0 if bad_data == "bad-first-line" else -1] = "{oops\n"
        data.write_text("".join(lines))
    serial = _scoring_outcome(tmp, monkeypatch, capfd, "serial", 1, ckpt,
                              data)
    split = _scoring_outcome(tmp, monkeypatch, capfd, "split", 2, ckpt, data)
    rcs, out, err, _ = serial
    assert rcs == [code, code] and out == ""
    assert err.startswith(prefix) and "checkpoint" in err
    assert len(err.splitlines()) == 2
    assert split == serial


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("where", ["caller", "child"])
def test_a_bad_line_in_a_split_read_gives_the_serial_error(
        workspace, monkeypatch, capfd, where):
    tmp, data, ckpt = trained(workspace)
    lines = data.read_bytes().splitlines(True)
    line_no = 2 if where == "caller" else len(lines) - 1
    lines[line_no - 1] = b"{oops\n"
    data.write_bytes(b"".join(lines))
    serial = _scoring_outcome(tmp, monkeypatch, capfd, "serial", 1, ckpt,
                              data)
    ranges = log_ranges(monkeypatch, tmp)
    split = _scoring_outcome(tmp, monkeypatch, capfd, "split", 2, ckpt, data)
    rcs, out, err, _ = serial
    assert rcs == [1, 1] and out == ""
    assert err.splitlines() == [err.splitlines()[0]] * 2
    assert err.startswith(f"error: line {line_no}: invalid JSON: ")
    assert split == serial
    # the bad line is in the range named: the caller's first range ends
    # after it or before it. A child may be killed before it logs its range
    # when the caller's range raises, so the caller's range is found by pid
    offset = len(b"".join(lines[:line_no - 1]))
    caller_end = next(end for pid, _, end in ranges() if pid == os.getpid())
    assert (offset < caller_end) == (where == "caller")


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("case", ["fork-fails", "child-killed"])
def test_a_split_read_that_fails_falls_back_to_the_serial_path(
        workspace, monkeypatch, capfd, case):
    tmp, data, ckpt = trained(workspace)
    serial = _scoring_outcome(tmp, monkeypatch, capfd, "serial", 1, ckpt,
                              data)
    loads = count_calls(monkeypatch, tmp, "load_checkpoint")
    parent, reads, read = os.getpid(), [], mcoc.data._read

    def counted(fh):
        if os.getpid() == parent:
            reads.append(1)
        return read(fh)

    monkeypatch.setattr("mcoc.data._read", counted)
    if case == "fork-fails":
        forks = _no_fork(monkeypatch)
    else:
        read_range = mcoc.data._read_range

        def killed_in_the_child(task):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_range(task)

        monkeypatch.setattr("mcoc.data._read_range", killed_in_the_child)
    split = _scoring_outcome(tmp, monkeypatch, capfd, "split", 2, ckpt, data)
    assert serial[0] == [0, 0] and split == serial
    # the checkpoint loads once per command, whether the caller's task ran
    # or not
    assert loads() == [parent] * 2
    if case == "fork-fails":  # before the caller's task: read whole
        assert forks and reads == [1] * 2
    else:  # the caller read its range, then the whole file
        assert reads == [1] * 4


def _drop_first_mos(record):
    if record["id"] == "bonafide0_0000":
        del record["mos"]


@pytest.mark.parametrize("train_change, test_change, overrides, message", [
    pytest.param(None, lambda r: r["features"].pop(), [],
                 "5 features per record, the training data has 6",
                 id="test-feature-count"),
    # 3 centroids do not fit a 2-d embedding; the wce arm has no bank
    pytest.param(None, None,
                 ['policy={"thresholds": [2.0, 3.5]}', "encoder.embed_dim=2"],
                 "orthogonal centroid_init", id="bank-arms-only"),
    # only the quality arms need it, and the first of them is wce_quality
    pytest.param(_drop_first_mos, None, [],
                 "record 'bonafide0_0000': wce_quality loss needs mos",
                 id="bonafide-without-mos"),
])
def test_bad_ablate_input_exits_2_before_training(workspace, capsys,
                                                   train_change, test_change,
                                                   overrides, message):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "tr")
    train_data = test_data = tmp / "tr" / "data.jsonl"
    if train_change is not None:
        train_data = tmp / "train.jsonl"
        rewrite_jsonl(test_data, train_data, train_change)
    if test_change is not None:
        test_data = tmp / "test.jsonl"
        rewrite_jsonl(train_data, test_data, test_change)
    sets = [a for o in overrides for a in ("--set", o)]
    capsys.readouterr()
    rc = run("ablate", "--config", cfg, "--data", train_data,
             "--test", test_data, *sets, "--out", tmp / "ab")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not any((tmp / "ab" / arm).exists() for arm, _, _ in ABLATION_ARMS)


def test_default_out_uses_env(workspace, monkeypatch, tmp_path):
    tmp, spec, _ = workspace
    monkeypatch.setenv("MCOC_OUT", str(tmp_path / "root"))
    assert run("gen", "--spec", spec) == 0
    assert (tmp_path / "root" / "gen" / "data.jsonl").exists()


def trained(workspace, *overrides):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    sets = [a for o in overrides for a in ("--set", o)]
    assert run("train", "--config", cfg, "--data", tmp / "data" / "data.jsonl",
               *sets, "--out", tmp / "run") == 0
    return tmp, tmp / "data" / "data.jsonl", tmp / "run" / "checkpoint.json"


@pytest.mark.parametrize("loss, strategy", [
    ("multi_centroid", "ensemble"), ("single_centroid", "ensemble"),
    ("wce", "head"), ("wce_quality", "head")])
def test_train_prints_the_eer_of_its_objectives_strategy(workspace, capsys,
                                                         loss, strategy):
    tmp, _, _ = trained(workspace, f"loss={loss}")
    with open(tmp / "run" / "metrics.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert capsys.readouterr().out.endswith(
        f"final val EER: {last[f'val_eer_{strategy}']}\n")


def _outputs(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("command", ["score", "export"])
@pytest.mark.parametrize("loss, strategy", [
    ("multi_centroid", "ensemble"), ("wce", "head"), ("wce_quality", "head")])
def test_default_strategy_is_the_one_the_loss_trained(workspace, loss,
                                                      strategy, command):
    # a wce_quality bank never learns to separate the classes, and a wce
    # checkpoint has no bank: both score with their head unless told not to
    tmp, data, ckpt = trained(workspace, f"loss={loss}")
    assert run(command, "--checkpoint", ckpt, "--data", data,
               "--out", tmp / "default") == 0
    assert run(command, "--checkpoint", ckpt, "--data", data,
               "--strategy", strategy, "--out", tmp / "given") == 0
    assert _outputs(tmp / "default") == _outputs(tmp / "given")
    manifest = json.loads((tmp / "default" / "manifest.json").read_text())
    assert manifest["resolved"]["strategy"] == strategy


@pytest.mark.parametrize("edit, strategy", [
    pytest.param(lambda d: d["metadata"].pop("loss"), "head", id="no-loss"),
    pytest.param(lambda d: d["metadata"].update(loss="mystery"), "head",
                 id="unknown-loss"),
    pytest.param(lambda d: d["metadata"].update(loss=["wce"]), "head",
                 id="list-loss"),
    pytest.param(lambda d: d["metadata"].update(loss="multi_centroid"), "head",
                 id="centroid-loss"),
    pytest.param(lambda d: d.update(head=None), "ensemble", id="no-head"),
])
def test_a_checkpoints_parts_pick_its_default_strategy(workspace, capsys,
                                                        edit, strategy):
    # the head if there is one, else the bank's ensemble, whatever loss
    # the metadata names
    tmp, data, ckpt = trained(workspace, "loss=wce_quality")
    ckpt.write_text(_edit_json(edit)(ckpt.read_text()))
    capsys.readouterr()
    assert run("score", "--checkpoint", ckpt, "--data", data,
               "--out", tmp / "sc") == 0
    assert f"(strategy={strategy}, " in capsys.readouterr().out


def test_an_explicit_strategy_wins(workspace, capsys):
    tmp, data, ckpt = trained(workspace, "loss=wce_quality")
    capsys.readouterr()
    assert run("score", "--checkpoint", ckpt, "--data", data,
               "--strategy", "max", "--out", tmp / "sc") == 0
    assert "(strategy=max, " in capsys.readouterr().out
    # a wce checkpoint has no bank, so asking for one is still a config error
    tmp, data, ckpt = trained(workspace, "loss=wce")
    assert run("score", "--checkpoint", ckpt, "--data", data,
               "--strategy", "ensemble", "--out", tmp / "sc2") == 2
    assert capsys.readouterr().err == ("config error: ensemble strategy needs "
                                       "a centroid bank\n")


def test_labeled_needs_a_centroid_per_level(workspace, capsys):
    tmp, data, ckpt = trained(workspace, "loss=single_centroid")
    # the spoof records carry no MOS, so keep the bona fide ones (both levels)
    bona = tmp / "bona.jsonl"
    bona.write_text("".join(line for line in data.read_text().splitlines(True)
                            if '"bonafide"' in line))
    rc = run("score", "--checkpoint", ckpt, "--data", bona,
             "--strategy", "labeled", "--out", tmp / "sc")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_export_empty_jsonl(workspace):
    tmp, _, ckpt = trained(workspace)
    empty = tmp / "empty.jsonl"
    empty.write_text("")
    assert run("export", "--checkpoint", ckpt, "--data", empty,
               "--out", tmp / "ex", "--bins", "5") == 0
    with open(tmp / "ex" / "histogram.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert sum(int(r["bona_count"]) + int(r["spoof_count"]) for r in rows) == 0
    with open(tmp / "ex" / "embeddings.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 0


QUOTED_IDS = ["a\rb", "a\nb", 'q"x,y', ""]


def test_ids_that_need_quoting_round_trip(workspace):
    tmp, data, ckpt = trained(workspace)
    rows = [json.loads(line) for line in data.read_text().splitlines()]
    picked = [r for r in rows if r["label"] == "bonafide"][:2] \
        + [r for r in rows if r["label"] == "spoof"][:2]
    for r, rid in zip(picked, QUOTED_IDS):
        r["id"] = rid
    quoted = tmp / "quoted.jsonl"
    quoted.write_text("".join(json.dumps(r) + "\n" for r in picked))
    assert run("score", "--checkpoint", ckpt, "--data", quoted,
               "--strategy", "ensemble", "--out", tmp / "sc") == 0
    assert read_scores_csv(tmp / "sc" / "scores.csv")[0] == QUOTED_IDS
    assert run("eval", "--scores", tmp / "sc" / "scores.csv",
               "--out", tmp / "ev") == 0
    summary = json.loads((tmp / "ev" / "summary.json").read_text())
    assert (summary["num_bonafide"], summary["num_spoof"]) == (2, 2)
    assert run("export", "--checkpoint", ckpt, "--data", quoted,
               "--out", tmp / "ex") == 0
    with open(tmp / "ex" / "embeddings.csv", encoding="utf-8",
              newline="") as fh:
        assert [r["id"] for r in csv.DictReader(fh)] == QUOTED_IDS


@pytest.mark.parametrize("loss, strategy", [("multi_centroid", "max"),
                                            ("multi_centroid", "ensemble"),
                                            ("wce", "head")])
def test_report_matches_eval(workspace, loss, strategy):
    # the scores go from score's arrays through scores.csv into eval's
    tmp, data, ckpt = trained(workspace, f"loss={loss}")
    assert run("score", "--checkpoint", ckpt, "--data", data,
               "--strategy", strategy, "--out", tmp / "sc") == 0
    assert run("eval", "--scores", tmp / "sc" / "scores.csv",
               "--out", tmp / "ev") == 0
    report = json.loads((tmp / "sc" / "report.json").read_text())
    summary = json.loads((tmp / "ev" / "summary.json").read_text())
    assert set(report["class_stats"]) == {"bonafide", "spoof"}
    assert report["class_stats"]["bonafide"]["count"] == summary["num_bonafide"]
    assert report["class_stats"]["spoof"]["count"] == summary["num_spoof"]
    assert report["eer"] == summary["eer"]


@pytest.mark.parametrize("text, message", [
    ("id,score,label\na,abc,bonafide\n", "line 2: score 'abc' is not a finite number"),
    ("id,score,label\na,0.5,bonafide\nb,nan,spoof\n",
     "line 3: score 'nan' is not a finite number"),
    ("id,score,label\na,-inf,spoof\n", "line 2: score '-inf' is not a finite number"),
    ("id,score,label\na\n", "line 2: score None is not a finite number"),
    ("id,label\na,bonafide\n", "line 1: no 'score' column"),
    ("score,label\n0.5,bonafide\n", "line 1: no 'id' column"),
    ("", "line 1: no 'id' column"),
    ("id,score,label\na,0.5,bonafide\nb,0.1,garbage\n",
     "line 3: unknown label 'garbage'"),
    ("id,score\na,0.5\nb," + "1" * 200_000 + "\n",
     "line 3: field larger than field limit (131072)"),
    # float() reads these, but none is a plain decimal literal
    ("id,score,label\na,1_0,bonafide\n", "line 2: score '1_0' is not a finite number"),
    ("id,score,label\na,0.25,spoof\nb, 0.5 ,bonafide\n",
     "line 3: score ' 0.5 ' is not a finite number"),
    ("id,score,label\na,\u0661,bonafide\n",
     "line 2: score '\u0661' is not a finite number"),
], ids=["score_abc", "score_nan", "score_inf", "short_row", "no_score_column",
        "no_id_column", "empty_file", "unknown_label", "field_over_limit",
        "score_underscore", "score_spaces", "score_non_ascii_digit"])
def test_malformed_scores_csv_exits_1(tmp_path, capsys, text, message):
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    assert run("eval", "--scores", scores, "--out", tmp_path / "ev") == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scores_csv_reads_every_plain_decimal_form(tmp_path):
    scores = tmp_path / "scores.csv"
    texts = ["7", "-0", "+3", "0.25", "-1.5e-07", "1E+16", "2e5",
             "1.7976931348623157e+308"]
    scores.write_text("id,score\n" + "".join(f"r{i},{t}\n"
                                             for i, t in enumerate(texts)))
    assert read_scores_csv(scores)[1].tolist() == list(map(float, texts))


def test_eval_skips_rows_without_a_label(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score,label\na,0.9,bonafide\nb,0.5,\nc,0.1,spoof\n")
    assert run("eval", "--scores", scores, "--out", tmp_path / "ev") == 0
    summary = json.loads((tmp_path / "ev" / "summary.json").read_text())
    assert (summary["num_bonafide"], summary["num_spoof"]) == (1, 1)


@pytest.mark.parametrize("bona, spoof, line", [
    ([1.7e308, 1.5e308], [1.6e308, 1.65e308],
     "EER 0.5000 at threshold 1.625e+308"),
    ([0.6], [0.4736], "EER 0.0000 at threshold 0.5368"),
])
def test_eval_prints_a_readable_threshold(tmp_path, capsys, bona, spoof,
                                          line):
    scores = tmp_path / "scores.csv"
    rows = [f"b{i},{s!r},bonafide" for i, s in enumerate(bona)]
    rows += [f"s{i},{s!r},spoof" for i, s in enumerate(spoof)]
    scores.write_text("id,score,label\n" + "\n".join(rows) + "\n")
    assert run("eval", "--scores", scores, "--out", tmp_path / "ev") == 0
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("bins", ["0", "-3", "10001", "1000000000000"])
def test_export_bins_below_one_exits_2_before_reading(tmp_path, capsys, bins):
    # out of [1, MAX_BINS]; the checkpoint does not exist: reading it first
    # would be exit 3
    rc = run("export", "--checkpoint", tmp_path / "none.json",
             "--data", tmp_path / "none.jsonl", "--bins", bins,
             "--out", tmp_path / "ex")
    assert rc == 2
    err = capsys.readouterr().err
    need = "at least 1" if int(bins) < 1 else f"at most {cli.MAX_BINS}"
    assert err == f"config error: --bins must be {need}, got {bins}\n"
    assert not (tmp_path / "ex").exists()


@pytest.mark.parametrize("override", [
    "batch_size=2.5", "epochs=1.5", 'seed="x"', "seed=-1", "batch_size=true",
    'centroid_init="foo"', 'optimizer.kind="foo"',
    'optimizer.lr="x"', "optimizer.lr=1e999", "optimizer.lr=1" + "0" * 400,
    "optimizer.betas=[0.9]", "optimizer.eps=0", "optimizer.momentum=1",
    'val_fraction="x"', "augment_fraction=-1", 'noise_scale="x"',
    "seed=-" + "1" * 400,
    'encoder.activation="foo"', "encoder.hidden=[0]", "encoder.embed_dim=1",
    "hyper.m0=0.1", 'hyper.lam="x"', "hyper.foo=1", "policy.num_levels=3",
    "hyper.lam=true", "policy.num_levels=true", 'policy.thresholds=["3"]',
    "policy=3", "class_weights=[1]", "class_weights=[1, 0]",
    "optimizer.lrr=1", "policy.foo=1", "encoder=[]",
    "epochs", "seed.x=1", "hyper.lam=-1",
    # a run that does not end, or a layer too large to hold
    "epochs=10001", "epochs=" + "1" * 400, "encoder.hidden=[4097]",
    "encoder.embed_dim=" + "1" * 400, "encoder.hidden=[4096,4096,4096]",
    # a policy is its thresholds alone: a num_levels or tau key is unknown
    'policy={"num_levels": 7, "thresholds": [1.5, 2, 2.5, 3, 3.5, 4]}',
    'policy={"tau": 3.0, "thresholds": [2.5]}',
    # seven orthogonal centroids do not fit in the config's 6-d embedding
    'policy={"thresholds": [1.5, 2, 2.5, 3, 3.5, 4]}',
])
def test_bad_train_config_exits_2_before_loading(workspace, capsys, override):
    tmp, _, cfg = workspace
    # the data path does not exist: a check that ran after loading would
    # give the I/O exit code instead
    rc = run("train", "--config", cfg, "--data", tmp / "absent.jsonl",
             "--set", override, "--out", tmp / "x")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert len(err.rstrip("\n")) <= 300, err


def _edit_json(change):
    def apply(text):
        d = json.loads(text)
        change(d)
        return json.dumps(d)
    return apply


def _set_bank(d, value):
    d["bank"]["weights"][0][0] = value


def _add_head(d, bias):
    d["head"] = {"weight": [0.5] * len(d["bank"]["weights"][0]), "bias": bias}


def _set_layer(d, **kw):
    d["encoder"]["layers"][0].update(kw)


def _fill_head(d, weight, bias=0.0):
    d["head"]["weight"] = [weight] * len(d["head"]["weight"])
    d["head"]["bias"] = bias


def _scale_row(d, factor):
    d["bank"]["weights"][0] = [x * factor for x in d["bank"]["weights"][0]]


WEIGHTS_2D = "must be a list of equal-length lists of finite numbers"


@pytest.mark.parametrize("damage, expected", [
    pytest.param(_edit_json(lambda d: d.update(version=1)),
                 "unsupported checkpoint version 1", id="version-1"),
    pytest.param(_edit_json(lambda d: d.update(version=3)),
                 "unsupported checkpoint version 3", id="version-3"),
    pytest.param(_edit_json(lambda d: d.update(version=True)),
                 "unsupported checkpoint version True", id="version-true"),
    pytest.param(lambda text: text[:len(text) // 2], "invalid JSON",
                 id="truncated-json"),
    pytest.param(lambda text: "[" + text + "]", "expected a JSON object",
                 id="not-an-object"),
    pytest.param(_edit_json(lambda d: [row.pop() for row in d["bank"]["weights"]]),
                 "checkpoint bank has shape (2, 5)", id="bank-dim"),
    pytest.param(_edit_json(lambda d: d.update(head={"weight": [0.5] * 5,
                                                     "bias": 0.0})),
                 "checkpoint head has shape (5,)", id="head-dim"),
    pytest.param(_edit_json(lambda d: d.pop("policy")),
                 "checkpoint: missing keys ['policy']", id="missing-part"),
    pytest.param(_edit_json(lambda d: d["policy"].update(tua=2.5)),
                 "checkpoint.policy: unknown keys ['tua']",
                 id="policy-unknown-key"),
    pytest.param(_edit_json(lambda d: d["policy"].update(num_levels=2)),
                 "checkpoint.policy: unknown keys ['num_levels']",
                 id="policy-num-levels"),
    pytest.param(_edit_json(lambda d: d["policy"].update(tau=2.5)),
                 "checkpoint.policy: unknown keys ['tau']", id="policy-tau"),
    pytest.param(_edit_json(lambda d: d.update(policy=[2.5])),
                 "checkpoint.policy must be an object, got [2.5]",
                 id="policy-not-object"),
    pytest.param(lambda text: text.replace('"bias"', '"bi\xffas"', 1),
                 "invalid JSON", id="not-utf8"),
    # every parameter value must be a finite JSON number, not coerced
    pytest.param(_edit_json(lambda d: _set_bank(d, True)),
                 f"checkpoint.bank.weights {WEIGHTS_2D}", id="bank-bool"),
    pytest.param(_edit_json(lambda d: _set_bank(d, math.inf)),
                 f"checkpoint.bank.weights {WEIGHTS_2D}", id="bank-infinity"),
    pytest.param(_edit_json(lambda d: _set_bank(d, 10 ** 400)),
                 f"checkpoint.bank.weights {WEIGHTS_2D}",
                 id="bank-int-beyond-float"),
    pytest.param(_edit_json(lambda d: _add_head(d, "0.5")),
                 "checkpoint.head.bias must be a finite number",
                 id="head-bias-string"),
    pytest.param(_edit_json(lambda d: _add_head(d, True)),
                 "checkpoint.head.bias must be a finite number",
                 id="head-bias-bool"),
    pytest.param(_edit_json(lambda d: d["encoder"]["layers"][0]["weight"][0]
                            .__setitem__(0, math.nan)),
                 f"checkpoint.encoder.layers[0].weight {WEIGHTS_2D}",
                 id="encoder-nan"),
    # every part is read through one schema and named when it is wrong
    pytest.param(_edit_json(lambda d: d.update(extra=1)),
                 "checkpoint: unknown keys ['extra']", id="unknown-key"),
    pytest.param(_edit_json(lambda d: d.update(encoder=3)),
                 "checkpoint.encoder must be an object, got 3",
                 id="encoder-not-object"),
    pytest.param(_edit_json(lambda d: d["encoder"].update(layers={})),
                 "checkpoint.encoder.layers must be a list of objects, got {}",
                 id="layers-not-list"),
    pytest.param(_edit_json(lambda d: d["encoder"].update(layers=[])),
                 "checkpoint.encoder: encoder needs at least one layer",
                 id="no-layers"),
    pytest.param(_edit_json(lambda d: _set_layer(d, activation="gelu")),
                 "checkpoint.encoder.layers[0]: activation must be one of "
                 "relu, tanh, identity, got 'gelu'", id="activation-gelu"),
    pytest.param(_edit_json(lambda d: _set_layer(d, scale=1.0)),
                 "checkpoint.encoder.layers[0]: unknown keys ['scale']",
                 id="layer-unknown-key"),
    pytest.param(_edit_json(lambda d: (_add_head(d, 0.0), d["head"].pop("bias"))),
                 "checkpoint.head: missing keys ['bias']", id="head-no-bias"),
    pytest.param(_edit_json(lambda d: d.update(hyper=5)),
                 "checkpoint.hyper must be an object, got 5",
                 id="hyper-not-object"),
    pytest.param(_edit_json(lambda d: d["hyper"].update(alpha=-1)),
                 "hyper: scales must be positive", id="hyper-alpha-negative"),
    # a checkpoint is read in full: no key falls back to a training default
    pytest.param(_edit_json(lambda d: d["hyper"].pop("alpha")),
                 "checkpoint.hyper: missing keys ['alpha']",
                 id="hyper-no-alpha"),
    pytest.param(_edit_json(lambda d: d["policy"].pop("thresholds")),
                 "checkpoint.policy: missing keys ['thresholds']",
                 id="policy-no-thresholds"),
    pytest.param(_edit_json(lambda d: d.update(hyper={})),
                 "checkpoint.hyper: missing keys ['alpha', 'm0', 'm1', 's', "
                 "'m', 'lam']", id="hyper-empty"),
    pytest.param(_edit_json(lambda d: [row.pop() for row in
                                       d["encoder"]["layers"][1]["weight"]]),
                 "checkpoint.encoder: layer dims do not chain",
                 id="layers-do-not-chain"),
    pytest.param(_edit_json(lambda d: d["encoder"]["layers"][0]["bias"].pop()),
                 "checkpoint.encoder: layer weight must be (out, in) and bias "
                 "(out,)", id="bias-length"),
    # rows of unequal length: numpy cannot stack them
    pytest.param(_edit_json(lambda d: d["bank"]["weights"][0].pop()),
                 f"checkpoint.bank.weights {WEIGHTS_2D}", id="bank-ragged-row"),
    pytest.param(_edit_json(lambda d: d["encoder"]["layers"][0]["weight"][0]
                            .pop()),
                 f"checkpoint.encoder.layers[0].weight {WEIGHTS_2D}",
                 id="layer-ragged-row"),
    pytest.param(_edit_json(lambda d: d.update(metadata=[1])),
                 "checkpoint.metadata must be an object, got [1]",
                 id="metadata-not-object"),
    pytest.param(_edit_json(lambda d: _scale_row(d, 0.0)),
                 "checkpoint.bank.weights[0] must be a row of norm 1 within "
                 "1e-09, got 0.0", id="bank-zero-row"),
    pytest.param(_edit_json(lambda d: _scale_row(d, 20.0)),
                 "checkpoint.bank.weights[0] must be a row of norm 1 within "
                 "1e-09, got 20.", id="bank-norm-20"),
    # the norm overflows to inf, with no warning line on stderr
    pytest.param(_edit_json(lambda d: _set_bank(d, 1e300)),
                 "checkpoint.bank.weights[0] must be a row of norm 1 within "
                 "1e-09, got inf", id="bank-norm-overflow"),
])
def test_bad_checkpoint_exits_2(workspace, capsys, damage, expected):
    tmp, data, ckpt = trained(workspace)
    bad = tmp / "bad.json"
    # latin-1 writes each character as one byte: "\xff" stays a lone 0xff
    bad.write_text(damage(ckpt.read_text()), encoding="latin-1")
    capsys.readouterr()
    rc = run("score", "--checkpoint", bad, "--data", data, "--out", tmp / "sc")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert expected in err


def test_labeled_on_spoof_without_mos_is_config_error(workspace, capsys):
    tmp, data, ckpt = trained(workspace)
    capsys.readouterr()
    rc = run("score", "--checkpoint", ckpt, "--data", data,
             "--strategy", "labeled", "--out", tmp / "sc")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: record 'spoof2_") and err.count("\n") == 1


@pytest.mark.parametrize("loss", ["multi_centroid", "wce_quality"])
def test_train_on_bonafide_without_mos_is_config_error(workspace, capsys, loss):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    data = tmp / "no_mos.jsonl"
    rewrite_jsonl(tmp / "data" / "data.jsonl", data, lambda r: r.pop("mos", None))
    capsys.readouterr()
    rc = run("train", "--config", cfg, "--data", data, "--set", f"loss={loss}",
             "--out", tmp / "run")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: record 'bonafide0_0000': {loss} loss")
    assert err.count("\n") == 1


@pytest.mark.parametrize("loss, code", [
    ("multi_centroid", 2), ("wce_quality", 2), ("wce", 0),
    ("single_centroid", 0),
])
def test_train_on_one_bonafide_record_without_mos(workspace, capsys, loss,
                                                  code):
    # one unrated record among rated ones; whether the seeded split puts it
    # in a training batch must not matter
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    data = tmp / "one_without_mos.jsonl"
    rewrite_jsonl(tmp / "data" / "data.jsonl", data, _drop_first_mos)
    capsys.readouterr()
    rc = run("train", "--config", cfg, "--data", data, "--set", f"loss={loss}",
             "--out", tmp / "run")
    assert rc == code
    if code:
        assert capsys.readouterr().err == (
            f"config error: record 'bonafide0_0000': {loss} loss needs mos "
            f"on bona fide records\n")


@pytest.mark.parametrize("command", ["score", "export"])
def test_feature_count_mismatch_exits_2(workspace, capsys, command):
    tmp, data, ckpt = trained(workspace)
    short = tmp / "short.jsonl"
    rewrite_jsonl(data, short, lambda r: r["features"].pop())
    capsys.readouterr()
    rc = run(command, "--checkpoint", ckpt, "--data", short, "--out", tmp / "o")
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {str(short)!r}: 5 features per record, "
                   f"the checkpoint has 6\n")


ZERO_VECTOR = "encoder produced a zero vector before normalization"
HEAD_OUT_OF_RANGE = r"binary head score \S+ is not in \[-1e\+100, 1e\+100\]"
NON_FINITE = "encoder produced a vector of non-finite norm before normalization"


@pytest.mark.parametrize("overrides, data, failure", [
    pytest.param(["encoder.hidden=[1]"], None,
                 rf"epoch \d+, batch \d+: {ZERO_VECTOR}", id="dead-hidden-layer"),
    pytest.param(["loss=wce", 'optimizer.kind="sgd-momentum"',
                  "optimizer.lr=1e9"], None,
                 r"epoch \d+, batch \d+: loss .* out of bounds", id="lr-1e9"),
    # every bias starts at zero, so a zero row in the first batch embeds to
    # the zero vector
    pytest.param([], '{"id": "a", "features": [0, 0, 0, 0, 0, 0], '
                     '"label": "spoof"}\n',
                 f"epoch 1, batch 1: {ZERO_VECTOR}", id="all-zero-features"),
    # valid values at the edge of the float range: numpy's overflow warnings
    # stay quiet, and the checks that see the non-finite values report them
    pytest.param(["epochs=2", "noise_scale=1e308"], None,
                 f"epoch 1, batch 1: {NON_FINITE}", id="noise-1e308"),
    pytest.param(["epochs=2", "optimizer.lr=1e308"], None,
                 rf"epoch 1, batch \d+: {NON_FINITE}", id="lr-1e308"),
    pytest.param(["epochs=2", "hyper.s=1e308"], None,
                 r"epoch 1, batch 1: loss inf out of bounds", id="s-1e308"),
    pytest.param(["epochs=2", "hyper.alpha=1e308"], None,
                 r"epoch 1, batch 1: loss inf out of bounds", id="alpha-1e308"),
    # one step per epoch: the blow-up first shows in the validation pass
    pytest.param(["epochs=2", "optimizer.lr=1e308", "batch_size=1000"], None,
                 f"epoch 1, validation: {NON_FINITE}", id="lr-1e308-one-step"),
    # one step makes a head of about 1e120, whose scores score would refuse
    pytest.param(["loss=wce", "encoder.hidden=[]", "optimizer.lr=1e120",
                  "epochs=1", "batch_size=10000"], None,
                 rf"epoch 1, validation: {HEAD_OUT_OF_RANGE}",
                 id="head-lr-1e120"),
    # the same head with no validation pass: train bounds the head it writes
    pytest.param(["loss=wce", "encoder.hidden=[]", "optimizer.lr=1e120",
                  "epochs=1", "batch_size=10000", "val_fraction=0"], None,
                 r"epoch 1: binary head weight norm plus \|bias\| \S+ is "
                 r"over 1e\+100, so its scores could leave "
                 r"\[-1e\+100, 1e\+100\]", id="head-lr-1e120-no-validation"),
])
def test_training_failure_exits_4(workspace, capsys, overrides, data, failure):
    tmp, spec, cfg = workspace
    path = tmp / "data" / "data.jsonl"
    if data is None:
        run("gen", "--spec", spec, "--out", tmp / "data")
    else:
        path.parent.mkdir()
        path.write_text(data)
    sets = [a for o in overrides for a in ("--set", o)]
    capsys.readouterr()
    rc = run("train", "--config", cfg, "--data", path, *sets,
             "--out", tmp / "run")
    assert rc == 4
    err = capsys.readouterr().err
    assert re.fullmatch(rf"divergence: {failure}\n", err), err


@pytest.mark.parametrize("edit, overrides", [
    pytest.param(lambda d: d.pop("clusters"), [], id="no-clusters"),
    pytest.param(None, ["clusters=3"], id="clusters-3"),
    pytest.param(None, ["clusters=[3]"], id="cluster-not-object"),
    pytest.param(None, ["dim=4.5"], id="dim-float"),
    pytest.param(lambda d: d.pop("dim"), [], id="no-dim"),
    pytest.param(lambda d: d["clusters"][0].update(count=2.5), [], id="count-float"),
    pytest.param(lambda d: d["clusters"][0].update(count="30"), [], id="count-str"),
    pytest.param(lambda d: d["clusters"][0].pop("quality_band"), [],
                 id="no-quality-band"),
    pytest.param(lambda d: d["clusters"][0]["mean"].pop(), [], id="mean-length"),
    pytest.param(lambda d: d["clusters"][0].update(mean=[True] * 6), [],
                 id="mean-bool"),
    pytest.param(lambda d: d["clusters"][0].pop("spread"), [], id="no-spread"),
    pytest.param(lambda d: d["clusters"][2].update(label="fake"), [], id="label"),
    pytest.param(None, ["seed=-1"], id="seed-negative"),
    pytest.param(None, ['policy={"num_levels": true}'], id="policy-bool"),
    pytest.param(None, ["policy=3"], id="policy-not-object"),
    pytest.param(None, ["sed=7"], id="unknown-key"),
    pytest.param(lambda d: d["clusters"][2].update(labl="spoof"), [],
                 id="unknown-cluster-key"),
    pytest.param(None, ['policy={"thresholds": [2.5], "tua": 2.5}'],
                 id="unknown-policy-key"),
    pytest.param(None, ['policy={"tau": 3.0, "thresholds": [2.5]}'],
                 id="policy-tau"),
    pytest.param(lambda d: d["clusters"][2].update(label=["spoof"]), [],
                 id="label-list"),
    pytest.param(lambda d: d["clusters"][0].update(mean=[1.7e308] * 6,
                                                   spread=1e308), [],
                 id="features-overflow"),
    # more values than memory holds: refused before any is drawn
    pytest.param(lambda d: d["clusters"][0].update(count=10**12), [],
                 id="count-huge"),
    pytest.param(lambda d: d["clusters"][2].update(quality_band="banana"), [],
                 id="spoof-quality-band"),
])
def test_bad_gen_spec_exits_2(workspace, capsys, edit, overrides):
    tmp, spec, _ = workspace
    if edit is not None:
        spec.write_text(_edit_json(edit)(spec.read_text()))
    sets = [a for o in overrides for a in ("--set", o)]
    rc = run("gen", "--spec", spec, *sets, "--out", tmp / "data")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp / "data" / "data.jsonl").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_first_layer_over_the_weight_bound_exits_2(workspace, monkeypatch,
                                                   capsys, command):
    # 5,000 features into a first layer of 4,096 are more weights than the
    # bound; refused once the data is read, before any weight is drawn
    tmp, _, cfg = workspace
    wide = tmp / "wide.jsonl"
    wide.write_text(json.dumps({"id": "a", "features": [1.0] * 5000,
                                "label": "bonafide", "mos": 4.0}) + "\n")

    def fail(*args, **kwargs):
        raise AssertionError("a weight was drawn")

    monkeypatch.setattr(training, "init_encoder", fail)
    test = ["--test", wide] if command == "ablate" else []
    rc = run(command, "--config", cfg, "--data", wide, *test,
             "--set", "encoder.hidden=[4096]", "--out", tmp / "o")
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: the first encoder layer's weights (5000 features "
        "times 4096) must be at most 16777216, got 20480000\n")


def _with_bad_byte(path, line):
    """Rewrite `path` with a 0xff byte in the id of the record on `line`."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1].replace(b'"id": "', b'"id": "\xff', 1)
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("command", ["train", "score"])
def test_jsonl_not_utf8_names_the_line(workspace, capsys, command):
    tmp, data, ckpt = trained(workspace)
    _with_bad_byte(data, 70)
    capsys.readouterr()
    if command == "train":
        _, _, cfg = workspace
        rc = run("train", "--config", cfg, "--data", data, "--out", tmp / "o")
    else:
        rc = run("score", "--checkpoint", ckpt, "--data", data,
                 "--out", tmp / "o")
    assert rc == 1
    assert capsys.readouterr().err == "error: line 70: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("command", ["train", "score", "export"])
def test_id_with_lone_surrogate_names_the_line(workspace, capsys, command):
    # the JSON escape "\udc80" is a valid JSON string but not UTF-8 text,
    # so no output file could hold the id
    tmp, data, ckpt = trained(workspace)
    lines = data.read_text().splitlines(True)
    record = json.loads(lines[0])
    record["id"] = "\udc80"
    bad = tmp / "surrogate.jsonl"
    bad.write_text("".join([json.dumps(record) + "\n", *lines[1:]]))
    assert bad.read_text().startswith('{"id": "\\udc80"')
    capsys.readouterr()
    if command == "train":
        _, _, cfg = workspace
        rc = run("train", "--config", cfg, "--data", bad, "--out", tmp / "o")
    else:
        rc = run(command, "--checkpoint", ckpt, "--data", bad,
                 "--out", tmp / "o")
    assert rc == 1
    assert capsys.readouterr().err == ("error: line 1: id '\\udc80' holds a "
                                       "lone surrogate, which is not UTF-8\n")


def test_scores_csv_not_utf8_names_the_line(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    # \r\n and a lone \r each end a line, as in text mode
    scores.write_bytes(b"id,score,label\r\na,0.5,bonafide\rb,0.1,sp\xffoof\n")
    assert run("eval", "--scores", scores, "--out", tmp_path / "ev") == 1
    assert capsys.readouterr().err == "error: line 3: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("command", ["gen", "train"])
def test_config_not_utf8_exits_2(workspace, capsys, command):
    tmp, spec, cfg = workspace
    path = spec if command == "gen" else cfg
    path.write_bytes(path.read_bytes().replace(b"{", b"{\xff", 1))
    flag = "--spec" if command == "gen" else "--config"
    extra = () if command == "gen" else ("--data", tmp / "absent.jsonl")
    rc = run(command, flag, path, *extra, "--out", tmp / "o")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


DEEP = "[" * 100_000  # nesting too deep for the JSON decoder
HUGE_INT = "1" + "0" * 5000  # over the 4,300-digit integer conversion limit


@pytest.mark.parametrize("command, text", [
    pytest.param("gen", DEEP, id="gen-deep"),
    pytest.param("train", DEEP, id="train-deep"),
    pytest.param("score", DEEP, id="score-deep"),
    pytest.param("train", HUGE_INT, id="train-huge-int"),
])
def test_undecodable_json_file_exits_2(workspace, capsys, command, text):
    tmp, data, _ = trained(workspace)
    bad = tmp / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    argv = {"gen": ["--spec", bad],
            "train": ["--config", bad, "--data", data],
            "score": ["--checkpoint", bad, "--data", data]}[command]
    rc = run(command, *argv, "--out", tmp / "o")
    assert rc == 2
    shown = re.escape(repr(str(bad)))
    assert re.fullmatch(rf"config error: {shown}: invalid JSON: .+\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("value", [pytest.param(DEEP, id="deep"),
                                   pytest.param(HUGE_INT, id="huge-int")])
def test_undecodable_set_value_is_a_string_the_config_rejects(workspace,
                                                               capsys, value):
    tmp, _, cfg = workspace
    rc = run("train", "--config", cfg, "--data", tmp / "absent.jsonl",
             "--set", f"epochs={value}", "--out", tmp / "o")
    assert rc == 2
    # the value is echoed as the first ECHO_MAX characters of its repr
    shown = f"{repr(value)[:ECHO_MAX]}… ({len(repr(value))} chars)"
    assert capsys.readouterr().err == (f"config error: epochs must be an "
                                       f"integer, got {shown}\n")


@pytest.mark.parametrize("line, cause", [
    pytest.param(DEEP, "maximum recursion depth exceeded", id="deep"),
    pytest.param('{"id": %s, "features": [0.1], "label": "spoof"}' % HUGE_INT,
                 "Exceeds the limit", id="huge-int-id"),
])
def test_undecodable_jsonl_line_names_the_line(workspace, capsys, line, cause):
    tmp, data, ckpt = trained(workspace)
    lines = data.read_text().splitlines(True)
    lines[40] = line + "\n"
    data.write_text("".join(lines))
    capsys.readouterr()
    rc = run("score", "--checkpoint", ckpt, "--data", data, "--out", tmp / "o")
    assert rc == 1
    assert re.fullmatch(rf"error: line 41: invalid JSON: {cause}.*\n",
                        capsys.readouterr().err)


def test_missing_config_file_exits_3(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    rc = run("train", "--config", cfg, "--data", tmp_path / "d.jsonl",
             "--out", tmp_path / "o")
    assert rc == 3
    assert capsys.readouterr().err == (f"io error: [Errno 2] No such file or "
                                       f"directory: {str(cfg)!r}\n")


@pytest.mark.parametrize("command, bad_id", [
    ("train", "bonafide1_0004"), ("score", "spoof2_0003"),
])
def test_mos_out_of_range_names_the_record(workspace, capsys, command, bad_id):
    tmp, data, ckpt = trained(workspace)
    bad = tmp / "bad_mos.jsonl"

    def set_mos(record):
        # every spoof record gets a MOS too, so the labeled strategy scores it
        record["mos"] = 7.0 if record["id"] == bad_id else record.get("mos", 3.0)

    rewrite_jsonl(data, bad, set_mos)
    capsys.readouterr()
    if command == "train":
        _, _, cfg = workspace
        rc = run("train", "--config", cfg, "--data", bad, "--out", tmp / "o")
    else:
        rc = run("score", "--checkpoint", ckpt, "--data", bad,
                 "--strategy", "labeled", "--out", tmp / "o")
    assert rc == 1
    assert capsys.readouterr().err == (f"error: record {bad_id!r}: mos=7.0 "
                                       f"outside [1, 5]\n")


@pytest.mark.parametrize("command", ["train", "score", "export", "ablate"])
@pytest.mark.parametrize("bad_id, augmented", [
    pytest.param("spoof2_0003", False, id="spoof"),
    pytest.param("bonafide1_0004", True, id="augmented-bonafide"),
])
def test_any_mos_out_of_range_is_rejected_at_load(workspace, capsys, command,
                                                  bad_id, augmented):
    # every MOS is checked at load, also where no level is read from it:
    # a spoof record under ensemble scoring, an augmented bona fide record
    tmp, data, ckpt = trained(workspace)
    _, _, cfg = workspace
    bad = tmp / "bad_mos.jsonl"

    def set_mos(record):
        if record["id"] == bad_id:
            record["mos"], record["augmented"] = 9.0, augmented

    rewrite_jsonl(data, bad, set_mos)
    capsys.readouterr()
    argv = {"train": ["--config", cfg, "--data", bad],
            "score": ["--checkpoint", ckpt, "--data", bad,
                      "--strategy", "ensemble"],
            "export": ["--checkpoint", ckpt, "--data", bad],
            "ablate": ["--config", cfg, "--data", data, "--test", bad]}[command]
    rc = run(command, *argv, "--out", tmp / "o")
    assert rc == 1
    assert capsys.readouterr().err == (f"error: record {bad_id!r}: mos=9.0 "
                                       f"outside [1, 5]\n")


def test_export_quality_of_a_spoof_record_is_its_labeled_level(workspace):
    tmp, data, ckpt = trained(workspace)
    rated = tmp / "rated.jsonl"
    # spoof records alternate between a low and a high MOS
    mos = {}

    def rate_spoof(record):
        if record["label"] == "spoof":
            record["mos"] = mos[record["id"]] = 2.0 if len(mos) % 2 else 4.0

    rewrite_jsonl(data, rated, rate_spoof)
    assert run("export", "--checkpoint", ckpt, "--data", rated,
               "--out", tmp / "ex") == 0
    assert run("score", "--checkpoint", ckpt, "--data", rated,
               "--strategy", "labeled", "--out", tmp / "sc") == 0
    with open(tmp / "ex" / "embeddings.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    quality = {r["id"]: r["quality"] for r in rows}
    assert {rid: quality[rid] for rid in mos} == {
        rid: "1" if m == 4.0 else "0" for rid, m in mos.items()}
    # labeled scoring reads the similarity to the centroid of that level
    E = np.array([[float(r[f"e{k}"]) for k in range(6)] for r in rows])
    bank = np.array(json.loads(ckpt.read_text())["bank"]["weights"])
    levels = np.array([int(r["quality"]) for r in rows])
    ids, scores, _ = read_scores_csv(tmp / "sc" / "scores.csv")
    assert ids == [r["id"] for r in rows]
    own = (E @ bank.T)[np.arange(len(rows)), levels]
    assert np.max(np.abs(np.array(scores) - own)) <= 1e-12


@pytest.mark.parametrize("which", ["config", "config-not-object",
                                   "checkpoint", "data"])
@pytest.mark.parametrize("folder", [pytest.param("line\nbreak", id="line-break"),
                                    pytest.param("d" * ECHO_MAX, id="long")])
def test_path_in_a_message_is_whole_on_one_line(workspace, capsys, which,
                                                folder):
    # a path is printed as its repr: escaped, and never cut, so a file under
    # a long folder is still named
    tmp, data, ckpt = trained(workspace)
    odd = tmp / folder
    odd.mkdir()
    path = odd / "named.json"
    if which == "data":
        rewrite_jsonl(data, path, lambda r: r["features"].pop())
    else:
        path.write_text("[1]" if which == "config-not-object" else "{")
    argv, what = {
        "config": (["train", "--config", path, "--data", data],
                   "invalid JSON: "),
        "config-not-object": (["train", "--config", path, "--data", data],
                              "expected a JSON object"),
        "checkpoint": (["score", "--checkpoint", path, "--data", data],
                       "invalid JSON: "),
        "data": (["score", "--checkpoint", ckpt, "--data", path],
                 "5 features per record"),
    }[which]
    capsys.readouterr()
    assert run(*argv, "--out", tmp / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {str(path)!r}: {what}")
    assert "named.json" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "score"])
@pytest.mark.parametrize("bad_id", ["a\nb", "cr\rid\x1b", "x" * 5000])
def test_record_named_in_an_error_is_one_bounded_line(workspace, capsys,
                                                      command, bad_id):
    # the id is echoed escaped and cut, so the message stays one short line
    tmp, data, ckpt = trained(workspace)
    bad = tmp / "odd_id.jsonl"

    def rename(record):
        record["mos"] = record.get("mos", 3.0)
        if record["id"] == "bonafide1_0004":
            record["id"], record["mos"] = bad_id, 7.0

    rewrite_jsonl(data, bad, rename)
    capsys.readouterr()
    if command == "train":
        _, _, cfg = workspace
        rc = run("train", "--config", cfg, "--data", bad, "--out", tmp / "o")
    else:
        rc = run("score", "--checkpoint", ckpt, "--data", bad,
                 "--strategy", "labeled", "--out", tmp / "o")
    assert rc == 1
    shown = repr(bad_id) if len(repr(bad_id)) <= ECHO_MAX else (
        f"{repr(bad_id)[:ECHO_MAX]}… ({len(repr(bad_id))} chars)")
    assert capsys.readouterr().err == (f"error: record {shown}: mos=7.0 "
                                       f"outside [1, 5]\n")

@pytest.mark.parametrize("exc, code, prefix", [
    pytest.param(ConfigError("c"), 2, "config error", id="ConfigError"),
    pytest.param(MissingQuality("q"), 2, "config error", id="MissingQuality"),
    pytest.param(FileNotFoundError(2, "No such file or directory", "s.csv"),
                 3, "io error", id="FileNotFoundError"),
    pytest.param(DivergenceDetected("d"), 4, "divergence",
                 id="DivergenceDetected"),
    pytest.param(ParseError(5, "p"), 1, "error", id="ParseError"),
    pytest.param(ZeroNorm("z"), 1, "error", id="ZeroNorm"),
    pytest.param(ScoreOutOfRange("s"), 1, "error", id="ScoreOutOfRange"),
    pytest.param(MosOutOfRange("m"), 1, "error", id="MosOutOfRange"),
    pytest.param(EmptyClass("e"), 1, "error", id="EmptyClass"),
])
def test_each_error_class_has_one_exit_code(tmp_path, monkeypatch, capsys,
                                            exc, code, prefix):
    def fail(path):
        raise exc

    monkeypatch.setattr(cli, "read_scores_csv", fail)
    assert run("eval", "--scores", tmp_path / "s.csv",
               "--out", tmp_path / "ev") == code
    assert capsys.readouterr().err == f"{prefix}: {exc}\n"


@pytest.mark.parametrize("records, val_fraction", [(1, 0.6), (3, 0.9)])
def test_empty_training_split_exits_2(workspace, capsys, records, val_fraction):
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    few = tmp / "few.jsonl"
    lines = (tmp / "data" / "data.jsonl").read_text().splitlines(True)
    few.write_text("".join(lines[:records]))
    capsys.readouterr()
    rc = run("train", "--config", cfg, "--data", few,
             "--set", f"val_fraction={val_fraction}", "--out", tmp / "run")
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: no training records: {records} of {records} go to "
        f"validation (val_fraction {val_fraction})\n")
    assert not (tmp / "run").exists()


def test_feature_norm_overflow_is_not_scored_as_zero(workspace, capsys):
    tmp, data, ckpt = trained(workspace)
    huge = tmp / "huge.jsonl"
    huge.write_text(json.dumps({"id": "h", "features": [1e200, 1e200, 0, 0, 0, 0],
                                "label": "spoof"}) + "\n")
    capsys.readouterr()
    rc = run("score", "--checkpoint", ckpt, "--data", huge, "--out", tmp / "sc")
    assert rc == 1
    assert capsys.readouterr().err == ("error: encoder produced a vector of "
                                       "non-finite norm before normalization\n")
    assert not (tmp / "sc" / "scores.csv").exists()
    # under train it is a divergence naming the epoch and the batch
    with_huge = tmp / "with_huge.jsonl"
    with_huge.write_text(data.read_text() + huge.read_text())
    _, _, cfg = workspace
    rc = run("train", "--config", cfg, "--data", with_huge,
             "--set", "val_fraction=0", "--out", tmp / "run2")
    assert rc == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"divergence: epoch 1, batch \d+: encoder produced a "
                        r"vector of non-finite norm before normalization\n", err)


@pytest.mark.parametrize("command", ["score", "export"])
@pytest.mark.parametrize("weight", [1e308, 1.7e308])
def test_head_score_out_of_range_exits_1(workspace, capsys, command, weight):
    # the scores overflow, or come near it; under pytest a numpy warning
    # would be an error, so none is raised either
    tmp, data, ckpt = trained(workspace, "loss=wce")
    ckpt.write_text(_edit_json(lambda d: _fill_head(d, weight))(
        ckpt.read_text()))
    capsys.readouterr()
    rc = run(command, "--checkpoint", ckpt, "--data", data, "--out", tmp / "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {HEAD_OUT_OF_RANGE}\n", err), err
    assert not (tmp / "o").exists()


@pytest.mark.parametrize("bias", [-1e100, 1e100])
def test_head_scores_at_the_bound_are_reported_and_exported(workspace, bias):
    tmp, data, ckpt = trained(workspace, "loss=wce")
    ckpt.write_text(_edit_json(lambda d: _fill_head(d, 0.0, bias))(
        ckpt.read_text()))
    assert run("score", "--checkpoint", ckpt, "--data", data,
               "--out", tmp / "sc") == 0
    report = _strict_json((tmp / "sc" / "report.json").read_text())
    assert report["class_stats"]["bonafide"]["mean"] == pytest.approx(-bias)
    assert run("export", "--checkpoint", ckpt, "--data", data,
               "--out", tmp / "ex") == 0
    with open(tmp / "ex" / "histogram.csv", newline="") as fh:
        assert sum(int(r["bona_count"]) + int(r["spoof_count"])
                   for r in csv.DictReader(fh)) == 90


def test_train_without_validation_has_no_val_eer(workspace, capsys):
    # no validation rows: training runs to the end and every validation EER
    # is missing, not 0
    tmp, spec, cfg = workspace
    run("gen", "--spec", spec, "--out", tmp / "data")
    capsys.readouterr()
    rc = run("train", "--config", cfg, "--data", tmp / "data" / "data.jsonl",
             "--set", "val_fraction=0", "--out", tmp / "run")
    assert rc == 0
    assert capsys.readouterr().out.endswith("final val EER: None\n")
    with open(tmp / "run" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(row[f"val_eer_{s}"] == "" for row in rows
               for s in ("ensemble", "max", "head"))
    report = json.loads((tmp / "run" / "report.json").read_text())
    assert all(e[f"val_eer_{s}"] is None for e in report["epochs"]
               for s in ("ensemble", "max", "head"))


@pytest.mark.parametrize("bona, spoof, eer, threshold", [
    ([1.7e308, 1.5e308], [1.6e308, 1.65e308], 0.5, 1.625e308),
    ([4e16], [4e16], 0.5, 4e16),
    ([-1.7976931348623157e308], [1.7976931348623157e308], 1.0, 0.0),
])
def test_eval_summary_is_strict_json_at_extreme_scores(tmp_path, bona, spoof,
                                                       eer, threshold):
    scores = tmp_path / "scores.csv"
    rows = [f"b{i},{s!r},bonafide" for i, s in enumerate(bona)]
    rows += [f"s{i},{s!r},spoof" for i, s in enumerate(spoof)]
    scores.write_text("id,score,label\n" + "\n".join(rows) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("eval", "--scores", scores, "--out", tmp_path / "ev") == 0
    summary = _strict_json((tmp_path / "ev" / "summary.json").read_text())
    assert (summary["eer"], summary["threshold"]) == (eer, threshold)


# ---- fuzzing the data and config boundary ----

_SCALARS = (st.none() | st.booleans() | st.integers(-2, 40)
            | st.floats(-10, 10) | st.sampled_from([float("nan"), 1e999])
            | st.text("ab1.-", max_size=3))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)),
    max_leaves=5)
_RECORDS = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["a", "b", "c", "d"]) | _JSON,
        "features": st.lists(st.floats(-3, 3), min_size=6, max_size=6) | _JSON,
        "label": st.sampled_from(["bonafide", "spoof"]) | _JSON,
    },
    optional={"mos": st.floats(1, 5) | _JSON, "augmented": st.booleans() | _JSON},
)
# ids that a message must escape (line breaks, other control characters)
# or cut (longer than the echo bound)
_ODD_IDS = (st.text(st.sampled_from("a\n\r\t\x00\x1b\x7f\x85\u2028"),
                    min_size=1, max_size=4)
            | st.text("ab\n\r", min_size=ECHO_MAX, max_size=3 * ECHO_MAX))
_GOOD_RECORDS = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.text("abcd", min_size=1, max_size=2) | _ODD_IDS,
            "features": st.lists(st.floats(-3, 3), min_size=6, max_size=6),
            "label": st.sampled_from(["bonafide", "spoof"]),
        },
        # a mos of 7.0 is an error that names its record
        optional={"mos": st.floats(1, 5) | st.none() | st.just(7.0),
                  "augmented": st.booleans()},
    ),
    max_size=8, unique_by=lambda r: r["id"])
_BAD_LINES = (_RECORDS.map(json.dumps) | _JSON.map(json.dumps)
              | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


@st.composite
def _lines(draw):
    """JSONL lines: valid records, and sometimes one fuzzed line among them."""
    lines = [json.dumps(r) for r in draw(_GOOD_RECORDS)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINES))
    return lines


_KEYS = ("epochs", "batch_size", "seed", "loss", "val_fraction",
         "augment_fraction", "noise_scale", "class_weights", "centroid_init",
         "hyper", "hyper.lam", "hyper.m0", "policy", "policy.num_levels",
         "policy.thresholds", "optimizer.kind", "optimizer.lr",
         "optimizer.betas", "encoder.hidden", "encoder.embed_dim", "nonsense")
_VALUES = (_JSON.map(json.dumps) | st.text("ab1", max_size=3)
           | st.text('[1a"\n\r', min_size=ECHO_MAX, max_size=4 * ECHO_MAX))
# the longest one-line message: its fixed text, a temporary path and at most
# one echoed value
_LINE_MAX = 3 * ECHO_MAX
_SETS = st.lists(st.tuples(st.sampled_from(_KEYS), _VALUES).map("=".join),
                 max_size=3)


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    spec = tmp / "spec.json"
    spec.write_text(json.dumps(tiny_spec().to_dict()))
    cfg = tmp / "train.json"
    cfg.write_text(json.dumps(tiny_train_config().to_dict()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("gen", "--spec", spec, "--out", tmp / "data") == 0
        assert run("train", "--config", cfg, "--data", tmp / "data" / "data.jsonl",
                   "--set", "epochs=1", "--out", tmp / "run") == 0
    return cfg, tmp / "run" / "checkpoint.json"


def run_quietly(*argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(*argv)
    return rc, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(lines=_lines(), sets=_SETS, strategy=st.sampled_from(STRATEGIES))
def test_fuzzed_input_gives_exit_code_and_one_line(fuzz_checkpoint, lines,
                                                    sets, strategy):
    cfg, ckpt = fuzz_checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.jsonl")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        for argv in (
            ["score", "--checkpoint", ckpt, "--data", data,
             "--strategy", strategy, "--out", os.path.join(tmp, "score")],
            ["train", "--config", cfg, "--data", data, "--set", "epochs=1",
             *[f"--set={pair}" for pair in sets], "--out", os.path.join(tmp, "run")],
        ):
            rc, err = run_quietly(*argv)
            # 4: a zero vector from the encoder (all-zero features, or a
            # dead hidden layer) stops training as a divergence
            assert rc in (0, 1, 2, 3, 4), (argv, err)
            if rc:
                assert err.count("\n") == 1 and err.endswith("\n"), err
                assert len(err) <= _LINE_MAX, err


_CELLS = (st.sampled_from(["bonafide", "spoof", "", "nan", "inf", "1e999",
                           "0.5", "-2", "abc"])
          | st.floats().map(repr)
          | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
_SCORE_ROWS = st.tuples(st.text("abc", max_size=2), st.floats(-5, 5).map(repr),
                        st.sampled_from(["bonafide", "spoof", ""])).map(list)
_HEADERS = (st.just(["id", "score", "label", "strategy"])
            | st.lists(st.sampled_from(["id", "score", "label", "strategy"])
                       | st.text("abcdeilorst", max_size=5), max_size=5))


@settings(max_examples=80, deadline=None)
@given(header=_HEADERS,
       rows=st.lists(_SCORE_ROWS | st.lists(_CELLS, max_size=5), max_size=8))
def test_fuzzed_scores_csv_gives_exit_code_and_one_line(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        scores = os.path.join(tmp, "scores.csv")
        with open(scores, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(",".join(cells) + "\n" for cells in [header, *rows]))
        rc, err = run_quietly("eval", "--scores", scores,
                              "--out", os.path.join(tmp, "ev"))
        assert rc in (0, 1, 2, 3), err
        if rc:
            assert err.count("\n") == 1 and err.endswith("\n"), err


_SPEC_KEYS = ("dim", "seed", "clusters", "policy")
_CLUSTER_KEYS = ("count", "mean", "spread", "label", "quality_band")
_POLICY_KEYS = ("thresholds",)
# copied, so that an edit never changes a value hypothesis hands out again
_SPEC_VALUES = (_JSON | st.integers(-1, 8) | st.floats(-1, 3)
                | st.sampled_from(["bonafide", "spoof", "low", "high",
                                   [1.0] * 6, [0.5, 4.0],
                                   {"thresholds": [2.0, 3.5]}])
                | st.dictionaries(st.sampled_from(
                    _POLICY_KEYS + ("tau", "num_levels", "taus")),
                                  st.integers(1, 4) | _JSON, max_size=2)
                ).map(copy.deepcopy)


@st.composite
def _gen_specs(draw):
    """The CLI tests' spec with up to four edits: a top-level or cluster key
    set (a known key or a typo), dropped, or a cluster replaced by a value
    that may not be an object."""
    spec = json.loads(json.dumps(tiny_spec().to_dict()))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["top", "cluster", "drop", "replace"]))
        clusters = spec.get("clusters")
        key_of = st.sampled_from(_CLUSTER_KEYS + ("labl", "counts"))
        if edit == "top":
            key = draw(st.sampled_from(_SPEC_KEYS + ("sed", "dims")))
            spec[key] = draw(_SPEC_VALUES)
        elif edit == "drop":
            spec.pop(draw(st.sampled_from(_SPEC_KEYS)), None)
        elif isinstance(clusters, list) and clusters:
            i = draw(st.integers(0, len(clusters) - 1))
            if edit == "replace":
                clusters[i] = draw(_SPEC_VALUES)
            elif isinstance(clusters[i], dict):
                clusters[i][draw(key_of)] = draw(_SPEC_VALUES)
    return spec


def _spoof_with_band(spec):
    """Whether a spoof cluster of the spec sets a quality band."""
    clusters = spec.get("clusters")
    return isinstance(clusters, list) and any(
        isinstance(c, dict) and c.get("label") == "spoof"
        and c.get("quality_band") is not None for c in clusters)


def _unknown_keys(spec):
    """Every key of the spec, its clusters and its policy that no
    dataclass declares."""
    unknown = set(spec) - set(_SPEC_KEYS)
    policy = spec.get("policy")
    if isinstance(policy, dict):
        unknown |= set(policy) - set(_POLICY_KEYS)
    clusters = spec.get("clusters")
    if isinstance(clusters, list):
        for c in clusters:
            if isinstance(c, dict):
                unknown |= set(c) - set(_CLUSTER_KEYS)
    return unknown


@settings(max_examples=150, deadline=None)
@given(spec=_gen_specs())
def test_fuzzed_gen_spec_exits_0_or_2(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        rc, err = run_quietly("gen", "--spec", path,
                              "--out", os.path.join(tmp, "data"))
    assert rc in (0, 2), (spec, err)
    assert err.count("\n") == (rc != 0), err
    if _unknown_keys(spec) or _spoof_with_band(spec):
        assert rc == 2, (spec, err)
