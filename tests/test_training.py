import dataclasses
import json
from itertools import accumulate

import numpy as np
import pytest

from mcoc import training
from mcoc.data import (BONAFIDE, SyntheticSpec, benchmark_spec,
                       generate_synthetic)
from mcoc.errors import ConfigError, DivergenceDetected
from mcoc.model import (Checkpoint, Encoder, init_centroids, init_encoder,
                        init_head, save_checkpoint)
from mcoc.numerics import make_rng
from mcoc.scoring import BLOCK_ROWS, score_dataset
from mcoc.training import (
    LOSS_KINDS,
    OBJECTIVES,
    OPTIMIZER_KINDS,
    EncoderConfig,
    OptimizerConfig,
    TrainConfig,
    _Optimizer,
    benchmark_train_config,
    make_batches,
    train,
)


@pytest.fixture(scope="module")
def small_records():
    # 200 records, both classes
    return generate_synthetic(benchmark_spec(9)).take(np.arange(0, 600, 3))


def quick_config(**kw):
    base = dict(epochs=3, seed=0, optimizer=OptimizerConfig(lr=0.01),
                encoder=EncoderConfig(hidden=(16,), embed_dim=8))
    base.update(kw)
    return TrainConfig(**base)


def test_make_batches_sizes():
    rng = make_rng(0)
    batches = make_batches(10, 4, rng)
    assert [len(b) for b in batches] == [4, 4, 2]


def test_make_batches_seeded():
    a = make_batches(20, 6, make_rng(5))
    b = make_batches(20, 6, make_rng(5))
    assert len(a) == len(b) == 4
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_make_batches_is_one_permutation():
    # the batches are consecutive chunks of exactly one rng.permutation(n)
    # call, and the generator is left where that call leaves it
    rng, ref = make_rng(8), make_rng(8)
    batches = make_batches(23, 5, rng)
    order = ref.permutation(23)
    assert np.array_equal(np.concatenate(batches), order)
    assert np.array_equal(np.sort(order), np.arange(23))
    assert rng.bit_generator.state == ref.bit_generator.state


class _ReferenceOptimizer:
    """Per-array SGD-momentum or Adam: the loop the fused _Optimizer must
    match bit for bit. Built like _Optimizer; its `params`, the arrays the
    model trains through, are the given arrays themselves, each updated in
    place, the 0-d head bias too, and its `grads` are one array of their
    own per parameter, which the trainer fills before each step()."""

    def __init__(self, params, config):
        self.config = config
        self.params = list(params)
        self.grads = [np.zeros_like(p) for p in params]
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self):
        c = self.config
        self.t += 1
        for p, g, m, v in zip(self.params, self.grads, self.m, self.v):
            if c.kind == "sgd-momentum":
                m *= c.momentum
                m += g
                p -= c.lr * m
            else:
                b1, b2 = c.betas
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                mh = m / (1 - b1 ** self.t)
                vh = v / (1 - b2 ** self.t)
                p -= c.lr * mh / (np.sqrt(vh) + c.eps)


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_fused_optimizer_matches_reference(kind):
    # encoder weights and biases, a (2, D) centroid bank, a head weight and
    # its 0-d bias
    shapes = [(12, 6), (12,), (5, 12), (5,), (2, 5), (5,), ()]
    rng = make_rng(21)
    initial = [rng.normal(size=s) for s in shapes]
    ref = [p.copy() for p in initial]
    cfg = OptimizerConfig(kind=kind, lr=0.05)
    a, b = _Optimizer(initial, cfg), _ReferenceOptimizer(ref, cfg)
    # the fused optimizer trains copies: views of its flat buffer
    assert [p.shape for p in a.params] == shapes
    assert all(np.shares_memory(p, a.flat) for p in a.params)
    assert all(np.array_equal(p, q) for p, q in zip(a.params, initial))
    assert [g.shape for g in a.grads] == shapes
    assert all(np.shares_memory(g, a.grad) for g in a.grads)
    for step in range(25):
        grads = [rng.normal(scale=10.0 ** (step % 7 - 3), size=s) for s in shapes]
        # a transposed (non-C-contiguous) gradient must be copied into its
        # view in C order
        grads[0] = np.ascontiguousarray(grads[0].T).T
        assert not grads[0].flags.c_contiguous
        for ga, gb, g in zip(a.grads, b.grads, grads):
            ga[...] = g
            gb[...] = g
        assert np.array_equal(a.grad[:grads[0].size], grads[0].ravel())
        a.step()
        b.step()
    assert all(np.array_equal(p, q) for p, q in zip(a.params, ref))


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
@pytest.mark.parametrize("loss", LOSS_KINDS)
def test_train_with_fused_optimizer_matches_reference(small_records,
                                                      monkeypatch, loss, kind):
    last_sizes = []

    def batches(n, batch_size, rng):
        out = make_batches(n, batch_size, rng)
        last_sizes.append(len(out[-1]))
        return out

    cfg = quick_config(loss=loss, batch_size=23,
                       optimizer=OptimizerConfig(kind=kind, lr=0.01))
    monkeypatch.setattr(training, "make_batches", batches)
    report, ckpt = train(small_records, cfg)
    assert 0 < last_sizes[0] < 23  # a partial last batch
    monkeypatch.setattr(training, "_Optimizer", _ReferenceOptimizer)
    ref_report, ref_ckpt = train(small_records, cfg)
    assert ckpt.to_dict() == ref_ckpt.to_dict()
    assert report.to_dict() == ref_report.to_dict()


@pytest.mark.parametrize("loss, name", [
    ("multi_centroid", "combined_loss"), ("single_centroid", "oc_softmax_loss"),
    ("wce", "wce_loss"), ("wce_quality", "wce_quality_loss"),
])
def test_objectives_look_losses_up_by_name(small_records, monkeypatch,
                                           loss, name):
    # a wrapper installed on the module attribute (as a tracer does) must
    # see every step's loss call
    calls = []
    fn = getattr(training, name)
    monkeypatch.setattr(training, name,
                        lambda *a: calls.append(1) or fn(*a))
    train(small_records, quick_config(loss=loss, epochs=1))
    assert len(calls) == 5  # 160 training rows in batches of 32


def test_sgd_first_step():
    opt = _Optimizer([np.array([1.0, 2.0])],
                     OptimizerConfig(kind="sgd-momentum", lr=0.1, momentum=0.0))
    opt.grads[0][...] = [1.0, -2.0]
    opt.step()
    assert np.allclose(opt.params[0], [0.9, 2.2])


def test_zero_grad_no_move():
    before = np.array([1.0, 2.0])
    opt = _Optimizer([before], OptimizerConfig())
    opt.grads[0][...] = 0.0
    opt.step()
    assert np.array_equal(opt.params[0], before)


def test_adam_first_step_magnitude():
    # bias-corrected first Adam step is ~lr regardless of gradient scale
    for g in (1e-4, 1.0, 1e4):
        opt = _Optimizer([np.array([0.0])],
                         OptimizerConfig(kind="adam", lr=0.001))
        opt.grads[0][...] = g
        opt.step()
        assert abs(opt.params[0][0]) == pytest.approx(0.001, rel=1e-4)


@pytest.mark.parametrize("loss", LOSS_KINDS)
def test_train_updates_the_flat_buffer(small_records, monkeypatch, loss):
    # every trained array, the head bias too, is a view of the optimizer's
    # one parameter buffer, and in the parameter order they tile it
    made = []

    class Recording(_Optimizer):
        def __init__(self, params, config):
            super().__init__(params, config)
            made.append(self)

    monkeypatch.setattr(training, "_Optimizer", Recording)
    _, ckpt = train(small_records, quick_config(loss=loss, epochs=1))
    (opt,) = made
    arrays = [a for layer in ckpt.encoder.layers for a in (layer.weight,
                                                            layer.bias)]
    if ckpt.bank is not None:
        arrays.append(ckpt.bank.weights)
    if ckpt.head is not None:
        arrays += [ckpt.head.weight, ckpt.head.bias]
        assert ckpt.head.bias.shape == ()
    assert all(np.shares_memory(a, opt.flat) for a in arrays)
    assert all(a.flags.c_contiguous for a in arrays)
    start = opt.flat.__array_interface__["data"][0]
    offsets = [a.__array_interface__["data"][0] - start for a in arrays]
    assert offsets == list(accumulate([0] + [a.nbytes for a in arrays[:-1]]))
    assert sum(a.size for a in arrays) == opt.flat.size
    # the gradient views tile the gradient buffer in the same order
    assert [g.shape for g in opt.grads] == [a.shape for a in arrays]
    assert all(np.shares_memory(g, opt.grad) and g.flags.c_contiguous
               for g in opt.grads)
    start = opt.grad.__array_interface__["data"][0]
    offsets = [g.__array_interface__["data"][0] - start for g in opt.grads]
    assert offsets == list(accumulate([0] + [g.nbytes for g in opt.grads[:-1]]))
    assert opt.grad.size == opt.flat.size


@pytest.mark.parametrize("loss", ["wce", "wce_quality"])
def test_trained_head_bias_is_written_as_a_float(small_records, loss):
    _, ckpt = train(small_records, quick_config(loss=loss, epochs=1))
    assert type(ckpt.to_dict()["head"]["bias"]) is float


# nested objects and lists, null, non-ASCII text, escapes, and keys that
# json.dumps turns into strings
METADATA = {"nested": {"z": [1, {"b": None, "a": [[], {}]}], "y": {}},
            "text": 'naïve ✓ "q" \\ \n\t\u2028 \U0001f600', "none": None,
            "floats": [1e-300, -0.0, 1.5e300, 2.0], "bools": [True, False],
            "int_keys": {2: "b", 1: "a"}, "tuple": (1, "x"),
            "dict_after_number": [1, {"b": [2, 3], "a": 1}],
            "list_first": [[1], 2, {"z": None}]}


def json_dumps_bytes(ckpt):
    """The checkpoint as one json.dumps call writes it: the byte reference."""
    text = json.dumps(ckpt.to_dict(), sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


@pytest.mark.parametrize("loss, activation", [
    *[(loss, "relu") for loss in LOSS_KINDS], ("wce_quality", "tanh")])
def test_checkpoint_bytes_are_json_dumps(small_records, tmp_path, loss,
                                         activation):
    encoder = EncoderConfig(hidden=(16,), embed_dim=8, activation=activation)
    _, ckpt = train(small_records, quick_config(loss=loss, epochs=1,
                                                encoder=encoder))
    if loss == "single_centroid":
        assert ckpt.bank.num_centroids == 1
    if ckpt.head is not None:
        assert np.ndim(ckpt.head.bias) == 0
    path = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, path)
    assert path.read_bytes() == json_dumps_bytes(ckpt)
    ckpt.metadata = {**ckpt.metadata, **METADATA}
    save_checkpoint(ckpt, path)
    assert path.read_bytes() == json_dumps_bytes(ckpt)


@pytest.mark.parametrize("loss", OBJECTIVES)
def test_checkpoint_reads_back_its_own_dict(small_records, loss):
    # wce has no bank and the centroid arms no head: both are written null
    _, ckpt = train(small_records, quick_config(loss=loss, epochs=1))
    d = ckpt.to_dict()
    assert (d["bank"] is None) == (OBJECTIVES[loss].bank_size is None)
    assert (d["head"] is None) != OBJECTIVES[loss].has_head
    assert Checkpoint.from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_train_validates_config():
    with pytest.raises(ConfigError):
        TrainConfig(loss="nope")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer=OptimizerConfig(lr=-1.0))
    with pytest.raises(ConfigError):
        OptimizerConfig(kind="nope")


def test_epochs_and_widths_are_bounded_from_above():
    TrainConfig(epochs=training.MAX_EPOCHS)
    EncoderConfig(hidden=(training.MAX_WIDTH,), embed_dim=training.MAX_WIDTH)
    with pytest.raises(ConfigError, match="^epochs must be at most 10000, "):
        TrainConfig(epochs=training.MAX_EPOCHS + 1)
    with pytest.raises(ConfigError, match=r"^encoder\.hidden must be a list "
                                          r"of integers in \[1, 4096\]"):
        EncoderConfig(hidden=(8, training.MAX_WIDTH + 1))
    with pytest.raises(ConfigError, match=r"^encoder\.embed_dim must be an "
                                          r"integer in \[2, 4096\]"):
        EncoderConfig(embed_dim=training.MAX_WIDTH + 1)
    # the widest layer alone is at the weight bound; a second one passes it
    width = training.MAX_WIDTH
    EncoderConfig(hidden=(width // 2,) * 4, embed_dim=2)
    with pytest.raises(ConfigError, match=r"^encoder: the weights past the "
                                          r"first layer must be at most "
                                          r"16777216, got 16793600$"):
        EncoderConfig(hidden=(width, width), embed_dim=4)


def test_config_round_trip_and_unknown_keys():
    cfg = benchmark_train_config(3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    bad = cfg.to_dict()
    bad["typo_key"] = 1
    with pytest.raises(ConfigError):
        TrainConfig.from_dict(bad)


def test_train_centroids_stay_unit(small_records):
    report, ckpt = train(small_records, quick_config())
    norms = np.linalg.norm(ckpt.bank.weights, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert len(report.epochs) == 3
    assert all(np.isfinite(e.train_loss) for e in report.epochs)


def test_train_deterministic(small_records):
    _, a = train(small_records, quick_config())
    _, b = train(small_records, quick_config())
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


def test_train_single_centroid_arm(small_records):
    _, ckpt = train(small_records, quick_config(loss="single_centroid"))
    assert ckpt.bank.num_centroids == 1
    assert ckpt.head is None


def test_train_wce_arm(small_records):
    report, ckpt = train(small_records, quick_config(loss="wce"))
    assert ckpt.head is not None and ckpt.bank is None
    assert report.epochs[-1].val_eer_head is not None
    assert report.epochs[-1].val_eer_ensemble is None


def test_train_wce_quality_arm(small_records):
    _, ckpt = train(small_records, quick_config(loss="wce_quality"))
    assert ckpt.head is not None and ckpt.bank is not None


def test_train_divergence_detected(small_records):
    # margin losses are bounded; the wce arm can blow past the limit
    cfg = quick_config(loss="wce",
                       optimizer=OptimizerConfig(kind="sgd-momentum", lr=1e9),
                       epochs=5)
    with pytest.raises(DivergenceDetected,
                       match=r"^epoch \d+, batch \d+: loss .* out of bounds$"):
        train(small_records, cfg)


def test_train_reports_centroid_cosine(small_records):
    report, _ = train(small_records, quick_config())
    assert all(-1.0 <= e.centroid_cosine <= 1.0 for e in report.epochs)


def test_report_csv_columns(tmp_path, small_records):
    report, _ = train(small_records, quick_config())
    path = tmp_path / "metrics.csv"
    report.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["epoch", "train_loss", "loss_one_class"]
    assert len(path.read_text().splitlines()) == 4


def test_training_memory_is_bounded_by_the_batch_and_the_block(monkeypatch):
    # 1,500 records, 600 of them validation rows: every forward encodes one
    # batch or one scoring block, so no call grows with the data
    spec = benchmark_spec(4)
    spec = SyntheticSpec(dim=spec.dim, seed=spec.seed, clusters=tuple(
        dataclasses.replace(c, count=375) for c in spec.clusters))
    records = generate_synthetic(spec)
    rows, steps = [], []
    forward, make_batches = Encoder.forward, training.make_batches

    def counted_forward(self, X):
        rows.append(len(X))
        return forward(self, X)

    def counted_batches(*args):
        batches = make_batches(*args)
        steps.extend(batches)
        return batches

    monkeypatch.setattr(Encoder, "forward", counted_forward)
    monkeypatch.setattr(training, "make_batches", counted_batches)
    cfg = quick_config(epochs=1, batch_size=32, val_fraction=0.4)
    train(records, cfg)
    assert len(records) == 1500
    assert max(rows) <= max(cfg.batch_size, BLOCK_ROWS)
    assert rows[:len(steps)] == [len(idx) for idx in steps]
    assert rows[len(steps):] == [256, 256, 88]


def test_validation_eers_are_the_eers_of_score_dataset():
    # 260 rows: a full block and a short one at the wide shapes, where a
    # short block's products may differ in the last bits from one larger
    # product; validation embeds as scoring does, so the EERs are the same
    val = generate_synthetic(benchmark_spec(9)).take(np.arange(0, 520, 2))
    rng = make_rng(5)
    encoder = init_encoder(val.X.shape[1], (256, 256), 16, rng)
    bank, head = init_centroids(2, 16, "orthogonal", rng), init_head(16, rng)
    assert len(val) == BLOCK_ROWS + 4
    expected = tuple(score_dataset(val, encoder, bank, strategy, head=head).eer
                     for strategy in ("ensemble", "max", "head"))
    assert training._val_eers(encoder, bank, head, val,
                              val.y == BONAFIDE) == expected
