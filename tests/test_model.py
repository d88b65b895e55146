import warnings
from itertools import accumulate

import numpy as np
import pytest

from mcoc.errors import ConfigError, DimMismatch, ZeroNorm
from mcoc.model import (
    CentroidBank,
    Checkpoint,
    Encoder,
    Layer,
    init_centroids,
    init_encoder,
    init_head,
    load_checkpoint,
    save_checkpoint,
)
from mcoc.data import QualityPolicy
from mcoc.losses import LossHyper
from mcoc.numerics import make_rng

from numeric_reference import finite_diff_grad


def encode(encoder, features):
    """One record through Encoder.forward."""
    emb, _ = encoder.forward(np.asarray(features, dtype=np.float64)[None, :])
    return emb[0]


def identity_encoder(dim):
    return Encoder([Layer(np.eye(dim), np.zeros(dim), "identity")])


def test_encode_normalizes_only():
    enc = identity_encoder(2)
    assert np.allclose(encode(enc, [3.0, 4.0]), [0.6, 0.8])


def test_encode_zero_output_raises():
    enc = Encoder([Layer(np.zeros((2, 2)), np.zeros(2), "identity")])
    with pytest.raises(ZeroNorm):
        encode(enc, [1.0, 1.0])


@pytest.mark.parametrize("features", [[1e200, 1e200], [1e308, -1e308]])
def test_encode_non_finite_norm_raises(features):
    # the norm of [1e200, 1e200] overflows; Z of [1e308, -1e308] under this
    # layer is inf - inf
    enc = Encoder([Layer(np.array([[1.0, 0.0], [1.0, -1.0]]), np.zeros(2),
                         "identity")])
    with warnings.catch_warnings(), pytest.raises(ZeroNorm, match="non-finite"):
        warnings.simplefilter("error")  # no overflow warning on the way
        encode(enc, features)


def test_encode_dim_mismatch():
    enc = identity_encoder(2)
    with pytest.raises(DimMismatch):
        encode(enc, [1.0, 2.0, 3.0])


def test_encode_deterministic():
    a = encode(init_encoder(4, (8,), 3, make_rng(0)), [1, 2, 3, 4])
    b = encode(init_encoder(4, (8,), 3, make_rng(0)), [1, 2, 3, 4])
    assert np.array_equal(a, b)


def test_encode_output_unit_norm():
    enc = init_encoder(5, (16, 16), 8, make_rng(3))
    emb, _ = enc.forward(make_rng(4).normal(size=(20, 5)))
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)


def test_backward_matches_finite_differences():
    rng = make_rng(11)
    enc = init_encoder(4, (6,), 5, rng, activation="tanh")
    X = rng.normal(size=(3, 4))
    C = rng.normal(size=(3, 5))
    _, cache = enc.forward(X)
    param_grads, grad_in = enc.backward(cache, C)

    def objective_for(li, which):
        layer = enc.layers[li]

        def f(arr):
            saved = (layer.weight, layer.bias)
            if which == "w":
                layer.weight = arr
            else:
                layer.bias = arr
            emb, _ = enc.forward(X)
            layer.weight, layer.bias = saved
            return float(np.sum(C * emb))

        return f

    for li, (gw, gb) in enumerate(param_grads):
        fw = finite_diff_grad(objective_for(li, "w"), enc.layers[li].weight)
        fb = finite_diff_grad(objective_for(li, "b"), enc.layers[li].bias)
        assert np.linalg.norm(gw - fw) / max(np.linalg.norm(fw), 1e-8) < 1e-4
        assert np.linalg.norm(gb - fb) / max(np.linalg.norm(fb), 1e-8) < 1e-4
    fi = finite_diff_grad(lambda XX: float(np.sum(C * enc.forward(XX)[0])), X)
    assert np.linalg.norm(grad_in - fi) / np.linalg.norm(fi) < 1e-4


def test_backward_zero_grad_gives_zero():
    enc = init_encoder(3, (4,), 3, make_rng(1), activation="tanh")
    X = make_rng(2).normal(size=(2, 3))
    _, cache = enc.forward(X)
    param_grads, grad_in = enc.backward(cache, np.zeros((2, 3)))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in param_grads)
    assert np.all(grad_in == 0)


def test_normalization_kills_radial_gradient():
    enc = identity_encoder(2)
    emb, cache = enc.forward(np.array([[3.0, 4.0]]))
    _, grad_in = enc.backward(cache, 2.5 * emb)  # gradient parallel to output
    assert np.allclose(grad_in, 0.0, atol=1e-15)


def test_init_centroids_orthogonal():
    bank = init_centroids(2, 8, "orthogonal", make_rng(0))
    assert abs(bank.weights[0] @ bank.weights[1]) < 1e-12
    assert np.allclose(np.linalg.norm(bank.weights, axis=1), 1.0, atol=1e-12)


def test_init_centroids_single():
    bank = init_centroids(1, 4, "orthogonal", make_rng(0))
    assert bank.weights.shape == (1, 4)
    assert abs(np.linalg.norm(bank.weights[0]) - 1.0) < 1e-12


def test_init_centroids_random_unit_deterministic():
    a = init_centroids(3, 5, "random-unit", make_rng(7))
    b = init_centroids(3, 5, "random-unit", make_rng(7))
    assert np.array_equal(a.weights, b.weights)


def test_init_centroids_bad_scheme():
    with pytest.raises(ConfigError):
        init_centroids(2, 4, "banana", make_rng(0))
    with pytest.raises(ConfigError):
        init_centroids(5, 4, "orthogonal", make_rng(0))


def test_renormalize():
    bank = CentroidBank(np.array([[3.0, 4.0], [0.0, 2.0]]))
    bank.renormalize()
    assert np.allclose(np.linalg.norm(bank.weights, axis=1), 1.0, atol=1e-12)


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = make_rng(5)
    enc = init_encoder(4, (8,), 6, rng)
    ckpt = Checkpoint(
        encoder=enc,
        bank=init_centroids(2, 6, "orthogonal", rng),
        head=init_head(6, rng),
        policy=QualityPolicy(),
        hyper=LossHyper(alpha=20.0),
        metadata={"seed": 5},
    )
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    X = rng.normal(size=(10, 4))
    a, _ = ckpt.encoder.forward(X)
    b, _ = back.encoder.forward(X)
    assert np.array_equal(a, b)
    assert np.array_equal(ckpt.bank.weights, back.bank.weights)
    assert np.array_equal(ckpt.head.weight, back.head.weight)
    # saving the reload reproduces the file byte for byte
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _reference_pass(encoder, X, G):
    """Forward and backward written with the plain numpy calls: np.linalg.norm,
    float masks, `A @ W.T + b` and a `* 1.0` for the identity layer. The
    encoder must match it bit for bit."""
    acts, pre, A = [X], [], X
    for layer in encoder.layers:
        Z = A @ layer.weight.T + layer.bias
        if layer.activation == "relu":
            A = np.maximum(Z, 0.0)
        elif layer.activation == "tanh":
            A = np.tanh(Z)
        else:
            A = Z
        pre.append(Z)
        acts.append(A)
    norms = np.linalg.norm(A, axis=1)
    Xhat = A / norms[:, None]
    GV = (G - np.sum(G * Xhat, axis=1, keepdims=True) * Xhat) / norms[:, None]
    grads = []
    for li in range(len(encoder.layers) - 1, -1, -1):
        layer = encoder.layers[li]
        if layer.activation == "relu":
            dact = (pre[li] > 0.0).astype(np.float64)
        elif layer.activation == "tanh":
            dact = 1.0 - acts[li + 1] * acts[li + 1]
        else:
            dact = np.ones_like(pre[li])
        GZ = GV * dact
        grads = [GZ.T @ acts[li], GZ.sum(axis=0)] + grads
        GV = GZ @ layer.weight
    return Xhat, norms, grads, GV


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_encoder_pass_matches_reference_bits(activation):
    rng = make_rng(11)
    enc = init_encoder(6, (9, 7), 5, rng, activation=activation)
    for scale in (1e-3, 1.0, 1e150):
        X = rng.normal(size=(33, 6)) * scale
        G = rng.normal(size=(33, 5))
        emb, cache = enc.forward(X)
        param_grads, grad_in = enc.backward(cache, G)
        ref_emb, ref_norms, ref_grads, ref_in = _reference_pass(enc, X, G)
        assert cache[1].tobytes() == ref_norms.tobytes()
        assert emb.tobytes() == ref_emb.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip([g for pair in param_grads for g in pair], ref_grads))
        assert grad_in.tobytes() == ref_in.tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_backward_into_buffer_matches_fresh_bits(activation):
    # at wide shapes, for a full and a partial batch, the gradients that
    # backward writes into views of one flat buffer are the bits of the
    # arrays it returns without them; the cache is only read
    rng = make_rng(12)
    enc = init_encoder(64, (256, 256), 32, rng, activation=activation)
    shapes = [a.shape for layer in enc.layers for a in (layer.weight, layer.bias)]
    ends = list(accumulate(int(np.prod(s)) for s in shapes))
    buffer = np.empty(ends[-1])
    views = [buffer[i:j].reshape(s)
             for s, i, j in zip(shapes, [0] + ends[:-1], ends)]
    out = list(zip(views[0::2], views[1::2]))
    for rows in (256, 100):
        X = rng.normal(size=(rows, 64))
        G = rng.normal(size=(rows, 32))
        _, cache = enc.forward(X)
        acts, norms, Xhat = cache
        before = [a.tobytes() for a in (*acts, norms, Xhat)]
        fresh, grad_in = enc.backward(cache, G)
        assert grad_in.shape == X.shape
        buffer.fill(np.nan)  # a gradient left unwritten shows as NaN
        written, no_input = enc.backward(cache, G, out)
        assert no_input is None
        assert all(w is v for pw, pv in zip(written, out)
                   for w, v in zip(pw, pv))
        assert ([g.tobytes() for pair in fresh for g in pair]
                == [v.tobytes() for v in views])
        assert [a.tobytes() for a in (*acts, norms, Xhat)] == before


def test_forward_norms_are_linalg_norms():
    # rows spanning tiny to huge magnitudes, through the identity encoder
    V = make_rng(4).normal(size=(40, 3)) * np.logspace(-25, 150, 40)[:, None]
    _, (_, norms, _) = identity_encoder(3).forward(V)
    assert norms.tobytes() == np.linalg.norm(V, axis=1).tobytes()
    bank = CentroidBank(V.copy())
    expected = V / np.linalg.norm(V, axis=1, keepdims=True)
    bank.renormalize()
    assert bank.weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad_row, message", [
    ([0.0, 0.0], "encoder produced a zero vector before normalization"),
    ([1e200, 1e200], "encoder produced a vector of non-finite norm "
                     "before normalization"),
])
def test_one_bad_row_in_a_batch_raises(bad_row, message):
    X = np.array([[3.0, 4.0], bad_row, [1.0, 0.0]])
    with pytest.raises(ZeroNorm) as info:
        identity_encoder(2).forward(X)
    assert str(info.value) == message



@pytest.mark.parametrize("X", [
    [[3.0, 4.0], [0.0, 0.0], [1e200, 1e200]],  # zero row before overflow
    [[1e200, 1e200], [3.0, 4.0], [0.0, 0.0]],  # overflowing row first
    [[np.nan, 1.0], [0.0, 0.0]],  # a NaN norm beside a zero one
])
def test_zero_row_is_named_before_a_non_finite_one(X):
    # the one range check fails; the search that follows names the zero row
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and warns of no overflow on the way
        with pytest.raises(ZeroNorm) as info:
            identity_encoder(2).forward(np.array(X))
    assert str(info.value) == ("encoder produced a zero vector before "
                               "normalization")


def test_nan_row_is_a_non_finite_norm():
    with pytest.raises(ZeroNorm) as info:
        identity_encoder(2).forward(np.array([[3.0, 4.0], [np.nan, 1.0]]))
    assert str(info.value) == ("encoder produced a vector of non-finite norm "
                               "before normalization")


def test_zero_centroid_row_is_a_collapse():
    bank = CentroidBank(np.array([[0.6, 0.8], [0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ZeroNorm) as info:
        bank.renormalize()
    assert str(info.value) == "centroid collapsed to the zero vector"


def test_nan_centroid_row_is_not_a_collapse():
    # as before the range check: a NaN norm passes and gives a NaN row
    bank = CentroidBank(np.array([[0.6, 0.8], [np.nan, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bank.renormalize()
    assert np.isnan(bank.weights[1]).all()
    assert bank.weights[0].tolist() == [0.6, 0.8]

def test_pairwise_cosines_upper_triangle_order():
    W = make_rng(6).normal(size=(4, 5))
    bank = CentroidBank(W / np.linalg.norm(W, axis=1, keepdims=True))
    sims = np.clip(bank.weights @ bank.weights.T, -1.0, 1.0)
    expected = [sims[i, j] for i in range(4) for j in range(i + 1, 4)]
    assert bank.pairwise_cosines().tolist() == expected
    assert CentroidBank(bank.weights[:1]).pairwise_cosines().shape == (0,)


def test_backward_rejects_a_gradient_of_the_wrong_shape():
    enc = init_encoder(4, (5,), 3, make_rng(0), "tanh")
    _, cache = enc.forward(make_rng(1).normal(size=(2, 4)))
    with pytest.raises(DimMismatch, match=r"grad shape \(2, 4\) != \(2, 3\)"):
        enc.backward(cache, np.ones((2, 4)))


@pytest.mark.parametrize("num_centroids, dim", [(0, 4), (2, 1)])
def test_init_centroids_needs_a_centroid_and_two_dimensions(num_centroids, dim):
    with pytest.raises(ValueError, match="num_centroids >= 1 and dim >= 2"):
        init_centroids(num_centroids, dim, "random-unit", make_rng(0))
