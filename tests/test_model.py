import warnings

import numpy as np
import pytest

from mcoc.errors import DimMismatch, InvalidScheme, ZeroNorm
from mcoc.model import (
    BinaryHead,
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
from mcoc.numerics import finite_diff_grad, make_rng


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
    with pytest.raises(InvalidScheme):
        init_centroids(2, 4, "banana", make_rng(0))
    with pytest.raises(InvalidScheme):
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
        hyper={"alpha": 20.0},
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
