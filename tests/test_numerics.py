import numpy as np
import pytest
from hypothesis import given, strategies as st

from mcoc.errors import DimMismatch, ZeroNorm
from mcoc.model import CentroidBank
from mcoc.numerics import (ZERO_NORM_EPS, as_rows, logsumexp_softmax_rows,
                           make_rng, softplus_sigmoid)

from numeric_reference import (finite_diff_grad, logsumexp_rows, sigmoid,
                               softmax_rows, softplus)


# One-vector reference helpers: the oracles for CentroidBank's row-wise
# renormalize and pairwise_cosines.
def unit_normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n < ZERO_NORM_EPS:
        raise ZeroNorm(f"cannot normalize vector with norm {n!r}")
    return v / n


def cosine(a, b) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1] to absorb rounding."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.clip(a @ b, -1.0, 1.0))


finite_vec = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8,
).filter(lambda v: np.linalg.norm(v) > 1e-6)


def test_unit_normalize_345():
    assert np.allclose(unit_normalize([3, 4]), [0.6, 0.8])


def test_unit_normalize_already_unit():
    assert np.allclose(unit_normalize([1, 0, 0]), [1, 0, 0])


def test_unit_normalize_zero_raises():
    with pytest.raises(ZeroNorm):
        unit_normalize([0, 0])
    with pytest.raises(ZeroNorm):
        CentroidBank(np.zeros((1, 2))).renormalize()


@given(finite_vec)
def test_unit_normalize_idempotent(v):
    u = unit_normalize(v)
    assert np.linalg.norm(unit_normalize(u) - u) < 1e-12
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    bank = CentroidBank(np.array([v], dtype=np.float64))
    bank.renormalize()
    assert np.max(np.abs(bank.weights[0] - u)) < 1e-14


def test_cosine_examples():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert cosine([1, 0], [1, 0]) == 1.0
    assert cosine([0.6, 0.8], [0.8, 0.6]) == pytest.approx(0.96, abs=1e-15)


def test_cosine_dim_mismatch():
    with pytest.raises(DimMismatch):
        cosine([1, 0], [1, 0, 0])


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    elem = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    ok = lambda v: np.linalg.norm(v) > 1e-6
    a = draw(st.lists(elem, min_size=n, max_size=n).filter(ok))
    b = draw(st.lists(elem, min_size=n, max_size=n).filter(ok))
    return a, b


@given(vector_pairs())
def test_cosine_symmetry_and_clamp(pair):
    a, b = pair
    ua, ub = unit_normalize(a), unit_normalize(b)
    assert cosine(ua, ub) == cosine(ub, ua)
    assert -1.0 <= cosine(ua, ub) <= 1.0
    pair_cos = CentroidBank(np.stack([ua, ub])).pairwise_cosines()
    assert abs(pair_cos[0] - cosine(ua, ub)) < 1e-14


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda x: float(x @ x), np.array([1.0, 2.0]))
    assert np.allclose(g, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant():
    g = finite_diff_grad(lambda x: 3.14, np.array([1.0, -2.0, 0.5]))
    assert np.all(g == 0.0)


def test_finite_diff_softplus_margin():
    # d/dx softplus(alpha*(m0 - x)) at x=m0 is -alpha*sigmoid(0) = -alpha/2
    alpha, m0 = 20.0, 0.9
    g = finite_diff_grad(lambda x: softplus(alpha * (m0 - x[0])), np.array([0.9]))
    assert abs(g[0] - (-10.0)) < 1e-4


@given(st.floats(min_value=-700, max_value=700))
def test_softplus_stable_and_consistent(z):
    v = softplus(z)
    assert np.isfinite(v) and v >= 0.0
    if abs(z) < 30:
        assert v == pytest.approx(np.log1p(np.exp(z)), rel=1e-12)
    assert sigmoid(z) == pytest.approx(1 / (1 + np.exp(-min(z, 700))), rel=1e-12)


def two_branch_sigmoid(z):
    """The stable sigmoid with one branch per sign, the bit reference."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("scale", [1e-320, 1e-8, 1.0, 30.0, 800.0, 1e300])
def test_sigmoid_matches_two_branch_bits(scale):
    z = make_rng(7).normal(size=1001) * scale
    z = np.concatenate([z, [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                            1.7e308, -1.7e308]])
    assert sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()
    assert all(sigmoid(x) == two_branch_sigmoid(x) for x in z[-8:])


EXTREMES = [0.0, -0.0, 30.0, -30.0, 745.0, -745.0, 1e308, -1e308]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def test_softplus_sigmoid_matches_the_two_functions():
    z = np.concatenate([EXTREMES, make_rng(3).normal(size=300) * 40.0])
    loss, sig = softplus_sigmoid(z)
    assert same_bits(loss, softplus(z)) and same_bits(sig, sigmoid(z))


def test_softplus_sigmoid_with_a_target_is_the_stable_cross_entropy():
    z = np.concatenate([EXTREMES * 2, make_rng(4).normal(size=300) * 40.0])
    y = np.arange(z.size) % 2  # int labels, each extreme with 0 and with 1
    loss, sig = softplus_sigmoid(z, y)
    stable = np.maximum(z, 0.0) - z * y.astype(np.float64) \
        + np.log1p(np.exp(-np.abs(z)))
    assert same_bits(loss, stable) and same_bits(sig, sigmoid(z))
    zero = softplus_sigmoid(z, np.zeros(z.size, dtype=np.int64))[0]
    assert same_bits(zero, softplus(z))


def test_logsumexp_softmax_rows_matches_the_two_functions():
    ties = np.array([[x, x, -x] for x in EXTREMES]
                    + [[x, -x, x] for x in EXTREMES]
                    + [[x, x, x] for x in EXTREMES])
    rng = make_rng(5)
    Z = np.concatenate([ties, rng.normal(size=(50, 3)) * 30.0,
                        np.round(rng.normal(size=(50, 3)))])  # ties
    with np.errstate(over="ignore"):  # 1e308 - (-1e308) in both
        lse, P = logsumexp_softmax_rows(Z)
        assert same_bits(lse, logsumexp_rows(Z))
        assert same_bits(P, softmax_rows(Z))


def test_rng_determinism():
    a = make_rng(123).normal(size=10)
    b = make_rng(123).normal(size=10)
    assert np.array_equal(a, b)


def test_as_rows_makes_a_list_one_float64_row():
    X = as_rows([1, 2, 3])
    assert X.shape == (1, 3) and X.dtype == np.float64
    assert X.tolist() == [[1.0, 2.0, 3.0]]
