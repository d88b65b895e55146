"""Deterministic vector math shared by every other module.

All functions operate on float64 numpy arrays and are pure; randomness only
enters through explicitly seeded generators from :func:`make_rng`.
"""

from __future__ import annotations

import numpy as np

ZERO_NORM_EPS = 1e-30


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator. Same seed, same draw sequence, any platform."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_rows(X) -> np.ndarray:
    """X as a 2-D float64 array; converted only when it is not one."""
    if isinstance(X, np.ndarray) and X.ndim == 2 and X.dtype == np.float64:
        return X
    return np.atleast_2d(np.asarray(X, dtype=np.float64))


def sigmoid(z):
    # e^{-|z|} never overflows; 1/(1+e) for z >= 0 and e/(1+e) below are
    # the same operations, bit for bit, as the two-branch stable form
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def softplus(z):
    # max(z,0) + log1p(e^{-|z|}): exact and overflow-safe for any z
    z = np.asarray(z, dtype=np.float64)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def softplus_sigmoid(z, target=None):
    """(softplus(z), sigmoid(z)) of a float64 array from one exp(-|z|), bit
    for bit the same as the two functions. With a `target` y, the first is
    the cross-entropy of logit z against y in its stable form
    max(z, 0) - z*y + log1p(e^{-|z|}) instead."""
    e = np.exp(-np.abs(z))
    first = np.maximum(z, 0.0)
    if target is not None:
        first -= z * target
    first += np.log1p(e)
    return first, np.where(z >= 0, 1.0, e) / (1.0 + e)


def logsumexp_rows(Z: np.ndarray) -> np.ndarray:
    m = np.max(Z, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(Z - m), axis=1, keepdims=True)))[:, 0]


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    m = np.max(Z, axis=1, keepdims=True)
    e = np.exp(Z - m)
    return e / np.sum(e, axis=1, keepdims=True)


def logsumexp_softmax_rows(Z: np.ndarray):
    """(logsumexp_rows(Z), softmax_rows(Z)) from one row max and one
    exp(Z - max), bit for bit the same as the two functions."""
    m = Z.max(axis=1, keepdims=True)
    e = np.exp(Z - m)
    total = np.add.reduce(e, axis=1, keepdims=True)
    lse = m + np.log(total)
    e /= total
    return lse[:, 0], e


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one component at a time."""
    x = np.array(x, dtype=np.float64)  # own a contiguous copy; we poke components in place
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = f(x)
        flat[j] = orig - h
        fm = f(x)
        flat[j] = orig
        gf[j] = (fp - fm) / (2.0 * h)
    return g
