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


def softplus_sigmoid(z, target=None):
    """(softplus(z), sigmoid(z)) of a float64 array from one exp(-|z|): the
    bits of the stable forms max(z, 0) + log1p(e^{-|z|}) and, by sign,
    1/(1+e^{-|z|}) or e^{-|z|}/(1+e^{-|z|}). With a `target` y, the first is
    the cross-entropy of logit z against y in its stable form
    max(z, 0) - z*y + log1p(e^{-|z|}) instead."""
    e = np.exp(-np.abs(z))
    first = np.maximum(z, 0.0)
    if target is not None:
        first -= z * target
    first += np.log1p(e)
    return first, np.where(z >= 0, 1.0, e) / (1.0 + e)


def logsumexp_softmax_rows(Z: np.ndarray):
    """(logsumexp, softmax) of each row of Z from one row max m and one
    exp(Z - m): the bits of m + log(sum(exp(Z - m))) and
    exp(Z - m) / sum(exp(Z - m)) computed apart."""
    m = np.maximum.reduce(Z, axis=1, keepdims=True)
    e = np.exp(Z - m)
    total = np.add.reduce(e, axis=1, keepdims=True)
    lse = m + np.log(total)
    e /= total
    return lse[:, 0], e
