"""Test-only numerics: the two-function references that the fused helpers
in mcoc.numerics must match bit for bit, and the finite-difference
gradient that every analytic gradient is checked against."""

import numpy as np


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


def logsumexp_rows(Z: np.ndarray) -> np.ndarray:
    m = np.max(Z, axis=1, keepdims=True)
    return (m + np.log(np.sum(np.exp(Z - m), axis=1, keepdims=True)))[:, 0]


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    m = np.max(Z, axis=1, keepdims=True)
    e = np.exp(Z - m)
    return e / np.sum(e, axis=1, keepdims=True)


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


_FLOAT_MAX = np.finfo(np.float64).max


def ref_compute_eer(bona_scores, spoof_scores):
    """mcoc.scoring.compute_eer as it was written with numpy scalars, np.clip
    and np.where: the library must return the same two floats."""
    bona = np.sort(np.asarray(bona_scores, dtype=np.float64))
    spoof = np.sort(np.asarray(spoof_scores, dtype=np.float64))
    both = np.concatenate([bona, spoof])
    both.sort()
    distinct = np.empty(both.size, dtype=bool)
    distinct[0] = True
    np.not_equal(both[1:], both[:-1], out=distinct[1:])
    uniq = both[distinct]
    with np.errstate(over="ignore"):
        mids = (uniq[:-1] + uniq[1:]) / 2.0
        lo = min(uniq[0] - 1.0, np.nextafter(uniq[0], -np.inf))
        hi = max(uniq[-1] + 1.0, np.nextafter(uniq[-1], np.inf))
    mids = np.where(np.isfinite(mids), mids, uniq[:-1] / 2.0 + uniq[1:] / 2.0)
    thr = np.clip(np.concatenate([[lo], mids, [hi]]), -_FLOAT_MAX, _FLOAT_MAX)
    far = (len(spoof) - np.searchsorted(spoof, thr, side="left")) / len(spoof)
    frr = np.searchsorted(bona, thr, side="left") / len(bona)
    far[-1], frr[-1] = 0.0, 1.0
    diff = far - frr
    i = int(np.argmax(diff <= 0.0))
    if diff[i] == 0.0:
        return float(far[i]), float(thr[i])
    j = i - 1
    t = diff[j] / (diff[j] - diff[i])
    eer = far[j] + t * (far[i] - far[j])
    with np.errstate(over="ignore"):
        threshold = thr[j] + t * (thr[i] - thr[j])
        if not np.isfinite(threshold):
            threshold = (1.0 - t) * thr[j] + t * thr[i]
    return float(eer), float(threshold)
