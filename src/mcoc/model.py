"""Learnable pieces: feed-forward encoder with manual backprop, centroid bank,
binary head for the cross-entropy baseline, and JSON checkpoints.

The encoder output is always unit-normalized; the normalization Jacobian
(I - xx^T)/||v|| is part of the backward pass here, so loss gradients can be
taken against raw dot products downstream.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .data import QualityPolicy
from .errors import (ConfigError, DimMismatch, ZeroNorm, echo, from_dict,
                     is_int, load_json, require)
from .losses import LossHyper
from .numerics import ZERO_NORM_EPS, as_rows

ACTIVATIONS = ("relu", "tanh", "identity")


def _act(name, Z):
    """The activation of Z, written over Z: a layer's pre-activation is
    read by nothing else, so it is not kept."""
    if name == "relu":
        np.maximum(Z, 0.0, out=Z)
    elif name == "tanh":
        np.tanh(Z, out=Z)
    return Z


def _act_grad(name, A):
    """The activation's derivative from its output A, as a factor of the
    incoming gradient: the bool mask A > 0, that is Z > 0, for relu
    (multiplying by it is multiplying by 1.0 or 0.0), None for identity."""
    if name == "relu":
        return A > 0.0
    if name == "tanh":
        return 1.0 - A * A
    return None


def _row_norms(V, keepdims=False):
    """L2 norm of each row: the sum np.linalg.norm(V, axis=1) takes, bit
    for bit, without its argument handling."""
    return np.sqrt(np.add.reduce(V * V, axis=1, keepdims=keepdims))


@dataclass
class Layer:
    weight: np.ndarray = field(metadata={"ndim": 2})  # (out, in)
    bias: np.ndarray = field(metadata={"ndim": 1})  # (out,)
    activation: str

    def __post_init__(self):
        require(self.activation in ACTIVATIONS, "activation", self.activation,
                f"one of {', '.join(ACTIVATIONS)}")


@dataclass(eq=False)  # compared and hashed by identity
class Encoder:
    """Small dense network; forward returns unit rows, backward is exact."""

    layers: list = field(metadata={"many": Layer})

    def __post_init__(self):
        self.layers = list(self.layers)
        if not self.layers:
            raise DimMismatch("encoder needs at least one layer")
        for layer in self.layers:
            if layer.weight.ndim != 2 or layer.bias.shape != layer.weight.shape[:1]:
                raise DimMismatch("layer weight must be (out, in) and bias (out,)")
        for a, b in zip(self.layers, self.layers[1:]):
            if b.weight.shape[1] != a.weight.shape[0]:
                raise DimMismatch("layer dims do not chain")

    @property
    def input_dim(self):
        return self.layers[0].weight.shape[1]

    @property
    def embed_dim(self):
        return self.layers[-1].weight.shape[0]

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite norm is checked
    def forward(self, X: np.ndarray):
        """Returns (embeddings, cache). X is (N, input_dim); rows of the
        output have unit norm. A row whose norm before normalization is
        (near) zero or not finite has no direction and raises ZeroNorm."""
        X = as_rows(X)
        if X.shape[1] != self.input_dim:
            raise DimMismatch(f"input dim {X.shape[1]} != {self.input_dim}")
        acts = [X]
        A = X
        for layer in self.layers:
            A = A @ layer.weight.T
            A += layer.bias
            A = _act(layer.activation, A)
            acts.append(A)
        V = acts[-1]
        norms = _row_norms(V)
        # one range check passes every good batch, and no batch with a NaN
        # norm; only a batch that fails it is searched, zero norms first
        if not (np.minimum.reduce(norms, initial=np.inf) >= ZERO_NORM_EPS
                and np.maximum.reduce(norms, initial=0.0) < np.inf):
            if (norms < ZERO_NORM_EPS).any():
                raise ZeroNorm("encoder produced a zero vector before "
                               "normalization")
            if not np.isfinite(norms).all():
                raise ZeroNorm("encoder produced a vector of non-finite norm "
                               "before normalization")
        Xhat = V / norms[:, None]
        cache = (acts, norms, Xhat)
        return Xhat, cache

    def backward(self, cache, grad_embed: np.ndarray, out=None):
        """Reverse-mode gradients for all parameters and the input.

        Returns (param_grads, grad_input) where param_grads is a list of
        (grad_weight, grad_bias) matching self.layers. Given `out`, such a
        list of arrays (a trainer's views of its gradient buffer), the
        gradients are written into those arrays, which param_grads then
        holds, and the input gradient, which no trainer reads, is not
        computed: grad_input is None. The gradients have the same bits
        either way. The cache is only read.
        """
        acts, norms, Xhat = cache
        G = as_rows(grad_embed)
        if G.shape != Xhat.shape:
            raise DimMismatch(f"grad shape {G.shape} != {Xhat.shape}")
        # through x = v/||v||: g_v = (g - (g.x)x)/||v||
        radial = np.add.reduce(G * Xhat, axis=1, keepdims=True)
        GV = (G - radial * Xhat) / norms[:, None]
        param_grads = [None] * len(self.layers)
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            dact = _act_grad(layer.activation, acts[li + 1])
            # GV is this pass's own array, so the factor goes in place
            GZ = GV if dact is None else np.multiply(GV, dact, out=GV)
            gw, gb = (None, None) if out is None else out[li]
            param_grads[li] = (np.matmul(GZ.T, acts[li], out=gw),
                               np.add.reduce(GZ, axis=0, out=gb))
            if li or out is None:
                GV = GZ @ layer.weight
        return param_grads, (GV if out is None else None)


def init_encoder(input_dim, hidden, embed_dim, rng,
                 activation: str = "relu") -> Encoder:
    """He-style initialization; hidden is a sequence of layer widths."""
    dims = [input_dim] + list(hidden) + [embed_dim]
    layers = []
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        last = i == len(dims) - 2
        act = "identity" if last else activation
        scale = np.sqrt(2.0 / din) if act == "relu" else np.sqrt(1.0 / din)
        layers.append(
            Layer(
                weight=rng.normal(0.0, scale, size=(dout, din)),
                bias=np.zeros(dout),
                activation=act,
            )
        )
    return Encoder(layers)


@dataclass
class CentroidBank:
    """Q learnable unit-norm centroid rows, one per quality level."""

    weights: np.ndarray = field(metadata={"ndim": 2})  # (Q, D)

    @property
    def num_centroids(self):
        return self.weights.shape[0]

    def renormalize(self):
        norms = _row_norms(self.weights, keepdims=True)
        # one check passes a good bank; only a bank that fails it is
        # searched, as a NaN norm fails it too but is not a collapse
        lowest = np.minimum.reduce(norms, axis=None, initial=np.inf)
        if not lowest >= ZERO_NORM_EPS and (norms < ZERO_NORM_EPS).any():
            raise ZeroNorm("centroid collapsed to the zero vector")
        self.weights /= norms

    def similarities(self, embeddings: np.ndarray) -> np.ndarray:
        return np.atleast_2d(embeddings) @ self.weights.T

    def pairwise_cosines(self):
        """Upper-triangle cosines between centroid rows; empty for Q=1."""
        level = np.arange(self.num_centroids)
        # the cells above the diagonal, row by row, as np.triu_indices(Q, 1)
        # lists them, by a mask that costs a tenth as much to build
        upper = level[:, None] < level
        return np.clip((self.weights @ self.weights.T)[upper], -1.0, 1.0)


CENTROID_INITS = ("orthogonal", "random-unit")


def init_centroids(num_centroids, dim, scheme, rng) -> CentroidBank:
    """'orthogonal': mutually orthogonal unit rows (needs Q <= D).
    'random-unit': independent Gaussian rows, normalized."""
    if num_centroids < 1 or dim < 2:
        raise ValueError("need num_centroids >= 1 and dim >= 2")
    if scheme == "random-unit":
        W = rng.normal(size=(num_centroids, dim))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
    elif scheme == "orthogonal":
        if num_centroids > dim:
            raise ConfigError("orthogonal scheme needs Q <= D")
        G = rng.normal(size=(dim, dim))
        Qm, _ = np.linalg.qr(G)
        W = Qm[:, :num_centroids].T.copy()
    else:
        raise ConfigError(f"unknown scheme {echo(scheme)}")
    return CentroidBank(weights=W)


@dataclass
class BinaryHead:
    """Single logit over the embedding; positive logit means spoof."""

    weight: np.ndarray = field(metadata={"ndim": 1})  # (D,)
    # a 0-d array when loaded, and as train's view of the optimizer's buffer
    bias: float = field(metadata={"ndim": 0})

    def logits(self, embeddings: np.ndarray) -> np.ndarray:
        return np.atleast_2d(embeddings) @ self.weight + self.bias


def init_head(dim, rng) -> BinaryHead:
    return BinaryHead(weight=rng.normal(0.0, np.sqrt(1.0 / dim), size=dim), bias=0.0)


CHECKPOINT_VERSION = 2


# how far a loaded centroid row's norm may be from 1; renormalize leaves
# rows within a few ulps of it
UNIT_NORM_TOL = 1e-9


@dataclass
class Checkpoint:
    encoder: Encoder = field(metadata={"section": Encoder})
    bank: Optional[CentroidBank] = field(
        metadata={"section": CentroidBank, "optional": True})
    head: Optional[BinaryHead] = field(
        metadata={"section": BinaryHead, "optional": True})
    # a checkpoint writes every key, so none is left to a training default
    policy: QualityPolicy = field(
        metadata={"section": QualityPolicy, "complete": True})
    hyper: LossHyper = field(metadata={"section": LossHyper, "complete": True})
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        require(isinstance(self.metadata, dict), "checkpoint.metadata",
                self.metadata, "an object")

    def to_dict(self):
        """The JSON object from_dict reads; an array (a 0-d head bias too)
        is written as its tolist()."""
        parts = asdict(self, dict_factory=lambda items: {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in items})
        return {"version": CHECKPOINT_VERSION, **parts}

    @classmethod
    @np.errstate(over="ignore")  # a row norm that overflows is inf: rejected
    def from_dict(cls, d):
        """Built by errors.from_dict, so a missing, unknown or malformed
        part (a parameter that is not finite JSON numbers, or a policy or
        hyper key left out, among them) is a ConfigError naming it; so are
        another version, a bank or head whose dimension is not the
        encoder's, and a centroid row that is not of unit norm within
        UNIT_NORM_TOL."""
        version = d.get("version") if isinstance(d, dict) else None
        # is_int: JSON true equals 1 in Python but is not a version
        if not is_int(version) or version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {echo(version)}")
        try:
            ckpt = from_dict(cls, {k: v for k, v in d.items() if k != "version"},
                             "checkpoint")
        except DimMismatch as exc:  # only Encoder checks dimensions
            raise ConfigError(f"checkpoint.encoder: {exc}") from exc
        D = ckpt.encoder.embed_dim
        if ckpt.bank is not None:
            W = ckpt.bank.weights
            if W.shape[1:] != (D,):
                raise ConfigError(f"checkpoint bank has shape {W.shape}, "
                                  f"the encoder embeds in {D} dimensions")
            norms = _row_norms(W)
            i = int(np.abs(norms - 1.0).argmax())
            require(abs(norms[i] - 1.0) <= UNIT_NORM_TOL,
                    f"checkpoint.bank.weights[{i}]", float(norms[i]),
                    f"a row of norm 1 within {UNIT_NORM_TOL}")
        if ckpt.head is not None and ckpt.head.weight.shape != (D,):
            raise ConfigError(f"checkpoint head has shape {ckpt.head.weight.shape}, "
                              f"the encoder embeds in {D} dimensions")
        return ckpt


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _stream_json(value, write):
    """Writes json.dumps(value, sort_keys=True, separators=(",", ":")), byte
    for byte. A dict with string keys and a list whose first item is a list
    or dict are written here part by part, so the C encoder gets one
    innermost value at a time (a parameter row, a number, a string, None):
    json.dump goes through the slower pure-Python encoder, and one
    json.dumps of the whole checkpoint holds all of its text at once. Any
    other dict or list is encoded whole, which gives the same bytes; only
    the first item is looked at, so a parameter row is not scanned."""
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        sep = "{"
        for key in sorted(value):
            write(f"{sep}{_ENCODE(key)}:")
            _stream_json(value[key], write)
            sep = ","
        write("}" if value else "{}")
    elif (isinstance(value, (list, tuple)) and value
          and isinstance(value[0], (list, tuple, dict))):
        sep = "["
        for item in value:
            write(sep)
            _stream_json(item, write)
            sep = ","
        write("]")
    else:
        write(_ENCODE(value))


def save_checkpoint(ckpt: Checkpoint, path):
    """Atomic write. Python's shortest-repr floats round-trip float64 exactly,
    so a reloaded checkpoint reproduces forward passes bitwise."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        _stream_json(ckpt.to_dict(), fh.write)
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    return Checkpoint.from_dict(load_json(path))
