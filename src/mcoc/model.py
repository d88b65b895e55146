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
from .errors import ConfigError, DimMismatch, InvalidScheme, ZeroNorm, from_dict
from .numerics import ZERO_NORM_EPS, as_rows

ACTIVATIONS = ("relu", "tanh", "identity")


def _act(name, Z):
    if name == "relu":
        return np.maximum(Z, 0.0)
    if name == "tanh":
        return np.tanh(Z)
    return Z


def _act_grad(name, Z, A):
    """The activation's derivative, as a factor of the incoming gradient:
    the bool mask Z > 0 for relu (multiplying by it is multiplying by 1.0
    or 0.0), None for identity."""
    if name == "relu":
        return Z > 0.0
    if name == "tanh":
        return 1.0 - A * A
    return None


def _row_norms(V, keepdims=False):
    """L2 norm of each row: the sum np.linalg.norm(V, axis=1) takes, bit
    for bit, without its argument handling."""
    return np.sqrt(np.add.reduce(V * V, axis=1, keepdims=keepdims))


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class Encoder:
    """Small dense network; forward returns unit rows, backward is exact."""

    def __init__(self, layers):
        self.layers = list(layers)
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
        pre = []
        A = X
        for layer in self.layers:
            Z = A @ layer.weight.T
            Z += layer.bias
            A = _act(layer.activation, Z)
            pre.append(Z)
            acts.append(A)
        V = acts[-1]
        norms = _row_norms(V)
        if (norms < ZERO_NORM_EPS).any():
            raise ZeroNorm("encoder produced a zero vector before normalization")
        if not np.isfinite(norms).all():
            raise ZeroNorm("encoder produced a vector of non-finite norm "
                           "before normalization")
        Xhat = V / norms[:, None]
        cache = (acts, pre, norms, Xhat)
        return Xhat, cache

    def backward(self, cache, grad_embed: np.ndarray):
        """Reverse-mode gradients for all parameters and the input.

        Returns (param_grads, grad_input) where param_grads is a list of
        (grad_weight, grad_bias) matching self.layers.
        """
        acts, pre, norms, Xhat = cache
        G = as_rows(grad_embed)
        if G.shape != Xhat.shape:
            raise DimMismatch(f"grad shape {G.shape} != {Xhat.shape}")
        # through x = v/||v||: g_v = (g - (g.x)x)/||v||
        radial = np.add.reduce(G * Xhat, axis=1, keepdims=True)
        GV = (G - radial * Xhat) / norms[:, None]
        param_grads = [None] * len(self.layers)
        for li in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[li]
            dact = _act_grad(layer.activation, pre[li], acts[li + 1])
            GZ = GV if dact is None else GV * dact
            gw = GZ.T @ acts[li]
            gb = np.add.reduce(GZ, axis=0)
            param_grads[li] = (gw, gb)
            GV = GZ @ layer.weight
        return param_grads, GV

    def parameters(self):
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def to_dict(self):
        return {
            "layers": [
                {
                    "weight": layer.weight.tolist(),
                    "bias": layer.bias.tolist(),
                    "activation": layer.activation,
                }
                for layer in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            Layer(
                weight=np.asarray(ld["weight"], dtype=np.float64),
                bias=np.asarray(ld["bias"], dtype=np.float64),
                activation=ld["activation"],
            )
            for ld in d["layers"]
        )


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

    weights: np.ndarray  # (Q, D)

    @property
    def num_centroids(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.weights.shape[1]

    def renormalize(self):
        norms = _row_norms(self.weights, keepdims=True)
        if (norms < ZERO_NORM_EPS).any():
            raise ZeroNorm("centroid collapsed to the zero vector")
        self.weights /= norms

    def similarities(self, embeddings: np.ndarray) -> np.ndarray:
        return np.atleast_2d(embeddings) @ self.weights.T

    def pairwise_cosines(self):
        """Upper-triangle cosines between centroid rows; empty for Q=1."""
        Q = self.num_centroids
        sims = np.clip(self.weights @ self.weights.T, -1.0, 1.0)
        return sims[np.triu_indices(Q, 1)]

    def to_dict(self):
        return {"weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(weights=np.asarray(d["weights"], dtype=np.float64))


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
            raise InvalidScheme("orthogonal scheme needs Q <= D")
        G = rng.normal(size=(dim, dim))
        Qm, _ = np.linalg.qr(G)
        W = Qm[:, :num_centroids].T.copy()
    else:
        raise InvalidScheme(f"unknown scheme {scheme!r}")
    return CentroidBank(weights=W)


@dataclass
class BinaryHead:
    """Single logit over the embedding; positive logit means spoof."""

    weight: np.ndarray  # (D,)
    bias: float = 0.0

    def logits(self, embeddings: np.ndarray) -> np.ndarray:
        return np.atleast_2d(embeddings) @ self.weight + self.bias

    def to_dict(self):
        return {"weight": self.weight.tolist(), "bias": float(self.bias)}

    @classmethod
    def from_dict(cls, d):
        return cls(weight=np.asarray(d["weight"], dtype=np.float64),
                   bias=float(d["bias"]))


def init_head(dim, rng) -> BinaryHead:
    return BinaryHead(weight=rng.normal(0.0, np.sqrt(1.0 / dim), size=dim), bias=0.0)


CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    encoder: Encoder
    bank: Optional[CentroidBank]
    head: Optional[BinaryHead]
    policy: QualityPolicy
    hyper: dict
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "version": CHECKPOINT_VERSION,
            "encoder": self.encoder.to_dict(),
            "bank": None if self.bank is None else self.bank.to_dict(),
            "head": None if self.head is None else self.head.to_dict(),
            "policy": asdict(self.policy),
            "hyper": self.hyper,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, d):
        """Raises ConfigError for another version, a missing or malformed
        part, or a bank or head whose dimension is not the encoder's."""
        version = d.get("version") if isinstance(d, dict) else None
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {version!r}")
        try:
            ckpt = cls(
                encoder=Encoder.from_dict(d["encoder"]),
                bank=None if d["bank"] is None else CentroidBank.from_dict(d["bank"]),
                head=None if d["head"] is None else BinaryHead.from_dict(d["head"]),
                policy=from_dict(QualityPolicy, d["policy"],
                                 "checkpoint.policy"),
                hyper=d["hyper"],
                metadata=d.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError, DimMismatch) as exc:
            raise ConfigError(f"malformed checkpoint: {exc!r}") from exc
        D = ckpt.encoder.embed_dim
        if ckpt.bank is not None and ckpt.bank.weights.shape[1:] != (D,):
            raise ConfigError(f"checkpoint bank has shape {ckpt.bank.weights.shape}, "
                              f"the encoder embeds in {D} dimensions")
        if ckpt.head is not None and ckpt.head.weight.shape != (D,):
            raise ConfigError(f"checkpoint head has shape {ckpt.head.weight.shape}, "
                              f"the encoder embeds in {D} dimensions")
        return ckpt


def save_checkpoint(ckpt: Checkpoint, path):
    """Atomic write. Python's shortest-repr floats round-trip float64 exactly,
    so a reloaded checkpoint reproduces forward passes bitwise."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ckpt.to_dict(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise ConfigError(f"{path}: not a JSON checkpoint: {exc}") from exc
    return Checkpoint.from_dict(d)
