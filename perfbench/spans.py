"""Spans recorded from outside the program, by wrapping the public functions
and methods of each mcoc module.

A wrapped function is replaced under every name that binds it in any mcoc
module, because cli, training and scoring import `score`, `load_jsonl` and
friends with `from ... import`; patching only the defining module would
miss those calls. Spans live in flat arrays in memory (times in integer
nanoseconds, so self times are exact) and are written out at the end.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _load_records(result, args, kwargs, tracer):
    tracer.count("data.load_jsonl.records", len(result))
    path = os.path.abspath(_arg(args, kwargs, 0, "path"))
    tracer.distinct[tracer.pass_id, path] = len(result)


def _train_samples(result, args, kwargs, tracer):
    records, config = _arg(args, kwargs, 0, "records"), _arg(args, kwargs, 1, "config")
    rows = len(records) - int(round(config.val_fraction * len(records)))
    tracer.count("training.samples", config.epochs * rows)


def _save_bytes(key):
    def count(result, args, kwargs, tracer):
        tracer.count(key, os.path.getsize(_arg(args, kwargs, 1, "path")))
    return count


def _forward_rows(result, args, kwargs, tracer):
    rows = result[0].shape[0]
    weights = sum(layer.weight.size for layer in args[0].layers)
    tracer.count("model.forward.rows", rows)
    tracer.count(f"model.forward.rows@{tracer.command}", rows)
    tracer.count("model.forward.flops", 2 * rows * weights)


def _batches(result, args, kwargs, tracer):
    tracer.count("training.steps", len(result))


# (span name, module, attribute, counter hook). "numerics" gets no span:
# losses binds its tiny helpers by name, so their time is losses self time.
TARGETS = (
    ("data.load_jsonl", "mcoc.data", "load_jsonl", _load_records),
    ("data.save_jsonl", "mcoc.data", "save_jsonl", _save_bytes("data.save_jsonl.bytes")),
    ("data.generate_synthetic", "mcoc.data", "generate_synthetic", None),
    ("data.balance_augmentation", "mcoc.data", "balance_augmentation", None),
    ("model.forward", "mcoc.model", "Encoder.forward", _forward_rows),
    ("model.backward", "mcoc.model", "Encoder.backward", None),
    ("model.checkpoint_save", "mcoc.model", "save_checkpoint",
     _save_bytes("model.checkpoint_save.bytes")),
    ("model.checkpoint_load", "mcoc.model", "load_checkpoint", None),
    ("losses.combined", "mcoc.losses", "combined_loss", None),
    ("losses.margin", "mcoc.losses", "margin_one_class_loss", None),
    ("losses.oc_softmax", "mcoc.losses", "oc_softmax_loss", None),
    ("losses.quality", "mcoc.losses", "quality_loss", None),
    ("losses.wce", "mcoc.losses", "wce_loss", None),
    ("training.train", "mcoc.training", "train", _train_samples),
    ("training.make_batches", "mcoc.training", "make_batches", _batches),
    ("scoring.score", "mcoc.scoring", "score", None),
    ("scoring.head_score", "mcoc.scoring", "head_score", None),
    ("scoring.score_dataset", "mcoc.scoring", "score_dataset", None),
    ("scoring.compute_eer", "mcoc.scoring", "compute_eer", None),
    ("scoring.write_scores_csv", "mcoc.scoring", "write_scores_csv", None),
    ("scoring.read_scores_csv", "mcoc.scoring", "read_scores_csv", None),
    ("scoring.export_distributions", "mcoc.scoring", "export_distributions", None),
    ("scoring.export_embeddings", "mcoc.scoring", "export_embeddings", None),
)
LAYERS = ("cli", "data", "model", "losses", "training", "scoring")
COMMANDS = ("gen", "train", "score", "eval", "ablate", "export")


class Tracer:
    """Records spans while installed. Span names are interned to ints."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [t[0] for t in targets] + [f"cli.{c}" for c in COMMANDS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_pass = array("i")
        self.counts = defaultdict(int)  # (pass id, counter) -> value
        self.distinct = {}  # (pass id, path) -> records read from it
        self.pass_id = 0
        self.command = None  # the CLI command running now
        self._stack = [-1]
        self._patched = []

    def count(self, key, n):
        self.counts[self.pass_id, key] += n

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_pass.append(self.pass_id)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name, hook):
        name_id = self._ids[name]
        clock = time.perf_counter_ns
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{name.split('.')[0]}.errors", 1)
                raise
            finally:
                self.span_end[idx] = clock()
                self.span_start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(result, args, kwargs, self)
            return result

        return wrapper

    def command_span(self, command, fn, *args):
        """Call fn(*args) inside the span `cli.<command>`."""
        self.command = command
        try:
            return self._wrap(fn, f"cli.{command}", None)(*args)
        finally:
            self.command = None

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mcoc" or n.startswith("mcoc."))]
        for name, module_name, attr, hook in self.targets:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, meth, self._wrap(getattr(owner, meth), name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def arrays(self):
        """Copies of the span columns (a view would pin the arrays' size)."""
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "start": np.array(self.span_start, dtype=np.int64),
            "end": np.array(self.span_end, dtype=np.int64),
            "pass": np.array(self.span_pass, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end):
    """Each span's duration minus the part its direct children cover."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered


def pass_metrics(tracer, pass_id, export_records):
    """Per-layer metrics of one traced pass. The per-record ratios divide
    by the distinct records the pass read (records in the distinct JSONL
    files it loaded); `export_records` is the number it exported."""
    records = sum(n for (p, _), n in tracer.distinct.items() if p == pass_id)
    a = tracer.arrays()
    names = tracer.names
    dur, own = self_times(a["parent"], a["start"], a["end"])
    mine = a["pass"] == pass_id
    ids = a["name"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.errors"] = tracer.counts.get((pass_id, f"{layer}.errors"), 0)
    for i, name in enumerate(names):
        sel = mine & (ids == i)
        m[f"{name}.s"] = float(dur[sel].sum()) / 1e9
        m[f"{name}.calls"] = int(sel.sum())
        m[f"{name.split('.')[0]}.self_s"] += float(own[sel].sum()) / 1e9
    for key in ("data.load_jsonl.records", "data.save_jsonl.bytes",
                "model.forward.rows", "model.forward.flops",
                "model.checkpoint_save.bytes", "training.steps"):
        m[key] = tracer.counts.get((pass_id, key), 0)
    m["model.forward.rows_per_call"] = (
        m["model.forward.rows"] / m["model.forward.calls"]
        if m["model.forward.calls"] else 0.0)
    m["data.load_jsonl.reparse_ratio"] = m["data.load_jsonl.records"] / records
    m["scoring.score.calls_per_record"] = m["scoring.score.calls"] / records
    m["trace.spans_per_pass"] = int(mine.sum())

    train_id = names.index("training.train")
    scoring = np.array([n.startswith("scoring.") for n in names])
    under_train = mine & (a["parent"] >= 0)
    under_train[under_train] = ids[a["parent"][under_train]] == train_id
    m["training.val_scoring_s"] = float(dur[under_train & scoring[ids]].sum()) / 1e9

    m["model.forward.rows_per_export_record"] = (
        tracer.counts.get((pass_id, "model.forward.rows@export"), 0)
        / export_records)
    return m
