"""Test-only JSONL reader and writer.

`load_jsonl` is the one-line-at-a-time reader that the block reader in
mcoc.data replaced. The block reader must give the same Dataset, bit for
bit, or raise the same exception with the same message.

`save_jsonl` is the one-`json.dumps`-per-record writer that the f-string
writer in mcoc.data replaced. For finite values both must write the same
bytes.
"""

import json
import math
from array import array

import numpy as np

from mcoc.data import _LABEL_CODES, _LABEL_NAMES, QualityPolicy, make_dataset
from mcoc.errors import UNDECODABLE, ParseError, is_real


def load_jsonl(path, policy: QualityPolicy = QualityPolicy()):
    ids, labels, mos, augmented = [], [], [], []
    features, dim = array("d"), 0
    first_seen = {}  # id -> line number
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(utf8_lines(fh), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except UNDECODABLE as exc:
                raise ParseError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(line_no, "expected a JSON object")
            for key in ("id", "features", "label"):
                if key not in obj:
                    raise ParseError(line_no, f"missing {key!r}")
            rid, feats, label = obj["id"], obj["features"], obj["label"]
            m, aug = obj.get("mos"), obj.get("augmented", False)
            if not isinstance(rid, str):
                raise ParseError(line_no, f"id must be a string, got {rid!r}")
            if not rid.isascii():
                try:
                    rid.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(line_no, f"id {rid!r} holds a lone "
                                              f"surrogate, which is not "
                                              f"UTF-8") from None
            if rid in first_seen:
                raise ParseError(line_no, f"duplicate id {rid!r} "
                                          f"(first on line {first_seen[rid]})")
            if not (isinstance(label, str) and label in _LABEL_CODES):
                raise ParseError(line_no, f"unknown label {label!r}")
            if not (isinstance(feats, list) and feats
                    and (set(map(type, feats)) <= {float}
                         and math.isfinite(sum(feats))
                         or all(map(is_real, feats)))):
                raise ParseError(line_no, "features must be a non-empty list "
                                          "of finite numbers")
            if not ids:
                dim = len(feats)
            elif len(feats) != dim:
                raise ParseError(line_no, f"{len(feats)} features, the first "
                                          f"record has {dim}")
            if m is not None and not is_real(m):
                raise ParseError(line_no, f"mos must be a number or null, got {m!r}")
            if not isinstance(aug, bool):
                raise ParseError(line_no, f"augmented must be true or false, "
                                          f"got {aug!r}")
            first_seen[rid] = line_no
            ids.append(rid)
            features.extend(feats)
            labels.append(_LABEL_CODES[label])
            mos.append(np.nan if m is None else m)
            augmented.append(aug)
    X = np.frombuffer(features).reshape(len(ids), dim)
    return make_dataset(ids, X, labels, mos, augmented, policy)


def utf8_lines(fh):
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(line_no, f"byte 0x{byte:02x} is not UTF-8") from None
        yield line


def save_jsonl(records, path):
    columns = zip(records.ids, records.X, records.y.tolist(),
                  records.mos.tolist(), records.augmented.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rid, x, label, mos, aug in columns:
            obj = {"id": rid, "features": x.tolist(),
                   "label": _LABEL_NAMES[label]}
            if not math.isnan(mos):
                obj["mos"] = mos
            if aug:
                obj["augmented"] = True
            fh.write(json.dumps(obj) + "\n")
