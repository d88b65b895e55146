"""README states the user contract: every name a user can type or meet.

The names are taken from the code, so an option, a config field or a
table value added later fails here until README names it. A name counts
when it appears as a word in README's code (inline spans and fenced
blocks). Also: every module has one short row in README's Layout table.
"""

import argparse
import dataclasses
import pathlib
import re

import pytest

from mcoc import cli
from mcoc.data import ClusterSpec, QualityPolicy, SyntheticSpec
from mcoc.losses import LossHyper
from mcoc.model import ACTIVATIONS, CENTROID_INITS
from mcoc.scoring import STRATEGIES
from mcoc.training import (OBJECTIVES, OPTIMIZER_KINDS, EncoderConfig,
                           OptimizerConfig, TrainConfig)

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
ROW_MAX = 250


def code_words(text):
    """The words of the code in markdown `text`: fenced blocks and inline
    spans, split at anything but letters, digits, `_` and `-`."""
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(re.findall(r"[\w-]+", " ".join(code)))


WORDS = code_words(README)


def parser_names():
    """Each subcommand of build_parser() and each of its --options."""
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    names = set(sub.choices)
    for parser in sub.choices.values():
        names.update(opt for action in parser._actions
                     for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help")
    return sorted(names)


CONFIG_FIELDS = sorted({f.name for cls in (
    TrainConfig, LossHyper, OptimizerConfig, EncoderConfig, QualityPolicy,
    SyntheticSpec, ClusterSpec) for f in dataclasses.fields(cls)})
TABLE_VALUES = sorted({*OBJECTIVES, *STRATEGIES, *OPTIMIZER_KINDS,
                       *ACTIVATIONS, *CENTROID_INITS})


def test_names_are_found():
    # the introspection reaches the subparsers and the nested sections
    assert {"ablate", "--bins", "--set"} <= set(parser_names())
    assert {"lam", "quality_band", "thresholds"} <= set(CONFIG_FIELDS)
    assert {"sgd-momentum", "wce_quality"} <= set(TABLE_VALUES)


@pytest.mark.parametrize("name", parser_names())
def test_every_command_and_option_is_named(name):
    assert name in WORDS


@pytest.mark.parametrize("name", CONFIG_FIELDS)
def test_every_config_field_is_named(name):
    assert name in WORDS


@pytest.mark.parametrize("name", TABLE_VALUES)
def test_every_loss_strategy_and_choice_is_named(name):
    assert name in WORDS


@pytest.mark.parametrize("prefix, code", [
    ("config error:", cli.EXIT_CONFIG),
    ("io error:", cli.EXIT_IO),
    ("divergence:", cli.EXIT_DIVERGENCE),
    ("error:", 1),
])
def test_every_stderr_prefix_and_exit_code_is_named(prefix, code):
    assert f"`{prefix}`" in README
    assert f"`{code}`" in README


def layout_rows():
    """{path: row} of the table under README's `## Layout`."""
    section = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {re.match(r"\| `([^`]+)`", row).group(1): row for row in rows}


def test_every_module_has_one_short_layout_row():
    rows = layout_rows()
    modules = {f"src/mcoc/{p.name}" for p in (ROOT / "src" / "mcoc").glob("*.py")
               if p.name != "__init__.py"}
    assert modules | {"scripts/", "tests/", "perfbench/"} == set(rows)
    long = {path: len(row) for path, row in rows.items() if len(row) > ROW_MAX}
    assert not long
