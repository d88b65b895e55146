"""Every name the benchmark's tracer wraps must exist in mcoc, so that a
refactor that drops or renames one fails the tier-1 suite and not only the
benchmark's own tests. Reads perfbench/spans.py; writes nothing."""

import importlib
import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for _, module_name, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):  # "Encoder.forward" is a method
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_train_takes_records_then_config():
    # the tracer's training.train hook reads these two arguments, by place
    # or by name, to count the samples trained on
    from mcoc.training import train
    params = list(inspect.signature(train).parameters)
    assert params[:2] == ["records", "config"]


def test_io_functions_take_path_where_the_tracer_reads_it():
    # the tracer's load_jsonl hook reads `path` as the first argument, and
    # its save hooks read it as the second, by place or by name
    from mcoc.data import load_jsonl, save_jsonl
    from mcoc.model import save_checkpoint
    assert list(inspect.signature(load_jsonl).parameters)[0] == "path"
    for fn in (save_jsonl, save_checkpoint):
        assert list(inspect.signature(fn).parameters)[1] == "path", fn
