#!/usr/bin/env python3
"""Check that the tests still catch known ways to break the code.

Each mutant in MUTANTS names a file under src/, an exact old text, the new
text that breaks it and the test ids that must fail with the change. For
each mutant, src/ is copied to a temp directory, the one change is made
there, and only its tests run, with the copy first on PYTHONPATH. A mutant
is killed when pytest reports failed tests (exit status 1). First, every
listed test must pass on src/ as it is, or no kill would mean anything.

Exits 1 if those tests fail, if any mutant survives or ends pytest another
way (a test id that is not found, say), or if its old text is not found
exactly once in its file, so that the list is kept in step with the code:
a change that rewrites a mutant's text rewrites the mutant too.

Usage: python3 scripts/mutants.py [NAME ...]   (default: every mutant)
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PARALLEL = "mcoc/parallel.py"
DATA = "mcoc/data.py"
CLI = "mcoc/cli.py"
TRAINING = "mcoc/training.py"
T_PAR = "tests/test_parallel.py::"

# name: (file under src/, old text, new text, test ids that must fail)
MUTANTS = {
    # a failed child's fallback must not leave the caller's first rows past
    # what the serial write writes
    "fork_write-no-truncate-on-fallback": (
        PARALLEL, "    fh.seek(at)\n    fh.truncate()\n", "    fh.seek(at)\n",
        [T_PAR + "test_the_fallback_cuts_the_callers_rows_back_out"]),
    "fork_write-temp-files-copied-in-reverse": (
        PARALLEL, "for temp in temps:\n                temp.seek(0)",
        "for temp in reversed(temps):\n                temp.seek(0)",
        [T_PAR + "test_a_split_write_gives_the_serial_bytes"]),
    # a bad child result must fail the whole map, not leave a hole in it
    "fork_map-returns-a-partial-list": (
        PARALLEL, "            results.append(pickle.load(out))\n",
        "            try:\n"
        "                results.append(pickle.load(out))\n"
        "            except Exception:\n"
        "                results.append(None)\n",
        [T_PAR + "test_a_child_that_fails_gives_none_and_prints_nothing",
         T_PAR + "test_a_failed_child_leaves_its_rows_to_the_caller",
         T_PAR + "test_a_failed_last_child_keeps_the_bytes_of_the_one_"
         "before"]),
    "fork_write-no-flush-before-the-copy": (
        PARALLEL, "            fh.flush()  # the caller's rows go before the "
        "children's\n", "",
        [T_PAR + "test_a_split_write_gives_the_serial_bytes"]),
    # a failed first task (fork_write's own range included) or a failed
    # child stops the children still running through fork_map's kill
    "fork_map-no-kill-on-failure": (
        PARALLEL, "            _kill(pidfd)\n", "            pass\n",
        [T_PAR + "test_an_error_in_the_callers_range_stops_the_children",
         T_PAR + "test_the_first_task_raising_stops_its_siblings",
         T_PAR + "test_a_failing_child_stops_its_running_siblings"]),
    # an error that is no OSError in a task (a KeyError from train, say)
    # must send the whole job to the serial path, not leave fork_map
    "fork_map-catches-only-oserror": (
        PARALLEL, "    except Exception:\n        return None\n",
        "    except OSError:\n        return None\n",
        ["tests/test_cli.py::"
         "test_a_split_ablate_fails_as_the_serial_one_for_any_exception"]),
    "cuts-weight-dropped": (
        DATA, "at = (size + weight) * k // ranges - weight",
        "at = size * k // ranges",
        ["tests/test_data.py::test_the_first_range_is_shorter_by_the_weight",
         "tests/test_cli.py::"
         "test_a_split_score_and_export_give_the_serial_bytes"]),
    "ablate-never-splits": (
        CLI, "    groups = min(len(keys), parallel.usable_cpus())\n",
        "    groups = 1\n",
        ["tests/test_cli.py::test_a_split_ablate_gives_the_serial_bytes"]),
    # an integer quality_band must draw inside that level, not "high"
    "gen-without-level-bands": (
        DATA, "    if is_int(band):\n"
        "        edges = (1.0, *policy.thresholds, 5.0)\n"
        "        return edges[band], edges[band + 1]\n", "",
        ["tests/test_data.py::"
         "test_a_level_band_draws_every_mos_inside_that_level"]),
    # validation embeds in blocks of BLOCK_ROWS rows, not in one forward
    # whose activations grow with the validation set
    "validation-in-one-forward": (
        TRAINING, "    emb = embed(val, encoder)\n",
        "    emb = encoder.forward(val.X)[0]\n",
        ["tests/test_training.py::"
         "test_training_memory_is_bounded_by_the_batch_and_the_block"]),
    "load_jsonl_beside-no-whole-read-after-the-load-returned": (
        DATA,
        "                if loaded and columns is None:\n"
        "                    columns = _read(fh)\n",
        "",
        ["tests/test_cli.py::"
         "test_a_split_read_that_fails_falls_back_to_the_serial_path"]),
}


def pytest(src, tests):
    """The exit status and output of pytest running `tests` on `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                          "-p", "no:cacheprovider", *tests],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    return run.returncode, run.stdout.strip()[-300:]


def check(name, scratch):
    """None if the mutant `name` is killed, else why not."""
    path, old, new, tests = MUTANTS[name]
    src = scratch / name / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    text = (src / path).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"its old text is found {text.count(old)} times in {path}"
    (src / path).write_text(text.replace(old, new), encoding="utf-8")
    code, out = pytest(src, tests)
    if code == 1:
        return None
    if code == 0:
        return "it survives its tests"
    return f"pytest exits {code}: {out}"


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    names = names or list(MUTANTS)
    tests = sorted({test for name in names for test in MUTANTS[name][3]})
    code, out = pytest(ROOT / "src", tests)
    if code != 0:
        sys.exit(f"the mutants' tests do not pass on src/ (pytest exits "
                 f"{code}): {out}")
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            why = check(name, pathlib.Path(scratch))
            print(f"{'killed' if why is None else 'NOT KILLED'}  {name}"
                  + ("" if why is None else f": {why}"), flush=True)
            failed += why is not None
    print(f"{len(names) - failed} of {len(names)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
