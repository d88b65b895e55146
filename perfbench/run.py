#!/usr/bin/env python3
"""Benchmark of the mcoc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives `mcoc.cli.main` in-process, as a closed loop with one caller: one
pass runs the workload's command sequence (workloads.py), the next starts
when it ends, and passes repeat while another one fits in S seconds (at
least two, so that every run checks determinism). The outputs of the first
pass are checked in full (checks.py); every later pass must write the same
bytes. Every timed call is bracketed by a fixed reference kernel, and its
time is scaled to a host on which that kernel takes REF_NOMINAL_S (see
perfbench/README.md). Each rate is the median of its per-pass values, the
first (warm-up) pass left out, so that every step is sampled across the
whole run.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 every other pass is traced (spans.py) and the run reports
the per-layer metrics, measured on the traced passes, plus the tracing
overhead against the untraced ones. The last line of stdout is the JSON
result; the exit code is 1 when any call fails or any check fails.
"""

import os

# BLAS threads are pinned before numpy loads. One thread is the steadier
# setting: on a 2-core Xeon, wide-training probes took 2.0-2.3 s with one
# OpenBLAS thread and 1.9-3.0 s with two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_PASSES = 2
# end-to-end rate -> the CLI command whose calls it times (None: the time
# inside training.train)
RATES = {"gen_records_per_s": "gen", "score_records_per_s": "score",
         "export_records_per_s": "export", "train_samples_per_s": None}
SETUP_REPEATS = 11
# The host's speed moves by up to 2x within a minute (other tenants share
# its cores), in CPU time as much as in wall time. Each timed interval is
# therefore multiplied by REF_NOMINAL_S over the mean time of the reference
# kernel just before and just after it.
REF_NOMINAL_S = 0.025
# counters that must repeat exactly from one traced pass to the next
EXACT = ("model.forward.calls", "model.forward.rows_per_call",
         "scoring.score.calls_per_record", "data.load_jsonl.reparse_ratio",
         "training.steps")

sys.path.insert(0, SRC)
try:
    import numpy as np
    from mcoc import cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import mcoc from {SRC}: {exc}")

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((32, 64))
_REF_W = _REF_RNG.standard_normal((64, 64)) / 8.0


def reference_s():
    """Seconds the reference kernel takes now: a fixed mix of interpreted
    Python and small numpy operations, like the program's own, taking about
    REF_NOMINAL_S on the host the benchmark was written on."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(80_000):
        table[i & 255] = acc = acc * 0.5 + (i % 7)
    x = _REF_X
    for _ in range(1_600):
        x = np.tanh(x @ _REF_W)
    return time.perf_counter() - t0


def scales(refs):
    """Scale of each interval between consecutive reference times."""
    return [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]


def measure_setup():
    """Median time from starting a fresh interpreter to `import mcoc.cli`
    done, over SETUP_REPEATS interpreters after a first one, each time
    scaled to the reference speed."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import mcoc, mcoc.cli; print(time.monotonic_ns())")
    # the first interpreter fills the file cache and is not counted
    subprocess.run([sys.executable, "-c", code, SRC], check=True,
                   capture_output=True, timeout=120)
    samples, refs = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append((int(proc.stdout) - t0) / 1e9)
        refs.append(reference_s())
    print("setup_s raw: " + " ".join(f"{v:.3f}" for v in samples))
    return statistics.median(v * k for v, k in zip(samples, scales(refs)))


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads(),
    }


@dataclasses.dataclass
class Call:
    command: str
    seconds: float  # as measured
    records: int
    rc: object  # exit code, or the exception it raised
    start_ns: int
    scale: float = 1.0  # REF_NOMINAL_S over the reference time around it


def run_pass(wl, out, tracer):
    """Run the workload's commands once, each between two timings of the
    reference kernel. Returns the list of Calls."""
    shutil.rmtree(out, ignore_errors=True)
    calls, refs = [], [reference_s()]
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for argv in wl.steps:
            t0 = time.perf_counter_ns()
            try:
                with contextlib.redirect_stdout(sink):
                    if tracer is None:
                        rc = cli.main(argv)
                    else:
                        rc = tracer.command_span(argv[0], cli.main, argv)
            except (Exception, SystemExit) as exc:  # a raising call is a failed call
                rc = exc
            t1 = time.perf_counter_ns()
            refs.append(reference_s())
            calls.append(Call(argv[0], (t1 - t0) / 1e9,
                              workloads.step_records(wl, argv), rc, t0))
            if rc != 0:
                break
    for call, k in zip(calls, scales(refs)):
        call.scale = k
    return calls


def check(wl_json):
    """Run checks.py on the pass's outputs in a child interpreter."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "checks.py"),
                           wl_json], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return [f"checks.py exited {proc.returncode}: {proc.stderr.strip()}"], []
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["errors"], result["eers"]


def declared(metrics, kind):
    """The metrics BENCHMARK.json declares for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[kind]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work):
    setup_s = measure_setup() if not args.trace else None
    if not args.smoke:  # warm code paths and allocator on tiny inputs
        warm = workloads.build(args.workload, args.seed, f"{work}/warm_in",
                               f"{work}/warm_out", smoke=True)
        run_pass(warm, f"{work}/warm_out", None)
    out = f"{work}/out"
    wl = workloads.build(args.workload, args.seed, f"{work}/in", out,
                         smoke=args.smoke)
    if args.smoke:
        wl.eer_ceiling = 1.0  # two epochs on tiny data promise no quality
    wl_json = f"{work}/in/workload.json"
    with open(wl_json, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(wl), fh)

    # trace 0: only training.train is wrapped, to time the training share
    tracer = spans.Tracer() if args.trace else spans.Tracer(
        [t for t in spans.TARGETS if t[0] == "training.train"])
    errors, first_hashes = [], None
    walls = {True: [], False: []}  # scaled pass times, by traced or not
    layer_rows, attempted, failed, elapsed = [], 0, 0, []
    rates = {key: [] for key in RATES}  # one value per untraced pass
    t_start = time.perf_counter()
    k = 0
    while k < MIN_PASSES or _room_for_pass(t_start, args.seconds, elapsed):
        t_pass = time.perf_counter()
        traced = bool(args.trace) and k % 2 == 1
        tracer.pass_id = k
        if traced or not args.trace:
            tracer.install()
        try:
            calls = run_pass(wl, out, tracer if traced else None)
        finally:
            tracer.uninstall()
        attempted += len(calls)
        bad = [c for c in calls if c.rc != 0]
        failed += len(bad)
        if bad:
            errors += [f"pass {k}: {c.command} returned {c.rc!r}" for c in bad]
            break
        # Pass 0 is checked in full; every later pass must write the same
        # bytes, so it passes the same checks (and the determinism contract).
        hashes = checks.output_hashes(out)
        if first_hashes is None:
            first_hashes = hashes
            pass_errors, eers = check(wl_json)
            errors += [f"pass {k}: {e}" for e in pass_errors]
            if errors:
                break
        elif hashes != first_hashes:
            differ = sorted(p for p in set(hashes) | set(first_hashes)
                            if hashes.get(p) != first_hashes.get(p))
            errors.append(f"pass {k}: outputs differ from pass 0: {differ}")
        elapsed.append(time.perf_counter() - t_pass)
        walls[traced].append(sum(c.seconds * c.scale for c in calls))
        print(f"pass {k}{' traced' if traced else ''}: "
              f"{sum(c.seconds for c in calls):.3f} s measured, "
              f"{walls[traced][-1]:.3f} s scaled")
        if traced:
            m = spans.pass_metrics(tracer, k, sum(c.records for c in calls
                                                  if c.command == "export"))
            m["scoring.test_eer"] = eers[-1]
            layer_rows.append(m)
        elif not args.trace and k > 0:  # pass 0 is the warm-up
            _pass_rates(rates, calls, tracer, k)
        k += 1

    for traced, ws in walls.items():
        if ws:
            print(f"{'traced' if traced else 'untraced'} pass wall_s (scaled): "
                  + " ".join(f"{w:.3f}" for w in ws))
    for key, values in rates.items():
        if values:
            print(f"untraced pass {key}: " + " ".join(f"{v:.0f}" for v in values))
    metrics = {}
    if args.trace:
        os.makedirs(WORK, exist_ok=True)
        trace_path = os.path.join(WORK, f"trace-{args.workload}.npz")
        tracer.save(trace_path)
        print(f"trace written to {trace_path}")
        if not errors:
            metrics = declared(_layer_values(layer_rows, walls, errors),
                               "per_layer")
    elif not errors:
        # each rate is the median of its per-pass values, so that a short
        # step is sampled across the whole run; pass 0 is left out
        values = {key: statistics.median(v) for key, v in rates.items()}
        values["wall_s"] = statistics.median(walls[False][1:])
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        values["op_success_ratio"] = 1.0 - failed / attempted
        metrics = declared(values, "end_to_end")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    correct = not errors
    if not correct:
        metrics = {}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _room_for_pass(t_start, seconds, elapsed):
    """True while another pass of median length ends inside the run's
    `seconds`, counted from the first pass."""
    return (time.perf_counter() + statistics.median(elapsed)
            <= t_start + seconds)


def _pass_rates(rates, calls, tracer, pass_id):
    """Append one untraced pass's records (or samples) per scaled second of
    each command to `rates`."""
    for key, command in RATES.items():
        if command is not None:
            mine = [c for c in calls if c.command == command]
            rates[key].append(sum(c.records for c in mine)
                              / sum(c.seconds * c.scale for c in mine))
    # each training.train span takes the scale of the call it ran in
    a = tracer.arrays()
    mine = a["pass"] == pass_id
    start, end = a["start"][mine], a["end"][mine]
    owner = np.searchsorted([c.start_ns for c in calls], start, "right") - 1
    scale = np.array([c.scale for c in calls])[owner]
    train_s = float(((end - start) * scale).sum()) / 1e9
    rates["train_samples_per_s"].append(
        tracer.counts[pass_id, "training.samples"] / train_s)


def _layer_values(layer_rows, walls, errors):
    """Median over traced passes of each per-layer metric (a counter that
    repeats is reported as is), plus the tracing overhead against the
    untraced passes of the same run."""
    values = {}
    for key in layer_rows[0]:
        seen = [r[key] for r in layer_rows]
        if len(set(seen)) == 1:
            values[key] = seen[0]
        elif key in EXACT:
            errors.append(f"counter {key} differs between passes: {seen}")
        else:
            values[key] = statistics.median(seen)
    traced = statistics.median(walls[True])
    untraced = statistics.median(walls[False])
    values["trace.wall_traced_s"] = traced
    values["trace.wall_untraced_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_ratio"] = (traced - untraced) / untraced
    return values


if __name__ == "__main__":
    sys.exit(main())
