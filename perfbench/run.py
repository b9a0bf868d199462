#!/usr/bin/env python3
"""localgrad benchmark.

Drives the real CLI in-process, through ``localgrad.cli.main(argv)``, on
inputs generated from a workload seed, checks every output, and prints
the metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload gpc-fit --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off; ``--trace 1`` reports its per-layer metrics, from a
separate traced run.  The program is imported from ``src/`` next to this
directory; scratch files go to ``.perfbench_work/`` there and are removed
on exit.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a small shared machine the default pool spins on the
# small matrix-vector products of EP and of the query paths, which makes
# timings both slower and far noisier.  The count is recorded in the
# environment block; setting the variable explicitly overrides this.
# This has to happen before numpy is first imported (by workloads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, iqm  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up repetitions are spread over the timed window, so that setup_s
# samples the same stretch of machine time as the passes do: after each
# pass, set up again while set-up time stays under SETUP_SHARE of the
# time measured so far, at most SETUP_PER_GAP times per gap.
SETUP_SHARE = 0.08
SETUP_PER_GAP = 5
MIN_PASSES = 3


def _import_program():
    """Import localgrad from this checkout's src/, and nothing else."""
    if not (SRC / "localgrad" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC}/localgrad/cli.py is missing")
    sys.path.insert(0, str(SRC))
    lg = importlib.import_module("localgrad")
    if Path(lg.__file__).resolve().parent != (SRC / "localgrad").resolve():
        raise SystemExit(f"perfbench: imported localgrad from {lg.__file__}, not from {SRC}")
    importlib.import_module("localgrad.cli")  # also imports the modules the checks use
    return lg


def environment(lg) -> dict:
    """Machine and library facts recorded next to the numbers (not gated on)."""
    import numpy as np
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "localgrad": getattr(lg, "__version__", None),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


class Ledger:
    """Commands attempted and failed over the whole run, with notes for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {'; '.join(problems)}")


def _call(lg, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = lg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue().strip()


def run_pass(lg, commands):
    """Run every command once, in order. Returns (pass wall s, {name: (rc, s, stderr)})."""
    gc.collect()
    results = {}
    t_pass = perf_counter()
    for cmd in commands:
        t0 = perf_counter()
        rc, err = _call(lg, cmd.argv)
        results[cmd.name] = (rc, perf_counter() - t0, err)
    return perf_counter() - t_pass, results


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(str(Path(p).name).encode())
        try:
            h.update(Path(p).read_bytes())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def _exit_problems(rc, err):
    return [] if rc == 0 else [f"exit code {rc}: {err[-300:]}"]


def settle_pass(commands, results, reference, ledger):
    """Determinism check: every command's outputs hash as in the checked pass."""
    for cmd in commands:
        rc, _, err = results[cmd.name]
        problems = _exit_problems(rc, err)
        if _digest(cmd.outputs) != reference[cmd.name]:
            problems.append("outputs differ from the checked pass")
        ledger.record(cmd.name, problems)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics from a tracer
# ---------------------------------------------------------------------------


def layer_values(tr, names, morph):
    """Per-layer metric values of one traced pass, and the names whose
    function no longer exists in the program (reported as 0)."""
    c, s, k = tr.calls, tr.seconds, tr.counters

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "gpc.ep_sweeps": ("gpc.ep_fit", lambda: k["gpc.ep_sweeps"]),
        "gpc.ep_s_per_sweep": ("gpc.ep_fit", lambda: ratio(s["gpc.ep_fit"], k["gpc.ep_sweeps"])),
        "gpc.explain_gpc.us_per_call": (
            "gpc.explain_gpc", lambda: 1e6 * ratio(s["gpc.explain_gpc"], c["gpc.explain_gpc"])),
        "mimic.select_width.candidates": (
            "mimic.select_width", lambda: k["mimic.select_width.candidates"]),
        "classifiers.knn_fit_loo.k_evaluated": (
            "classifiers.knn_fit_loo", lambda: k["classifiers.knn_fit_loo.k_evaluated"]),
        "mimic.hessian_fallback.frac": (
            "mimic.explain_with_fallback",
            lambda: ratio(k["mimic.hessian_fallback.rows"], c["mimic.explain_estimated"])),
        "mimic.far_field.rows": ("mimic.explain_estimated", lambda: k["mimic.far_field.rows"]),
        "cli.morph.flip_frac": ("cli.morph", lambda: ratio(morph[1], morph[0])),
    }
    values, missing = {}, []
    for name in names:
        if name in derived:
            span, get = derived[name]
        elif name.endswith(".self_s"):
            span, get = None, (lambda layer=name[: -len(".self_s")]: tr.self_seconds[layer])
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            get = lambda span=span: c[span]  # noqa: E731
        elif name.endswith(".s"):
            span = name[: -len(".s")]
            get = lambda span=span: s[span]  # noqa: E731
        else:
            continue  # run-level metric, filled by the caller
        if span is not None and span not in tr.spans:
            missing.append(name)
            values[name] = 0.0
        else:
            values[name] = float(get())
    return values, missing


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(lg, wl, seed, seconds, trace, work, spec):
    ledger = Ledger()
    text = {}  # extra report lines: name -> (value, unit)

    # set-up: input generation plus set-up fits; the first copy feeds the passes
    setup_times = []

    def set_up(into):
        into.mkdir(parents=True)
        t0 = perf_counter()
        wl.setup(lg, into, seed)
        setup_times.append(perf_counter() - t0)
        return _digest(sorted(into.iterdir()))

    inputs = work / "inputs"
    setup_digest = set_up(inputs)

    def set_up_again(elapsed):
        """Repeat set-up in a scratch directory; inputs must not change."""
        for _ in range(SETUP_PER_GAP):
            if sum(setup_times) >= SETUP_SHARE * elapsed:
                break
            again = work / "setup-again"
            same = set_up(again) == setup_digest
            ledger.record("set-up", [] if same else ["inputs differ between repetitions"])
            shutil.rmtree(again)

    out = work / "out"
    out.mkdir()
    commands = wl.commands(inputs, out, seed)

    # checked pass: also the warm-up; traced so the chosen k and sigma are seen
    with Tracer() as tr:
        checked_wall, results = run_pass(lg, commands)
    chosen = dict(tr.chosen, spans=tr.spans)
    try:
        problems = wl.check(lg, inputs, commands, seed, chosen)
    except Exception as exc:  # a malformed output breaks the checker: fail every command
        problems = {cmd.name: [f"output check raised {type(exc).__name__}: {exc}"] for cmd in commands}
    reference = {}
    for cmd in commands:
        rc, _, err = results[cmd.name]
        ledger.record(cmd.name, _exit_problems(rc, err) + problems.get(cmd.name, []))
        reference[cmd.name] = _digest(cmd.outputs)
    morph = (sum(chosen.get("morph_paths", [])), sum(chosen.get("morph_flips", [])))

    # timed passes, tracing off
    budget = seconds / 2 if trace else seconds
    walls, per_cmd = [], {cmd.name: [] for cmd in commands}
    t_start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - t_start < budget:
        wall, results = run_pass(lg, commands)
        walls.append(wall)
        for name, (_, dt, _) in results.items():
            per_cmd[name].append(dt)
        settle_pass(commands, results, reference, ledger)
        if not trace:
            set_up_again(perf_counter() - t_start)

    def group_s(group):
        return [sum(per_cmd[c.name][i] for c in commands if c.group == group) for i in range(len(walls))]

    text["checked_pass_s"] = (checked_wall, "s")
    text["passes"] = (len(walls), "count")
    ledger.notes.append("pass walls " + " ".join(f"{w:.3f}" for w in walls))
    if not trace:
        tracemalloc.start()
        mem_wall, results = run_pass(lg, commands)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        settle_pass(commands, results, reference, ledger)
        metrics = {"setup_s": _median(setup_times), "wall_s": iqm(walls), "peak_mem_mb": peak / 2**20}
        text["main_s"] = (iqm(group_s("main")), "s")
        text["side_s"] = (iqm(group_s("side")), "s")
        text.update(wl.report(per_cmd, {c.name: c for c in commands}))
        text["setup_repeats"] = (len(setup_times), "count")
        text["memory_pass_s"] = (mem_wall, "s")
        coverage = []
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass, traced_walls, missing = [], [], []
        t_start = perf_counter()
        while len(traced_walls) < MIN_PASSES or perf_counter() - t_start < seconds / 2:
            with Tracer() as tr:
                wall, results = run_pass(lg, commands)
            traced_walls.append(wall)
            settle_pass(commands, results, reference, ledger)
            values, missing = layer_values(tr, names, morph)
            per_pass.append(values)
        metrics = {name: _median([v[name] for v in per_pass]) for name in per_pass[0]}
        metrics["trace_overhead_frac"] = iqm(traced_walls) / iqm(walls) - 1.0
        text["missing_layer_metrics"] = (len(missing), "count")
        ledger.notes += [f"missing layer metric (function gone from the program): {n}" for n in missing]
        coverage = [n for n in wl.nonzero if n not in missing and not metrics.get(n)]
        ledger.notes += [f"FAILED coverage check: {n} reads 0 on {wl.name}" for n in coverage]

    text["error_frac"] = (ledger.failed / ledger.attempted, "frac")
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not trace else "per_layer"]}
    report = {
        "correct": ledger.failed == 0 and not coverage,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return report, text, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    lg = _import_program()
    wl = WORKLOADS[args.workload]
    env = environment(lg)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        report, text, ledger = run(lg, wl, args.seed, seconds, bool(args.trace), work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    print(f"workload {wl.name}  seed {args.seed}  seconds {seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in ledger.notes:
        print(note)
    for name, m in report["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in text.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
