"""seesawqec benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload seesaw_sweep --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout: the library is imported from
the checkout's ``src/``, and nothing needs building.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones from the
outside-in tracer.  The last line of standard output is the result
object; the line before it holds the per-gamma detail, the raw samples
and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from tracer import Tracer
from workloads import WORKLOADS, build_config

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
# A passing rep is compared with the first one, so a run makes two even
# when the first already used up --seconds.
MIN_REPS = 2
FIDELITY_RECOMPUTE_TOL = 1e-9
# The fixed code's gamma=1 optimum is 1/4; the recovery half reaches it
# only to rounding (0.24999999999999992 with OpenBLAS 0.3.31).
ENDPOINT_TOL = 1e-15

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "fidelity_mean": "1",
    "converged_frac": "1",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: traced function -> fields reported for it.
LAYER_FIELDS = {
    "linalg.inv_sqrt_psd": ("calls", "us_per_call", "self_s"),
    "linalg.herm_eig": ("calls", "us_per_call"),
    "linalg.kron_all": ("calls", "s"),
    "channels.tensor_power": ("calls", "s"),
    "channels.Channel": ("calls", "us_per_call"),
    "codes.Isometry": ("calls", "us_per_call"),
    "codes.reversal_recovery": ("calls", "s"),
    "optimizer.random_cptp": ("calls",),
    "optimizer.fidelity_operator_recovery": ("calls", "us_per_call"),
    "optimizer.fidelity_operator_encoding": ("calls", "us_per_call"),
    "optimizer.optimize_half": ("calls", "iters", "unconverged", "self_s", "us_per_iter"),
    "optimizer.optimize_encoding_isometric": ("calls", "iters", "self_s", "us_per_iter"),
    "optimizer.optimize_recovery_multistart": ("calls", "s"),
    "optimizer.seesaw": ("calls", "restarts", "rounds", "restarts_capped",
                         "rounds_wasted_frac", "self_s"),
    "cli.run_sweep": ("s", "self_s"),
    "cli.write_csv": ("ms", "bytes"),
}
FIELD_UNITS = {
    "calls": "count", "iters": "count", "unconverged": "count",
    "restarts": "count", "rounds": "count", "restarts_capped": "count",
    "bytes": "bytes", "us_per_call": "us", "us_per_iter": "us",
    "self_s": "s", "s": "s", "ms": "ms", "rounds_wasted_frac": "1",
}


def per_layer_units():
    units = {f"{layer}.{field}": FIELD_UNITS[field]
             for layer, fields in LAYER_FIELDS.items() for field in fields}
    units["trace.overhead_s"] = "s"
    return units


def import_library():
    """Import seesawqec from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "seesawqec", "__init__.py")):
        sys.exit(f"error: no seesawqec sources under {SRC}; run from a checkout")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import seesawqec
    if os.path.dirname(os.path.dirname(os.path.abspath(seesawqec.__file__))) != SRC:
        sys.exit(f"error: imported seesawqec from {seesawqec.__file__}, not {SRC}")


def environment():
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {"name": deps[k].get("name"), "version": deps[k].get("version")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int):
    """Wall times of fresh interpreters that import seesawqec and build the inputs.

    The first probe compiles the bytecode cache of a fresh checkout and is
    not counted.
    """
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
            f"import workloads; workloads.build_config({workload!r}, {seed})")
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def sweep_once(config, tracer=None, csv_dir=None):
    """One run_sweep call: (records, seesaw results, seconds).

    ``cli.seesaw`` is passed through a shim that keeps each SeesawResult,
    so the checks can recompute fidelities from the returned channels;
    it costs one Python call per seesaw gamma point.
    """
    from seesawqec import cli

    if tracer is not None:
        tracer.install()
    seesaw = cli.seesaw
    results = []

    def keep(*args, **kwargs):
        result = seesaw(*args, **kwargs)
        results.append(result)
        return result

    cli.seesaw = keep
    try:
        t0 = time.perf_counter()
        records = cli.run_sweep(config)
        elapsed = time.perf_counter() - t0
        if csv_dir is not None:
            path = os.path.join(csv_dir, "sweep.csv")
            cli.write_csv(records, path)
            tracer.layers["cli.write_csv"].add("bytes", os.path.getsize(path))
    finally:
        cli.seesaw = seesaw
        if tracer is not None:
            tracer.remove()
    return records, results, elapsed


def point_key(r):
    return (r.mode, r.gamma, r.fidelity, r.inner_iterations_total,
            r.outer_rounds, r.restarts_used, r.converged)


def check_points(config, records, results, reference):
    """Failed checks per record, as a list of (gamma, message)."""
    from seesawqec.channels import (amplitude_damping, channel_fidelity,
                                    compose, tensor_power)

    problems = []
    seesaw_results = iter(results)
    for i, r in enumerate(records):
        def fail(msg):
            problems.append((r.gamma, f"{r.mode}: {msg}"))
        if not 0.0 <= r.fidelity <= 1.0:
            fail(f"fidelity {r.fidelity!r} outside [0, 1]")
        if r.mode == "leung_optrec":
            if r.gamma == 0.0 and r.fidelity != 1.0:
                fail(f"fidelity {r.fidelity!r} at gamma=0, expected 1.0")
            if r.gamma == 1.0 and abs(r.fidelity - 0.25) > ENDPOINT_TOL:
                fail(f"fidelity {r.fidelity!r} at gamma=1, expected 0.25")
        if r.mode == "seesaw":
            no_coding = (1.0 + math.sqrt(1.0 - r.gamma)) ** 2 / 4.0
            if not r.fidelity >= no_coding:
                fail(f"fidelity {r.fidelity!r} below no coding {no_coding!r}")
            res = next(seesaw_results, None)
            if res is None:
                fail("run_sweep made no cli.seesaw call for this point")
            else:
                noise = tensor_power(amplitude_damping(r.gamma), config.copies)
                f = channel_fidelity(compose(compose(res.encoder, noise), res.recovery))
                if res.fidelity != r.fidelity or abs(f - r.fidelity) > FIDELITY_RECOMPUTE_TOL:
                    fail(f"reported {r.fidelity!r}, recomputed from channels {f!r}")
        if reference is not None and point_key(r) != point_key(reference[i]):
            fail(f"differs from the first rep: {point_key(r)} vs {point_key(reference[i])}")
    return problems


class Run:
    """Reps of one workload and what their checks found."""

    def __init__(self, config):
        self.config = config
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {"plain": [], "traced": []}
        self.all_times = []

    def rep(self, tracer=None, csv_dir=None):
        """One rep; a rep that fails a check is counted, not timed."""
        records, results, elapsed = sweep_once(self.config, tracer, csv_dir)
        checked = check_points(self.config, records, results, self.reference)
        failed = {gamma for gamma, _ in checked}
        problems = [f"gamma={gamma}: {msg}" for gamma, msg in checked]
        if tracer is not None and (tracer_problems := check_tracer(tracer)):
            failed = {r.gamma for r in records}
            problems += tracer_problems
        if self.reference is None:
            self.reference = records
        self.attempted += len(records)
        self.failed += len(failed)
        self.problems += problems
        self.all_times.append(elapsed)
        if not problems:
            self.samples["traced" if tracer is not None else "plain"].append(elapsed)
        return elapsed


def check_tracer(tracer):
    """The tracer's own invariants after a traced rep."""
    problems = []
    if not tracer.restored():
        problems.append("tracer left a wrapper in place")
    layers = tracer.layers
    root = layers["cli.run_sweep"].total_s
    selfs = math.fsum(l.self_s for name, l in layers.items() if name != "cli.write_csv")
    if abs(selfs - root) > 1e-6 * max(1.0, root):
        problems.append(f"self times add to {selfs!r}, run_sweep span is {root!r}")
    return problems


def layer_metrics(tracer, reps, overhead_s):
    out = {}
    for name, fields in LAYER_FIELDS.items():
        layer = tracer.layers[name]
        c = layer.counts
        for field in fields:
            if field == "calls":
                v = layer.calls // reps
            elif field == "us_per_call":
                v = layer.total_s / layer.calls * 1e6 if layer.calls else 0.0
            elif field == "us_per_iter":
                v = layer.total_s / c["iters"] * 1e6 if c.get("iters") else 0.0
            elif field == "self_s":
                v = layer.self_s / reps
            elif field == "s":
                v = layer.total_s / reps
            elif field == "ms":
                v = layer.total_s / reps * 1e3
            elif field == "rounds_wasted_frac":
                v = c["rounds_wasted"] / c["rounds"] if c.get("rounds") else 0.0
            else:
                v = int(c.get(field, 0)) // reps
            out[f"{name}.{field}"] = v
    out["trace.overhead_s"] = overhead_s
    return out


def solve(run, seconds, trace):
    """Reps until the next one would end after ``seconds`` (at least MIN_REPS)."""
    deadline = time.perf_counter() + seconds
    if not trace:
        while True:
            took = run.rep()
            if len(run.all_times) >= MIN_REPS and time.perf_counter() + took > deadline:
                return None
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as csv_dir:
        while True:
            took = run.rep() + run.rep(tracer, csv_dir)
            if time.perf_counter() + took > deadline:
                return tracer


def measure(workload, config, seed, seconds, trace):
    """Run one workload; returns (detail, result) as printed by ``main``."""
    setup = [] if trace else measure_setup(workload, seed)
    run = Run(config)
    tracer = solve(run, seconds, trace)

    plain = run.samples["plain"] or run.all_times
    if trace:
        traced = run.samples["traced"] or run.all_times
        reps = len(run.all_times) // 2
        metrics = layer_metrics(tracer, reps, statistics.median(traced)
                                - statistics.median(plain))
        units = per_layer_units()
    else:
        records = run.reference
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(plain),
            "fidelity_mean": math.fsum(r.fidelity for r in records) / len(records),
            "converged_frac": sum(r.converged for r in records) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "points": [{"gamma": r.gamma, "mode": r.mode, "fidelity": r.fidelity,
                    "inner_iterations_total": r.inner_iterations_total,
                    "outer_rounds": r.outer_rounds, "converged": r.converged}
                   for r in run.reference],
        "solve_s_samples": run.samples, "setup_s_samples": setup,
        "problems": run.problems,
        "environment": environment(),
    }
    if tracer is not None:
        detail["layers"] = {name: {"calls": l.calls, "total_s": l.total_s,
                                   "self_s": l.self_s, **l.counts}
                            for name, l in tracer.layers.items()}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return detail, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_library()
    config = build_config(args.workload, args.seed)
    detail, result = measure(args.workload, config, args.seed, args.seconds,
                             args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
