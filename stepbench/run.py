"""Benchmark of stepspectra: one workload per run, in-process, single-threaded.

    python3 stepbench/run.py --workload steps --seed 1 --seconds 20 --trace 0

Repeats whole passes over the workload's fixed list of operations until
``--seconds`` have elapsed, then checks the outputs of the first pass against
independent oracles and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones, plus the tracing overhead.
See stepbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".stepbench_out")
SETUP_REPEATS = 5

sys.path.insert(0, ROOT)
from stepbench import checks, speed, tracing, workloads  # noqa: E402

_clock = time.perf_counter


class SetupError(Exception):
    pass


def setup(workload: str, seed: int, out: str):
    """Import the package afresh, make the inputs and write the input files."""
    for name in [m for m in sys.modules if m == "stepspectra" or m.startswith("stepspectra.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        ss = importlib.import_module("stepspectra")
        importlib.import_module("stepspectra.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import stepspectra from {SRC}: {exc}") from exc
    if not os.path.abspath(ss.__file__).startswith(SRC + os.sep):
        raise SetupError(f"stepspectra was imported from {ss.__file__}, not from {SRC}")
    return ss, workloads.make_ops(workload, seed, out, ss)


def _execute(op, ss):
    """Run one operation; return what a later pass must reproduce exactly."""
    if op.call is not None:
        report = op.call()
        return (report.winding_total, report.complete,
                [(z.location, z.multiplicity) for z in report.zeros])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ss.cli.main(op.argv)
    return (code, out.getvalue())


def _files(op) -> tuple:
    paths = [op.spec["csv"]] if "csv" in op.spec else []
    if "out" in op.spec:
        paths += [os.path.join(op.spec["out"], f) for f in ("sparse_report.json", "potential.json")]
    contents = []
    for path in paths:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    return tuple(contents)


def run_pass(ops, ss, clock, tracer=None):
    """One pass over ``ops``: (pass seconds, [(start, seconds)] per op, results).

    Times are on the benchmark's ``clock``, which leaves out calibrations;
    the pass time is the sum of its operations' times.  Each operation
    starts from a collected heap, as a command in a fresh process would.
    """
    op_times, results = [], []
    for op in ops:
        gc.collect()
        t0 = clock.now()
        try:
            if tracer is not None and op.argv is not None:
                with tracer.span("cli.main", op=op.name):
                    res = _execute(op, ss)
            else:
                res = _execute(op, ss)
        except Exception as exc:  # an operation that raises counts as failed
            res = ("error", f"{type(exc).__name__}: {exc}")
        op_times.append((t0, clock.now() - t0))
        results.append(res)
    # read back written files outside the timed region
    results = [
        r if r[0] == "error" or op.argv is None else (r, _files(op))
        for op, r in zip(ops, results)
    ]
    return sum(dt for _, dt in op_times), op_times, results


def _op_failed(op, res) -> bool:
    """Raised, or a CLI command that exited non-zero."""
    if res[0] == "error":
        return True
    return op.argv is not None and res[0][0] != 0


def check_outputs(workload, ops, first, ss) -> dict:
    """Problems per op name, from the first pass's outputs.

    An operation that failed to run is counted as failed, not checked.
    """
    problems = {op.name: [] for op in ops}
    try:
        for op, res in zip(ops, first):
            if _op_failed(op, res):
                continue
            if workload == "steps":
                problems[op.name] = checks.check_spectrum(op, res[0][1])
            elif workload == "sparse-desk":
                problems[op.name] = checks.check_sparse(op)
            elif workload == "census":
                problems[op.name] = checks.check_census(op, ss)
            else:
                problems[op.name] = checks.check_radial(op, res)
    except Exception as exc:  # a check that cannot read the output fails them all
        problems = {op.name: [f"check raised {type(exc).__name__}: {exc}"] for op in ops}
    return problems


def layer_metrics(tracer, factor: float) -> dict:
    """Per-layer figures of one traced pass; times are multiplied by ``factor``,
    the pass's rescaling to the reference speed."""
    spans = tracer.spans

    def seconds(name):
        return factor * sum(s.seconds for s in spans if s.name == name)

    def tally(name):
        calls = sum(s.tallies.get(name, (0, 0.0))[0] for s in spans)
        return calls, factor * sum(s.tallies.get(name, (0, 0.0))[1] for s in spans)

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    evals, handle_s = tally("spectral_count.handle")
    zeros = attr("spectral_count.locate_zeros", "zeros")
    locate_s = seconds("spectral_count.locate_zeros")
    sec_n, sec_s = tally("schrodinger_1d.global_secular")
    rad_n, rad_s = tally("step_model.radial_secular")
    _, lambert_s = tally("special_functions.lambert")
    census_s = seconds("spectral_count.imag_step_census")
    child_s = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.seconds
    cli_self = factor * sum(s.seconds - child_s.get(s.id, 0.0) for s in spans if s.name == "cli.main")
    return {
        "spectral_count.evals": (evals, "count"),
        "spectral_count.zeros": (zeros, "count"),
        "spectral_count.evals_per_zero": (evals / zeros if zeros else 0.0, "evals/zero"),
        "spectral_count.locate_s": (locate_s, "s"),
        "spectral_count.self_s": (locate_s - handle_s, "s"),
        "schrodinger_1d.secular_s": (sec_s, "s"),
        "schrodinger_1d.us_per_eval": (1e6 * sec_s / sec_n if sec_n else 0.0, "us"),
        "step_model.radial_secular_s": (rad_s, "s"),
        "step_model.radial_us_per_eval": (1e6 * rad_s / rad_n if rad_n else 0.0, "us"),
        "special_functions.lambert_s": (lambert_s, "s"),
        "spectral_count.census_s": (census_s, "s"),
        "spectral_count.refine_s": (census_s - lambert_s if census_s else 0.0, "s"),
        "spectral_count.branches": (attr("spectral_count.imag_step_census", "branches"), "count"),
        "spectral_count.unconverged": (attr("spectral_count.imag_step_census", "unconverged"), "count"),
        "spectral_count.nan_energies": (attr("spectral_count.imag_step_census", "nan_energies"), "count"),
        "sparse_builder.choose_L_s": (seconds("sparse_builder.choose_L"), "s"),
        "sparse_builder.assemble_s": (seconds("sparse_builder.assemble_sparse"), "s"),
        "step_model.construct_bump_s": (seconds("step_model.construct_bump"), "s"),
        "cli.self_s": (cli_self, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = os.path.join(OUT, args.workload)

    clock = speed.Speed()
    setup_times = []
    plain, traced = [], []  # (pass_s, op_times, results[, tracer])
    with clock.sampling():
        try:
            for _ in range(SETUP_REPEATS):
                t0 = clock.now()
                ss, ops = setup(args.workload, args.seed, out)
                setup_times.append((t0, clock.now() - t0))
        except SetupError as exc:
            print(f"stepbench: {exc}", file=sys.stderr)
            return 2
        t_start = _clock()
        while True:
            plain.append(run_pass(ops, ss, clock))
            if args.trace:
                tracer = tracing.Tracer(clock.now)
                with tracing.instrumented(tracer, ss):
                    traced.append(run_pass(ops, ss, clock, tracer) + (tracer,))
            if _clock() - t_start >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(out, f"timings-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"calibrations": list(zip(clock.starts, clock.kinds, clock.samples)),
                   "setup": setup_times,
                   "plain": [p[1] for p in plain], "traced": [t[1] for t in traced]}, fh)

    def scaled_pass(p):
        return sum(clock.scale(t0, dt) for t0, dt in p[1])

    first = plain[0][2]
    problems = check_outputs(args.workload, ops, first, ss)
    attempted = failed = 0
    wrong = []
    for run in plain + traced:
        for op, res, ref in zip(ops, run[2], first):
            attempted += 1
            if _op_failed(op, res):
                failed += 1
            elif problems.get(op.name) or res != ref:
                failed += 1
                wrong.append(op.name)
    for name, found in problems.items():
        for p in found:
            print(f"check {name}: {p}", file=sys.stderr)
    for op, res in zip(ops, first):
        if _op_failed(op, res):
            print(f"failed {op.name}: {res}", file=sys.stderr)
    correct = not wrong

    if args.trace:
        per_pass = [layer_metrics(t[3], clock.factor) for t in traced]
        metrics = {}
        for name, (value, unit) in per_pass[0].items():
            values = [p[name][0] for p in per_pass]
            if unit == "count":
                if len(set(values)) != 1:
                    correct = False
                    print(f"count {name} differs between passes: {values}", file=sys.stderr)
                metrics[name] = {"value": values[0], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        plain_s = statistics.median(scaled_pass(p) for p in plain)
        traced_s = statistics.median(scaled_pass(t) for t in traced)
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
        trace_path = os.path.join(out, f"trace-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump([[s.to_dict() for s in t[3].spans] for t in traced], fh)
    else:
        metrics = {
            "run_s": {"value": statistics.median(scaled_pass(p) for p in plain), "unit": "s"},
            "op_p50_s": {"value": statistics.median(clock.scale(t0, dt) for p in plain
                                                    for t0, dt in p[1]), "unit": "s"},
            "setup_s": {"value": statistics.median(clock.scale(t0, dt) for t0, dt in setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    medians = [statistics.median(c for k, c in zip(clock.kinds, clock.samples) if k == kind)
               for kind in range(len(speed.CALIBRATIONS))]
    print(f"stepbench: {len(clock.samples)} calibrations, medians "
          f"{', '.join(f'{1e3 * m:.2f}' for m in medians)} ms; run rescaled by {clock.factor:.4f}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
