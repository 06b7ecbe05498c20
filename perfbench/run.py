"""Benchmark of framekit: one workload per run, timed or traced.

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from the
checkout's ``src/``.  Each workload is a closed loop with one client in this
process: the next op starts when the previous one returns.  BLAS is pinned
to one thread.

``--trace 0`` times whole cycles of ops, with tracing off, until at least
``--seconds`` have passed and at least MIN_OPS ops have run (starting no
cycle after MAX_RUN_S), and reports the end-to-end metrics.  ``--trace 1``
runs a fixed list of ops three times (warm-up, untraced, then with spans
around every public framekit function), so its counts repeat exactly for a
seed, and reports the per-layer metrics.  End-to-end times are in probe
units, which take out the swings in speed of a shared machine (see
PROBE_NOMINAL_NS); the table prints wall-clock figures beside them.

Every op's output is checked after its timer stops.  Human-readable lines
come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "framekit", "__init__.py")):
    _fail(f"no framekit package under {SRC}; run from a checkout of the repository")

import numpy as np  # noqa: E402

import framekit  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(framekit.__file__))) != SRC:
    _fail(f"framekit was imported from {framekit.__file__}, not from {SRC}")

from tracer import Tracer  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS  # noqa: E402


MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
MAX_RUN_S = 65.0  # but a timed run starts no cycle after this, to bound its length
SETUP_REPEATS = 9  # setup_s is the median of this many full set-ups
TRACE_OPS = {"cli-pipeline": 40, "spectral": 12, "reconstruct": 72}
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# fail_ratio is 0 on a passing run, so the result line carries it as
# attempted/failed and BENCHMARK.json does not list it as a bounded metric.
REPORTED = tuple(m for m in END_TO_END if m[0] != "fail_ratio")

# (name, unit, the end-to-end metric and workload it should move).  Self times
# and counts are totals over the traced op list (TRACE_OPS ops).
PER_LAYER = (
    ("linalg.hermitian_eigen.calls", "count", "p50/p90/ops_per_s on cli-pipeline, spectral; setup_s on reconstruct"),
    ("linalg.hermitian_eigen.self_s", "s", "p50/p90/ops_per_s on cli-pipeline, spectral; setup_s on reconstruct"),
    ("linalg.hermitian_eigen.n3_computed", "count", "p50/p90/ops_per_s on cli-pipeline, spectral"),
    ("linalg.hermitian_eigen.unique_input_ratio", "ratio", "p50/p90/ops_per_s on cli-pipeline"),
    ("linalg.psd_sqrt.calls", "count", "cli-pipeline"),
    ("linalg.psd_sqrt.self_s", "s", "cli-pipeline"),
    ("linalg.invert.calls", "count", "spectral"),
    ("linalg.invert.self_s", "s", "spectral"),
    ("linalg.codec.self_s", "s", "op_p50_ms on cli-pipeline"),
    ("frames.OperatorValuedFrame.calls", "count", "spectral; setup_s on reconstruct"),
    ("frames.OperatorValuedFrame.self_s", "s", "spectral; setup_s on reconstruct"),
    ("frames.analysis.self_s", "s", "reconstruct"),
    ("frames.synthesis.self_s", "s", "reconstruct"),
    ("frames.codec.self_s", "s", "cli-pipeline"),
    ("povm.validate.calls", "count", "cli-pipeline"),
    ("povm.validate.self_s", "s", "cli-pipeline"),
    ("povm.is_framed.self_s", "s", "cli-pipeline"),
    ("povm.codec.self_s", "s", "cli-pipeline"),
    ("correspondence.ovf_to_povm.self_s", "s", "cli-pipeline"),
    ("correspondence.decompose.self_s", "s", "cli-pipeline"),
    ("correspondence.Decomposition.self_s", "s", "cli-pipeline"),
    ("correspondence.decomposition_to_ovf.self_s", "s", "cli-pipeline"),
    ("correspondence.verify.self_s", "s", "cli-pipeline"),
    ("correspondence.codec.self_s", "s", "cli-pipeline"),
    ("correspondence.reintegration_residuals.self_s", "s", "op_p90_ms on cli-pipeline"),
    ("correspondence.reintegration_residuals.events_computed", "count", "op_p90_ms on cli-pipeline"),
    ("reconstruction.frame_algorithm.calls", "count", "ops_per_s, op_p50_ms on reconstruct"),
    ("reconstruction.frame_algorithm.self_s", "s", "ops_per_s, op_p50_ms on reconstruct"),
    ("reconstruction.frame_algorithm.iterations", "count", "ops_per_s, op_p50_ms on reconstruct"),
    ("reconstruction.reconstruct_direct.self_s", "s", "spectral"),
    ("cli.run.self_s", "s", "op_p50_ms on cli-pipeline"),
    ("cli.json_bytes_read", "bytes", "op_p50_ms on cli-pipeline"),
    ("cli.json_bytes_written", "bytes", "op_p50_ms on cli-pipeline"),
    *((f"cli.{c}.p50_ms", "ms", "cli-pipeline") for c in CLI_COMMANDS),
    ("setup.linalg.hermitian_eigen.calls", "count", "setup_s on reconstruct"),
    ("setup.frames.OperatorValuedFrame.calls", "count", "setup_s on reconstruct"),
    ("trace.untraced_ops_per_s", "1/s", "none: the traced op list with tracing off"),
    ("trace.ops_per_s", "1/s", "none: the traced op list with tracing on (overhead)"),
)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                     "MKL_NUM_THREADS")},
    }


# Machine-speed probe.  The speed of a shared machine swings by up to 1.5x
# over tens of seconds, as other tenants come and go, and the guest sees no
# steal time for it.  After every op, outside its timer, the runner times
# this fixed loop of small numpy operations on an 8x8 complex matrix (the
# kind of work framekit's Jacobi sweeps do; it calls no framekit code, so no
# change to the package moves it).  End-to-end times are then reported
# in probe units: a time measured while the probe took p ns counts as
# time * PROBE_NOMINAL_NS / p, which is wall-clock time on a machine where
# the probe takes 1 ms.  Wall-clock figures are printed beside them.
PROBE_NOMINAL_NS = 1_000_000
PROBE_WINDOW = 5  # an op is scaled by the median probe of the 2 * 5 + 1 ops around it
_PROBE_A = np.exp(1j * np.arange(64.0).reshape(8, 8)) / 8.0


def probe_ns() -> int:
    """Wall-clock time of one pass of the fixed probe loop."""
    start = time.perf_counter_ns()
    a = _PROBE_A.copy()
    for k in range(60):
        col = a[:, k % 8].copy()
        a[:, k % 8] = a[:, (k + 1) % 8] * 0.6 - col * 0.8
        a = a @ _PROBE_A
        a /= np.abs(a).max()
    return time.perf_counter_ns() - start


def probe_median_ns() -> float:
    return statistics.median(probe_ns() for _ in range(2 * PROBE_WINDOW + 1))


def typical_ops_per_s(latency_ns, cycle_len: int) -> float:
    """Ops per second of a cycle whose op k takes the median time of op k.

    Medians over the cycles keep a burst of load from other processes,
    which slows a few ops, out of the figure.
    """
    slots = [latency_ns[k::cycle_len] for k in range(cycle_len)]
    return cycle_len / (sum(statistics.median(s) for s in slots) / 1e9)


class OpLog:
    """Latencies, probe times and verdicts of the ops one pass has run."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.probe_ns: list[int] = []
        self.labels: list[str] = []
        self.failed = 0

    def run(self, op) -> None:
        start = time.perf_counter_ns()
        try:
            result = op.run()
        except Exception:  # an op that raises is a failed op; the run goes on
            elapsed = time.perf_counter_ns() - start
            ok = False
            self._report(op, traceback.format_exc())
        else:
            elapsed = time.perf_counter_ns() - start
            try:
                ok = bool(op.check(result))
            except Exception:
                ok = False
                self._report(op, traceback.format_exc())
            if not ok and self.failed < 5:
                print(f"perfbench: check failed for op {op.label}", file=sys.stderr)
        self.latency_ns.append(elapsed)
        self.probe_ns.append(probe_ns())
        self.labels.append(op.label)
        self.failed += not ok

    def _report(self, op, text: str) -> None:
        if self.failed < 5:
            print(f"perfbench: op {op.label} raised\n{text}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def calibrated_ns(self) -> list[float]:
        """Each latency in probe units (see PROBE_NOMINAL_NS)."""
        w = PROBE_WINDOW
        return [ns * PROBE_NOMINAL_NS / statistics.median(self.probe_ns[max(0, i - w):i + w + 1])
                for i, ns in enumerate(self.latency_ns)]

    def ops_per_s(self) -> float:
        return self.attempted / (sum(self.latency_ns) / 1e9)

    def percentile_ms(self, q: float, label: str | None = None) -> float:
        values = [ns / 1e6 for ns, lab in zip(self.latency_ns, self.labels)
                  if label is None or lab == label]
        return harrell_davis(values, q / 100.0) if values else 0.0


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of `values`.

    A weighted mean of every order statistic, with the weights of a
    Beta(q(n+1), (1-q)(n+1)) distribution over the ranks.  The op latencies
    of a workload form clusters, one per kind of op; a plain percentile that
    falls between two clusters jumps from one to the other when a single op
    changes rank, and this estimate does not.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = 1 << 16  # midpoint rule for the Beta CDF; agrees with scipy's hdquantiles to 1e-9
    mid = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0, 1, grid + 1), cdf / cdf[-1]))
    return float(weights @ x)


def set_up(workload: str, seed: int, workdir: str):
    """Make (or make again) the workload's inputs; (cycles, seconds taken)."""
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    cycles = WORKLOADS[workload](seed, workdir)
    return cycles, time.perf_counter() - start


def timed_run(workload: str, seed: int, workdir: str, seconds: float,
              min_ops: int = MIN_OPS) -> tuple[OpLog, list[tuple[float, float]], int]:
    """Whole cycles of ops until `seconds` have passed and `min_ops` have run.

    Returns the op log, the set-up times as (seconds, median probe ns
    right after) and the ops per cycle.  No cycle starts after MAX_RUN_S, so
    on a slow machine a run may hold fewer than `min_ops` ops; the report
    gives the sample count.  The SETUP_REPEATS set-ups are spread over the
    run, between ops, because this machine's speed shifts over seconds and
    set-ups made back to back would all see the same speed.  Each set-up
    writes the same inputs again.
    """
    cycles, took = set_up(workload, seed, workdir)
    setup_times = [(took, probe_median_ns())]
    log = OpLog()
    start = time.perf_counter()
    i = 0
    while i == 0 or ((time.perf_counter() - start < seconds or log.attempted < min_ops)
                     and time.perf_counter() - start < MAX_RUN_S):
        for op in cycles[i % len(cycles)]:
            log.run(op)
            due = len(setup_times) * seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() - start >= due:
                cycles, took = set_up(workload, seed, workdir)
                setup_times.append((took, probe_median_ns()))
        i += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append((set_up(workload, seed, workdir)[1], probe_median_ns()))
    return log, setup_times, len(cycles[0])


def end_to_end(workload: str, seed: int, seconds: float, workdir: str,
               min_ops: int = MIN_OPS) -> tuple[dict, OpLog]:
    """(metrics, op log).  Times are in probe units; `wall.<name>` keys hold
    the same figures in wall-clock time, for the table."""
    log, setup_times, cycle_len = timed_run(workload, seed, workdir, seconds, min_ops)
    values = {"fail_ratio": log.failed / log.attempted,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for prefix, latency_ns, setup_s in (
            ("", log.calibrated_ns(), [s * PROBE_NOMINAL_NS / p for s, p in setup_times]),
            ("wall.", log.latency_ns, [s for s, _ in setup_times])):
        latency_ms = [ns / 1e6 for ns in latency_ns]
        values[prefix + "ops_per_s"] = typical_ops_per_s(latency_ns, cycle_len)
        values[prefix + "op_p50_ms"] = harrell_davis(latency_ms, 0.5)
        values[prefix + "op_p90_ms"] = harrell_davis(latency_ms, 0.9)
        values[prefix + "setup_s"] = statistics.median(setup_s)
    values["probe_ms"] = statistics.median(log.probe_ns) / 1e6
    return values, log


def trace_op_list(cycles, count: int) -> list:
    ops = []
    i = 0
    while len(ops) < count:
        ops.extend(cycles[i % len(cycles)])
        i += 1
    return ops[:count]


def layer_values(tracer: Tracer, setup_tracer: Tracer, untraced: OpLog, traced: OpLog,
                 json_bytes: tuple[int, int]) -> dict:
    totals = tracer.layer_totals()
    setup_totals = setup_tracer.layer_totals()
    eigen_calls = totals.get("linalg.hermitian_eigen", (0, 0.0))[0]
    special = {
        "linalg.hermitian_eigen.n3_computed": tracer.n3_computed,
        "linalg.hermitian_eigen.unique_input_ratio":
            tracer.unique_eigen_inputs() / eigen_calls if eigen_calls else 0.0,
        "correspondence.reintegration_residuals.events_computed": tracer.events_computed,
        "reconstruction.frame_algorithm.iterations": tracer.iterations,
        "cli.json_bytes_read": json_bytes[0],
        "cli.json_bytes_written": json_bytes[1],
        "setup.linalg.hermitian_eigen.calls": setup_totals.get("linalg.hermitian_eigen", (0,))[0],
        "setup.frames.OperatorValuedFrame.calls":
            setup_totals.get("frames.OperatorValuedFrame", (0,))[0],
        "trace.untraced_ops_per_s": untraced.ops_per_s(),
        "trace.ops_per_s": traced.ops_per_s(),
    }
    for command in CLI_COMMANDS:
        special[f"cli.{command}.p50_ms"] = untraced.percentile_ms(50, command)
    values = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        calls, self_s = totals.get(layer, (0, 0.0))
        values[name] = calls if field == "calls" else self_s
    return values


def traced_run(workload: str, seed: int, workdir: str, count: int | None = None):
    """(per-layer values, [warm-up, untraced, traced] logs, tracer) over a fixed op list.

    The list is the first `count` ops (TRACE_OPS by default).  It runs three
    times: once to warm up, once untraced and once traced, so that the two
    measured passes differ only by the tracing.
    """
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        cycles, _ = set_up(workload, seed, workdir)
    finally:
        setup_tracer.uninstall()
    ops = trace_op_list(cycles, count or TRACE_OPS[workload])

    warm_up, untraced, traced = OpLog(), OpLog(), OpLog()
    for log in (warm_up, untraced):
        for op in ops:
            log.run(op)

    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            traced.run(op)
        tracer.op = None
    finally:
        tracer.uninstall()

    read = written = 0
    for op in ops:
        if op.json_bytes is not None:
            r, w = op.json_bytes()
            read, written = read + r, written + w
    values = layer_values(tracer, setup_tracer, untraced, traced, (read, written))
    return values, [warm_up, untraced, traced], tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            values, logs, tracer = traced_run(args.workload, args.seed, workdir)
            attempted = sum(log.attempted for log in logs)
            failed = sum(log.failed for log in logs)
            table = [(name, unit, f"moves {moves}") for name, unit, moves in PER_LAYER]
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
            tracer.write_spans(spans_path)
            top = sorted(tracer.layer_totals().items(), key=lambda kv: -kv[1][1])[:5]
            extra = {"traced_ops": logs[-1].attempted, "span_count": len(tracer.spans),
                     "spans": os.path.relpath(spans_path, ROOT),
                     "largest_self_s": [[name, round(s, 6)] for name, (_, s) in top]}
        else:
            values, log = end_to_end(args.workload, args.seed, args.seconds, workdir)
            attempted, failed = log.attempted, log.failed
            table = ([(name, unit, "probe units" if unit in ("1/s", "ms", "s") else "")
                      for name, unit in END_TO_END]
                     + [(f"wall.{name}", unit, "wall clock") for name, unit in END_TO_END
                        if f"wall.{name}" in values]
                     + [("probe_ms", "ms", "median probe time, wall clock")])
            extra = {"samples": log.attempted,
                     "ops_per_label": {lab: log.labels.count(lab) for lab in dict.fromkeys(log.labels)}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": attempted, "failed": failed, "machine": machine(), **extra}
    print(json.dumps(header, sort_keys=True))
    for name, unit, note in table:
        print(f"  {name:<56} {values[name]:>16.6g} {unit:<6} {note}".rstrip())
    if args.trace:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in REPORTED}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
