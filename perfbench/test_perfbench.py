"""Tests of the benchmark itself: seeded inputs, repeatable counts, checks.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # imported first: it puts the checkout's src/ at the front of sys.path
import tracer
import workloads
from framekit import cli, correspondence, frames, linalg, povm

PERFBENCH = os.path.dirname(os.path.abspath(__file__))

# Ops covering both reintegration paths of cli-pipeline (exhaustive at 10 and
# 14 atoms, sampled at 24), one spectral cycle and one reconstruct cycle.
SMALL = {"cli-pipeline": 24, "spectral": 3, "reconstruct": 9}

COUNT_SUFFIXES = (".calls", ".n3_computed", ".unique_input_ratio", ".events_computed",
                  ".iterations", ".json_bytes_read", ".json_bytes_written")


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _array_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"|".join(_array_bytes(v) for v in value)
    return repr(value).encode()


def test_same_seed_gives_identical_inputs(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        workloads.setup_cli_pipeline(seed, str(d))
    first, again, other = (_files(d) for d in dirs)
    assert first == again
    assert first.keys() == other.keys() and first != other

    for make in (workloads.spectral_inputs, workloads.reconstruct_inputs):
        assert _array_bytes(make(7)) == _array_bytes(make(7))
        assert _array_bytes(make(7)) != _array_bytes(make(8))


def test_reconstruct_frames_have_the_designed_condition_numbers():
    conds = []
    for (label, n, weights, blocks, _), (a, b) in zip(
            workloads.reconstruct_inputs(3), [(a, b) for a in range(3) for b in range(3)]):
        s = sum(w * (blk.conj().T @ blk) for w, blk in zip(weights, blocks))
        eig = np.linalg.eigvalsh(s)
        conds.append(eig[-1] / eig[0])
        assert eig[-1] / eig[0] == pytest.approx(workloads._recon_cond(a, b), rel=1e-9)
    assert sorted(conds) == pytest.approx(sorted(workloads.RECON_CONDS * 3))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    counts = []
    for attempt in range(2):
        values, logs, _ = run.traced_run(workload, 5, str(tmp_path / f"w{attempt}"),
                                         SMALL[workload])
        assert sum(log.failed for log in logs) == 0
        counts.append({k: v for k, v in values.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert set(counts[0]) >= {name for name, _, _ in run.PER_LAYER if name.endswith(".calls")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_every_check(workload, tmp_path):
    values, log = run.end_to_end(workload, 11, 0.0, str(tmp_path), min_ops=1)
    assert log.attempted == len(workloads.WORKLOADS[workload](11, str(tmp_path))[0])
    assert log.failed == 0 and values["fail_ratio"] == 0.0
    for name, _ in run.REPORTED:
        assert values[name] > 0


def test_harrell_davis_matches_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    values = np.random.default_rng(0).lognormal(size=120)
    for q in (0.5, 0.9):
        assert run.harrell_davis(values, q) == pytest.approx(
            float(mstats.hdquantiles(values, prob=[q])[0]), rel=1e-8)


def test_probe_calls_no_framekit_code():
    t = tracer.Tracer()
    t.install()
    try:
        run.probe_median_ns()
    finally:
        t.uninstall()
    assert t.spans == []


def test_calibration_scales_each_latency_by_its_local_probe_median():
    log = run.OpLog()
    log.latency_ns = [10, 20, 30]
    log.probe_ns = [run.PROBE_NOMINAL_NS, 2 * run.PROBE_NOMINAL_NS, 4 * run.PROBE_NOMINAL_NS]
    assert log.calibrated_ns() == pytest.approx([10 / 2, 20 / 2, 30 / 2])


def test_tracer_rebinds_every_lookup_and_restores_it():
    originals = {
        "linalg.hermitian_eigen": linalg.hermitian_eigen,
        "correspondence.validate": correspondence.validate,
        "povm.validate": povm.validate,
        "frames.OperatorValuedFrame.__init__": frames.OperatorValuedFrame.__init__,
        "cli._SNIFF": cli._SNIFF,
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert correspondence.validate is povm.validate is not originals["povm.validate"]
        assert linalg.hermitian_eigen is not originals["linalg.hermitian_eigen"]
        assert all(parse is not original for (_, _, parse), (_, _, original)
                   in zip(cli._SNIFF, originals["cli._SNIFF"]))
        linalg.psd_sqrt(np.eye(3))
        assert [s[0] for s in t.spans] == ["linalg.psd_sqrt", "linalg.hermitian_eigen"]
        assert t.spans[1][3] == 0 and t.n3_computed == 27
    finally:
        t.uninstall()
    assert linalg.hermitian_eigen is originals["linalg.hermitian_eigen"]
    assert correspondence.validate is povm.validate is originals["povm.validate"]
    assert frames.OperatorValuedFrame.__init__ is originals["frames.OperatorValuedFrame.__init__"]
    assert cli._SNIFF is originals["cli._SNIFF"]


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reconstruct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.REPORTED)
    assert ([(m["name"], m["unit"]) for m in bench["per_layer"]]
            == [(name, unit) for name, unit, _ in run.PER_LAYER])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
