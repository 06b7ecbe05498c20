"""End-to-end runs of the command line against temp files."""

import base64
import builtins
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framekit import VectorFrame, cli, correspondence, frames, linalg, povm, reconstruction
from framekit.cli import ExperimentConfig, generate_random, main, run
from framekit.errors import CommandError, LimitExceeded
from framekit.frames import FrameBounds, from_vector_frame, vector_frame_from_json, vector_frame_to_json
from framekit.povm import povm_from_json, povm_to_json

from conftest import (b64_of, complex_box, count_calls, matrix_json, random_unit, rng_for,
                      rotated_rows)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def onb_path(tmp_path):
    f = VectorFrame(dim_h=2, vectors=[[1, 0], [0, 1]])
    return write_json(tmp_path / "onb.json", vector_frame_to_json(f))


@pytest.fixture
def pair_path(tmp_path):
    f = VectorFrame(dim_h=2, vectors=[[1, 0], [1, 0], [0, 1]])
    return write_json(tmp_path / "pair.json", vector_frame_to_json(f))


def read_report(path):
    return json.loads(path.read_text())


def pairs_of(text):
    """The [re, im] pairs of an array written as base64 of little-endian float64."""
    return np.frombuffer(base64.b64decode(text), "<f8").reshape(-1, 2).tolist()


def with_first_entry(text, value):
    """A base64 array string with the real part of its first entry set to value."""
    parts = np.frombuffer(base64.b64decode(text), "<f8").copy()
    parts[0] = value
    return base64.b64encode(parts.tobytes()).decode("ascii")


def entries_of(text):
    """The complex entries of a base64 array string."""
    return np.frombuffer(base64.b64decode(text), "<c16")


# The fields that hold one array string: a matrix's data, a vector's entries, a stack.
ARRAY_FIELDS = ("data", "entries", "elements", "densities", "blocks", "vectors", "segments")


def map_arrays(blob, convert):
    """A copy of a data file's JSON with convert applied to every array in it:
    each stack, data and entries, and each vector or segment of a list."""
    if isinstance(blob, list):
        return [map_arrays(b, convert) for b in blob]
    if not isinstance(blob, dict):
        return blob
    out = {}
    for key, value in blob.items():
        if key in ARRAY_FIELDS and isinstance(value, str):
            out[key] = convert(value)
        elif key in ("vectors", "segments"):
            out[key] = [convert(v) for v in value]
        else:
            out[key] = map_arrays(value, convert)
    return out


def to_per_matrix(blob):
    """A copy of a data file's JSON in the per-matrix layout of older files: each
    stack split into one base64 matrix (elements, densities, blocks) or array
    (vectors, segments) per atom, with no heights."""
    out = {key: value for key, value in blob.items() if key != "heights"}
    n = blob.get("dim_h")
    for key in ("elements", "densities", "blocks", "vectors", "segments"):
        if not isinstance(blob.get(key), str):
            continue
        flat = entries_of(blob[key])
        if key in ("elements", "densities"):
            parts = flat.reshape(-1, n, n)
        elif key == "vectors":
            parts = flat.reshape(-1, n)
        else:
            cuts = np.cumsum(blob["heights"])[:-1]
            parts = np.split(flat.reshape(-1, n) if key == "blocks" else flat, cuts)
        out[key] = [matrix_json(m) if key in ("elements", "densities", "blocks") else b64_of(m)
                    for m in parts]
    return out


def to_pairs(blob):
    """A copy of a data file's JSON in the per-matrix layout with every array in
    the [re, im] pairs layout."""
    return map_arrays(to_per_matrix(blob), pairs_of)


# The layouts a reader takes, as converters of a data file's JSON.
LAYOUTS = (("base64", lambda b: b), ("per-matrix", to_per_matrix), ("pairs", to_pairs))


def test_bounds_on_orthonormal_basis(onb_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bounds", "--in", onb_path, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["summary"]["lower"] == 1.0
    assert report["summary"]["upper"] == 1.0
    assert report["summary"]["tight"] is True
    assert report["passed"] is True
    assert "[PASS] frame" in capsys.readouterr().out


def test_roundtrip_on_overcomplete_pair(pair_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--in", pair_path, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["summary"]["max_residual"] <= 1e-10
    assert all(c["passed"] for c in report["checks"])
    # POVM validity is decompose's precondition (InvalidPovm, exit 2), not a check
    assert [c["name"] for c in report["checks"]] == [
        "reintegration", "cut", "equivalence", "operator_preserved", "bounds_preserved"]


@pytest.mark.parametrize("dim,atoms", [(8, 48), (4, 14)])
def test_decompose_and_roundtrip_certify_without_events(dim, atoms, tmp_path, monkeypatch):
    povm_path, frame_path = str(tmp_path / "povm.json"), str(tmp_path / "frame.json")
    generate_random("povm", dim, atoms, seed=atoms, output_path=povm_path)
    generate_random("frame", dim, atoms, seed=atoms, output_path=frame_path)
    calls = count_calls(monkeypatch, correspondence, "all_events")
    for rule in ("trace", "dyadic"):
        assert main(["decompose", "--in", povm_path, "--rule", rule,
                     "--out", str(tmp_path / f"d-{rule}.json")]) == 0
        assert main(["roundtrip", "--in", frame_path, "--rule", rule,
                     "--out", str(tmp_path / f"r-{rule}.json")]) == 0
    assert calls == {"all_events": 0}
    for name in ("d-trace", "d-dyadic", "r-trace", "r-dyadic"):
        check = read_report(tmp_path / f"{name}.json")["checks"][0]
        assert check["name"] == "reintegration"
        assert check["margin"] == check["value"] / check["tolerance"] < 1e-2


def test_decomp_tolerance_override_sets_the_reintegration_check(pair_path, tmp_path):
    out = tmp_path / "r.json"
    for tol, code in ((1e-3, 0), (1e-30, 1), (0.0, 1)):
        assert main(["roundtrip", "--in", pair_path, "--out", str(out),
                     "--tol", f"decomp={tol!r}"]) == code
        check = read_report(out)["checks"][0]
        assert check["tolerance"] == tol
        assert check["margin"] == (check["value"] / tol if tol else None)


def test_analyze_then_reconstruct_recovers_vector(pair_path, tmp_path):
    x = random_unit(2, seed=3)
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(x))
    assert main(["analyze", "--in", pair_path, "--in", xpath,
                 "--out", str(tmp_path / "a.json")]) == 0
    coeff_path = json.loads((tmp_path / "a.json").read_text())["artifacts"]["coefficients"]
    assert main(["reconstruct", "--in", pair_path, "--in", coeff_path,
                 "--out", str(tmp_path / "r.json"), "--target-error", "1e-11"]) == 0
    report = read_report(tmp_path / "r.json")
    recovered = linalg.vector_from_json(
        json.loads(Path(report["artifacts"]["vector"]).read_text()))
    assert np.linalg.norm(recovered - x) <= 1e-10
    trace_text = Path(report["artifacts"]["trace"]).read_text()
    trace_lines = trace_text.splitlines()
    assert trace_lines[0] == "iter,certified_bound,actual_error,elapsed_ns"
    assert len(trace_lines) == report["summary"]["iterations"] + 2
    # the trace and the report hold plain float text, never a numpy scalar's repr
    assert "np.float64(" not in trace_text
    assert "np.float64(" not in (tmp_path / "r.json").read_text()


@pytest.mark.parametrize("dim,atoms", [(3, 10), (4, 14), (6, 24), (8, 48), (12, 32)])
def test_analyze_then_reconstruct_at_the_pipeline_shapes(dim, atoms, tmp_path):
    """analyze then reconstruct through main on frames of the cli-pipeline
    benchmark's shapes, atom t with 1 + t % dim rows: the x(n) written is within
    1e-13 ||x|| of the plain recurrence x = x + relax (T*c - S x) run as many
    steps on the files read, and its actual error is at most the final
    certified bound."""
    rng = rng_for(40 + dim)
    heights = [1 + t % dim for t in range(atoms)]
    space = frames.AtomicMeasureSpace([str(t) for t in range(atoms)], rng.uniform(0.5, 2.0, atoms))
    rows = complex_box(rng, (sum(heights), dim))
    ovf = frames.OperatorValuedFrame(space, dim, np.split(rows, np.cumsum(heights)[:-1]))
    frame_path = write_json(tmp_path / "f.json", frames.ovf_to_json(ovf))
    x = complex_box(rng, dim)
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(x))
    assert main(["analyze", "--in", frame_path, "--in", xpath,
                 "--out", str(tmp_path / "a.json")]) == 0
    coeff_path = read_report(tmp_path / "a.json")["artifacts"]["coefficients"]
    assert main(["reconstruct", "--in", frame_path, "--in", coeff_path,
                 "--out", str(tmp_path / "r.json")]) == 0
    report = read_report(tmp_path / "r.json")
    written = linalg.vector_from_json(json.loads(Path(report["artifacts"]["vector"]).read_text()))

    loaded = frames.ovf_from_json(json.loads(Path(frame_path).read_text()))
    c = frames.coefficients_from_json(json.loads(Path(coeff_path).read_text()))
    bounds = frames.frame_bounds(loaded)
    relax = 2.0 / (bounds.lower + bounds.upper)
    s, b = frames.frame_operator(loaded), frames.synthesis(loaded, c)
    plain = np.zeros(dim, dtype=complex)
    for _ in range(report["summary"]["iterations"]):
        plain = plain + relax * (b - s @ plain)
    assert np.linalg.norm(written - plain) <= 1e-13 * np.linalg.norm(x)
    assert np.linalg.norm(x - written) <= report["summary"]["final_certified_bound"]


def test_full_correspondence_pipeline_via_files(pair_path, tmp_path):
    assert main(["to-povm", "--in", pair_path, "--out", str(tmp_path / "p.json")]) == 0
    povm_path = read_report(tmp_path / "p.json")["artifacts"]["povm"]
    assert main(["validate-povm", "--in", povm_path,
                 "--out", str(tmp_path / "v.json")]) == 0
    assert main(["decompose", "--in", povm_path, "--rule", "trace",
                 "--out", str(tmp_path / "d1.json")]) == 0
    assert main(["decompose", "--in", povm_path, "--rule", "dyadic",
                 "--out", str(tmp_path / "d2.json")]) == 0
    d1 = read_report(tmp_path / "d1.json")["artifacts"]["decomposition"]
    d2 = read_report(tmp_path / "d2.json")["artifacts"]["decomposition"]
    assert main(["verify-uniqueness", "--in", d1, "--in", d2,
                 "--out", str(tmp_path / "u.json")]) == 0
    report = read_report(tmp_path / "u.json")
    assert report["summary"]["within_tolerance"] is True
    assert main(["to-ovf", "--in", d1, "--out", str(tmp_path / "o.json")]) == 0
    ovf_path = read_report(tmp_path / "o.json")["artifacts"]["ovf"]
    assert main(["bounds", "--in", ovf_path, "--out", str(tmp_path / "b.json")]) == 0
    bounds = read_report(tmp_path / "b.json")["summary"]
    assert bounds["lower"] == pytest.approx(1.0, rel=1e-12)
    assert bounds["upper"] == pytest.approx(2.0, rel=1e-12)


def test_data_files_are_compact_sorted_json(pair_path, tmp_path):
    assert main(["to-povm", "--in", pair_path, "--out", str(tmp_path / "p.json")]) == 0
    text = Path(read_report(tmp_path / "p.json")["artifacts"]["povm"]).read_text()
    f = vector_frame_from_json(json.loads(Path(pair_path).read_text()))
    m = correspondence.ovf_to_povm(from_vector_frame(f))
    payload = povm_to_json(m)
    assert text == json.dumps(payload, sort_keys=True) + "\n"
    back = povm_from_json(json.loads(text))
    assert back.atoms == m.atoms and back.dim_h == m.dim_h
    assert np.array_equal(back.elements, m.elements)


def test_to_povm_diagonalizes_only_the_frame_operator(pair_path, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen", "_one_sided_jacobi")
    assert main(["to-povm", "--in", pair_path, "--out", str(tmp_path / "p.json")]) == 0
    # no element (their PSD verdicts are Cholesky's), and not S either: the framed
    # check reads the bound the frame was certified with
    assert calls == {"hermitian_eigen": 0, "_one_sided_jacobi": 0}
    report = read_report(tmp_path / "p.json")
    assert [c["name"] for c in report["checks"]] == ["povm_valid", "framed"]
    assert report["passed"] is True
    assert "lower" not in report["summary"] and "upper" not in report["summary"]
    framed = report["checks"][1]
    assert "lower" not in framed and "upper" not in framed
    # S = diag(2, 1): ||R||_F^2 ||R^-1||_F^2 = 3 * 1.5, times the margin 2, to rounding
    assert framed["value"] == pytest.approx(9.0 * linalg.TOL_FRAME_REL, rel=1e-15)


def test_roundtrip_diagonalizes_each_frame_once_alone(pair_path, tmp_path, monkeypatch):
    """No density is diagonalized (the minimal blocks are pivoted Cholesky rows),
    and no frame where the loaded frame's factor certifies bounds_preserved.  A
    frame with cond(S) = 1e8 is past the certificate, and both frames' S, loaded
    and recovered, take their bounds from their kept R, one lone call each.
    Either way the summary carries no bounds (``bounds`` prints them)."""
    stacks = []
    original = linalg._one_sided_jacobi

    def recording(r, e):
        stacks.append(r.shape)
        return original(r, e)

    monkeypatch.setattr(linalg, "_one_sided_jacobi", recording)
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    rows = rotated_rows(rng_for(27), 10, np.logspace(0.0, -4.0, 5))  # cond(S) = 1e8
    ill = write_json(tmp_path / "ill.json", vector_frame_to_json(VectorFrame(5, np.conj(rows))))
    for path, by, jacobi in ((pair_path, "certificate", []), (ill, "eigenvalues", [(5, 5), (5, 5)])):
        stacks.clear()
        assert main(["roundtrip", "--in", path, "--out", str(tmp_path / "r.json")]) == 0
        report = read_report(tmp_path / "r.json")
        assert stacks == jacobi and calls == {"hermitian_eigen": 0}
        assert report["checks"][-1]["name"] == "bounds_preserved"
        assert report["checks"][-1]["by"] == by
        assert set(report["summary"]) == {"rule", "max_residual"}


def test_each_frame_command_diagonalizes_only_the_frames_whose_bounds_it_reads(
        pair_path, tmp_path, monkeypatch):
    """bounds and reconstruct read one frame's bounds; no other pipeline command
    diagonalizes a frame: to-povm and to-ovf read the bound a frame was accepted
    with, and roundtrip certifies bounds_preserved from the loaded frame's factor.
    None calls hermitian_eigen."""
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(random_unit(2, seed=3)))
    assert main(["analyze", "--in", pair_path, "--in", xpath, "--out", str(tmp_path / "a.json")]) == 0
    assert main(["to-povm", "--in", pair_path, "--out", str(tmp_path / "p.json")]) == 0
    povm_path = read_report(tmp_path / "p.json")["artifacts"]["povm"]
    assert main(["decompose", "--in", povm_path, "--out", str(tmp_path / "d.json")]) == 0
    decomposition = str(tmp_path / "d.data.json")
    runs = {
        "analyze": ["--in", pair_path, "--in", xpath],
        "bounds": ["--in", pair_path],
        "reconstruct": ["--in", pair_path, "--in", str(tmp_path / "a.data.json")],
        "to-povm": ["--in", pair_path],
        "decompose": ["--in", povm_path],
        "to-ovf": ["--in", decomposition],
        "verify-uniqueness": ["--in", decomposition, "--in", decomposition],
        "roundtrip": ["--in", pair_path],
    }
    assert set(runs) == set(cli.COMMANDS) - {"validate-povm"}  # every pipeline command
    sweeps = {}
    for command, args in runs.items():
        calls = count_calls(monkeypatch, linalg, "hermitian_eigen", "_one_sided_jacobi")
        assert main([command] + args + ["--out", str(tmp_path / f"{command}.json")]) == 0
        sweeps[command] = calls["_one_sided_jacobi"]
        assert calls["hermitian_eigen"] == 0  # to-ovf's minimal blocks take no eigen work
        monkeypatch.undo()
    assert sweeps == {"analyze": 0, "bounds": 1, "reconstruct": 1, "to-povm": 0, "decompose": 0,
                      "to-ovf": 0, "verify-uniqueness": 0, "roundtrip": 0}


def test_each_command_factors_each_operator_at_most_once(tmp_path, monkeypatch):
    """Shifted-Cholesky calls per command on a frame like the benchmark's (seed 1,
    dim 6, 24 atoms, heights cycling 1..6, weights in [0.5, 2]): to-povm and
    roundtrip factor nothing, as the elements' verdicts follow from the Gram
    products that formed them and the densities' from the elements'; each
    decompose factors its loaded POVM once, at the strict shift, and carries the
    verdicts over to the densities; verify-uniqueness and to-ovf check the
    decompositions they load, one call each; analyze and reconstruct check no
    PSD verdict."""
    rng = rng_for(1)
    dim, atoms = 6, 24
    space = frames.AtomicMeasureSpace([f"t{i}" for i in range(atoms)], rng.uniform(0.5, 2.0, atoms))
    blocks = [rng.standard_normal((1 + t % dim, dim)) + 1j * rng.standard_normal((1 + t % dim, dim))
              for t in range(atoms)]
    ovf = write_json(tmp_path / "f.json",
                     frames.ovf_to_json(frames.OperatorValuedFrame(space, dim, blocks)))
    x = write_json(tmp_path / "x.json", linalg.vector_to_json(rng.standard_normal(dim) + 0j))
    data = {name: str(tmp_path / f"{name}.data.json")
            for name in ("to-povm", "trace", "dyadic", "analyze")}
    runs = {
        "to-povm": ["to-povm", "--in", ovf],
        "trace": ["decompose", "--rule", "trace", "--in", data["to-povm"]],
        "dyadic": ["decompose", "--rule", "dyadic", "--in", data["to-povm"]],
        "verify-uniqueness": ["verify-uniqueness", "--in", data["trace"], "--in", data["dyadic"]],
        "to-ovf": ["to-ovf", "--in", data["trace"]],
        "roundtrip": ["roundtrip", "--in", ovf],
        "analyze": ["analyze", "--in", ovf, "--in", x],
        "reconstruct": ["reconstruct", "--in", ovf, "--in", data["analyze"]],
    }
    factored = {}
    for name, argv in runs.items():
        calls = count_calls(monkeypatch, linalg, "_shifted_positive_definite")
        assert main(argv + ["--out", str(tmp_path / f"{name}.json")]) == 0, name
        factored[name] = calls["_shifted_positive_definite"]
        monkeypatch.undo()
    assert factored == {"to-povm": 0, "trace": 1, "dyadic": 1, "verify-uniqueness": 2,
                        "to-ovf": 1, "roundtrip": 0, "analyze": 0, "reconstruct": 0}


def _analysis_check(pair_path, tmp_path, x):
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(x))
    code = main(["analyze", "--in", pair_path, "--in", xpath, "--out", str(tmp_path / "a.json")])
    (check,) = read_report(tmp_path / "a.json")["checks"]
    assert check["name"] == "analysis" and check["tolerance"] == linalg.TOL_ENERGY_REL
    assert check["margin"] == check["value"] / check["tolerance"]
    return code, check


def test_analyze_checks_the_energy_identity_on_the_factor(pair_path, tmp_path):
    for x in (random_unit(2, seed=3), np.zeros(2), np.array([1e150, -1e-150j])):
        code, check = _analysis_check(pair_path, tmp_path, x)
        assert code == 0 and check["passed"] is True
        assert check["value"] <= 1e-15


def test_analyze_fails_on_coefficients_that_are_not_the_analysis(pair_path, tmp_path, monkeypatch):
    original = frames.analysis

    def corrupted(ovf, x):
        c = original(ovf, x)
        segments = [np.array(seg) for seg in c.segments]
        segments[1][0] *= 1.0 + 1e-6
        return frames.CoefficientField(c.space, segments)

    monkeypatch.setattr(frames, "analysis", corrupted)
    code, check = _analysis_check(pair_path, tmp_path, random_unit(2, seed=3))
    assert code == 1 and check["passed"] is False
    assert check["value"] > linalg.TOL_ENERGY_REL


def test_reports_are_deterministic_apart_from_timing(pair_path, tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["roundtrip", "--in", pair_path, "--out", str(o1)])
    main(["roundtrip", "--in", pair_path, "--out", str(o2)])
    r1, r2 = read_report(o1), read_report(o2)
    for r in (r1, r2):
        del r["elapsed_ns"]
    assert r1 == r2


def test_failing_check_exits_one(pair_path, tmp_path):
    x = random_unit(2, seed=4)
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(x))
    main(["analyze", "--in", pair_path, "--in", xpath, "--out", str(tmp_path / "a.json")])
    coeff = json.loads((tmp_path / "a.json").read_text())["artifacts"]["coefficients"]
    code = main(["reconstruct", "--in", pair_path, "--in", coeff,
                 "--out", str(tmp_path / "r.json"),
                 "--max-iters", "2", "--target-error", "1e-12"])
    assert code == 1
    assert read_report(tmp_path / "r.json")["passed"] is False


def test_non_finite_target_error_exits_two_before_any_artifact(pair_path, tmp_path, capsys):
    x = random_unit(2, seed=4)
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(x))
    main(["analyze", "--in", pair_path, "--in", xpath, "--out", str(tmp_path / "a.json")])
    coeff = json.loads((tmp_path / "a.json").read_text())["artifacts"]["coefficients"]
    for target in ("inf", "nan"):
        out = tmp_path / f"r-{target}.json"
        code = main(["reconstruct", "--in", pair_path, "--in", coeff, "--out", str(out),
                     "--target-error", target])
        assert code == 2
        assert "InvalidBounds" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.glob("r-*")) == []  # no report, data or trace


def test_wrong_arity_exits_two(pair_path, tmp_path, capsys):
    code = main(["verify-uniqueness", "--in", pair_path, "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert "CommandError" in capsys.readouterr().err


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["bounds", "--in", str(bad), "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err and "line 1" in err
    # 1e400 parses to inf, which no size conversion may let through
    huge = tmp_path / "huge.json"
    huge.write_text('{"atoms": ["a"], "weights": [1], "dim_h": 1e400, '
                    '"blocks": [{"rows": 1, "cols": 1, "data": [[1, 0]]}]}')
    assert main(["bounds", "--in", str(huge), "--out", str(tmp_path / "o.json")]) == 2
    assert "ParseError" in capsys.readouterr().err
    # files with no atoms leave dim_h unchecked, so they are malformed too
    for command, payload in (
        ("validate-povm", {"atoms": [], "dim_h": 1e300, "elements": []}),
        ("to-ovf", {"atoms": [], "weights": [], "dim_h": 1e300, "densities": []}),
    ):
        empty = write_json(tmp_path / "empty.json", payload)
        assert main([command, "--in", empty, "--out", str(tmp_path / "o.json")]) == 2
        assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("dim_h,error", [(2**62, "ParseError"), (10**9, "NotAFrame")])
@pytest.mark.parametrize("layout", ["per-matrix", "base64"])
def test_a_frame_file_with_no_rows_exits_two_before_any_work(dim_h, error, layout, tmp_path,
                                                             capsys):
    """One atom with a 0-row block and a huge dim_h: a few bytes of file that
    claim an n x n frame operator.  An extent numpy cannot index is a ParseError;
    a frame with fewer rows than dim_h is refused by its row count, with no
    n x n allocation.  Exit 2, and no report or data file."""
    blocks = ([{"rows": 0, "cols": dim_h, "data": ""}] if layout == "per-matrix" else "")
    payload = {"atoms": ["a"], "weights": [1], "dim_h": dim_h, "blocks": blocks}
    if layout == "base64":
        payload["heights"] = [0]
    path = write_json(tmp_path / "thin.json", payload)
    for command in ("bounds", "to-povm", "roundtrip"):
        code = main([command, "--in", path, "--out", str(tmp_path / f"{command}.json")])
        assert code == 2
        assert error in capsys.readouterr().err
        assert list(tmp_path.glob(f"{command}*")) == []


def test_unrecognized_payload_exits_two(tmp_path, capsys):
    path = write_json(tmp_path / "odd.json", {"shape": "weird"})
    assert main(["bounds", "--in", path, "--out", str(tmp_path / "o.json")]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_module_error_passthrough_names_the_error(tmp_path, capsys):
    f = VectorFrame(dim_h=2, vectors=[[1, 0], [1, 0]])  # rank deficient
    path = write_json(tmp_path / "thin.json", vector_frame_to_json(f))
    assert main(["bounds", "--in", path, "--out", str(tmp_path / "o.json")]) == 2
    assert "NotAFrame" in capsys.readouterr().err


def test_tolerance_override_is_recorded_and_applied(pair_path, tmp_path):
    out = tmp_path / "r.json"
    code = main(["roundtrip", "--in", pair_path, "--out", str(out),
                 "--tol", "equivalence=1e-30"])
    report = read_report(out)
    assert report["tolerance_overrides"] == {"equivalence": 1e-30}
    # residuals here are exactly zero, so even an absurd override passes
    assert code == 0
    code = main(["roundtrip", "--in", pair_path, "--out", str(out),
                 "--tol", "bounds_rel=-1.0"])
    assert code == 1  # negative tolerance can never be met


def test_generate_frame_is_deterministic_and_loadable(tmp_path):
    p1, p2 = tmp_path / "f1.json", tmp_path / "f2.json"
    assert main(["generate", "--kind", "frame", "--dim", "3", "--atoms", "5",
                 "--seed", "42", "--out", str(p1)]) == 0
    main(["generate", "--kind", "frame", "--dim", "3", "--atoms", "5",
          "--seed", "42", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    assert main(["bounds", "--in", str(p1), "--out", str(tmp_path / "b.json")]) == 0


def test_generate_povm_is_deterministic_and_valid(tmp_path):
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    main(["generate", "--kind", "povm", "--dim", "3", "--atoms", "6",
          "--seed", "7", "--out", str(p1)])
    main(["generate", "--kind", "povm", "--dim", "3", "--atoms", "6",
          "--seed", "7", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    assert main(["validate-povm", "--in", str(p1), "--out", str(tmp_path / "v.json")]) == 0
    report = read_report(tmp_path / "v.json")
    assert report["summary"]["framed"] is True


def test_generate_rejects_out_of_range(tmp_path):
    with pytest.raises(LimitExceeded):
        generate_random("frame", 129, 130, 0, str(tmp_path / "x.json"))
    with pytest.raises(LimitExceeded):
        generate_random("povm", 2, 257, 0, str(tmp_path / "x.json"))
    with pytest.raises(CommandError):
        generate_random("frame", 4, 2, 0, str(tmp_path / "x.json"))


def test_config_enforces_arity_and_rule():
    with pytest.raises(CommandError):
        ExperimentConfig(command="bounds", input_paths=("a", "b"), output_path="o")
    with pytest.raises(CommandError):
        ExperimentConfig(command="decompose", input_paths=("a",), output_path="o",
                         rule="median")
    with pytest.raises(CommandError):
        ExperimentConfig(command="nonsense", input_paths=(), output_path="o")
    with pytest.raises(CommandError, match="bounds_rel, equivalence, decomp"):
        ExperimentConfig(command="roundtrip", input_paths=("a",), output_path="o",
                         tolerance_overrides={"equivalnce": -1.0})


def test_unknown_tol_name_exits_two(pair_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    # an unknown name, and known names with values no check can compare against
    for tol in ("equivalnce=-1", "bounds_rel=nan", "decomp=inf", "equivalence=-inf"):
        code = main(["roundtrip", "--in", pair_path, "--out", str(out), "--tol", tol])
        assert code == 2, tol
        assert "CommandError" in capsys.readouterr().err
        assert not out.exists()


def test_generate_povm_diagonalizes_once_per_attempt(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    generate_random("povm", 3, 6, 7, str(tmp_path / "m.json"))  # seed 7 succeeds first time
    assert calls["hermitian_eigen"] == 1


def test_parses_carry_no_state_between_main_calls(onb_path, pair_path, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bounds", "--in", onb_path, "--out", str(out1), "--tol", "decomp=1"]) == 0
    assert main(["bounds", "--in", pair_path, "--out", str(out2)]) == 0
    first, second = read_report(out1), read_report(out2)
    assert [i["path"] for i in first["inputs"]] == [onb_path]
    assert [i["path"] for i in second["inputs"]] == [pair_path]
    assert second["tolerance_overrides"] == {}


def test_main_reuses_the_parser_built_at_import(pair_path, tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert main(["bounds", "--in", pair_path, "--out", str(tmp_path / "o.json")]) == 0
    assert main(["generate", "--kind", "frame", "--dim", "2", "--atoms", "3",
                 "--out", str(tmp_path / "f.json")]) == 0


_COMMON_OPTIONS = {"-h", "--help", "--in", "--out", "--tol", "--data-out"}
_OPTION_STRINGS = {
    "bounds": _COMMON_OPTIONS,
    "analyze": _COMMON_OPTIONS,
    "reconstruct": _COMMON_OPTIONS | {"--target-error", "--max-iters", "--trace-out"},
    "to-povm": _COMMON_OPTIONS,
    "validate-povm": _COMMON_OPTIONS,
    "decompose": _COMMON_OPTIONS | {"--rule"},
    "to-ovf": _COMMON_OPTIONS,
    "verify-uniqueness": _COMMON_OPTIONS,
    "roundtrip": _COMMON_OPTIONS | {"--rule"},
    "generate": {"-h", "--help", "--kind", "--dim", "--atoms", "--seed", "--out"},
}


def test_every_subcommand_keeps_its_option_strings():
    subparsers = cli._PARSER._subparsers._group_actions[0].choices
    assert list(subparsers) == list(cli.COMMANDS) + ["generate"]
    for name, parser in subparsers.items():
        options = {s for action in parser._actions for s in action.option_strings}
        assert options == _OPTION_STRINGS[name], name


def test_module_entry_point_runs_and_rejects_unknown_tol(tmp_path):
    frame = tmp_path / "frame.json"
    generate_random("frame", 3, 5, 1, str(frame))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "framekit.cli", "bounds", "--in", str(frame),
            "--out", str(tmp_path / "b.json")]
    ok = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert ok.returncode == 0, ok.stderr
    bad = subprocess.run(argv + ["--tol", "nosuch=1"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert bad.returncode == 2
    assert "CommandError" in bad.stderr


def test_run_reports_input_hashes(pair_path, tmp_path):
    cfg = ExperimentConfig(command="bounds", input_paths=(pair_path,),
                           output_path=str(tmp_path / "o.json"))
    report = run(cfg)
    assert len(report.inputs) == 1
    assert len(report.inputs[0]["sha256"]) == 64
    assert report.inputs[0]["sha256"] == hashlib.sha256(Path(pair_path).read_bytes()).hexdigest()


def test_undecodable_or_too_deep_input_exits_two(tmp_path, capsys):
    for name, data in (("bytes.json", b"\xff\xfe\x00{"),
                       ("deep.json", b"[" * 100000 + b"]" * 100000)):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["bounds", "--in", str(path), "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and str(path) in err


def test_negative_seed_exits_two(tmp_path, capsys):
    povm_path = str(tmp_path / "m.json")
    generate_random("povm", 2, 3, 0, povm_path)
    # only generate takes a seed; a pipeline command refuses the option itself
    with pytest.raises(SystemExit) as usage:
        main(["decompose", "--in", povm_path, "--seed", "1", "--out", str(tmp_path / "d.json")])
    assert usage.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(["generate", "--kind", "povm", "--dim", "2", "--atoms", "3", "--seed", "-1",
                 "--out", str(tmp_path / "g.json")]) == 2
    assert "CommandError" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists() and not (tmp_path / "g.json").exists()


@pytest.fixture
def kind_paths(pair_path, tmp_path):
    """One valid file of every table kind, made by the pipeline itself."""
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(random_unit(2, seed=3)))
    for argv in (["to-povm", "--in", pair_path], ["analyze", "--in", pair_path, "--in", xpath]):
        assert main(argv + ["--out", str(tmp_path / f"{argv[0]}.json")]) == 0
    povm_path = str(tmp_path / "to-povm.data.json")
    assert main(["decompose", "--in", povm_path, "--out", str(tmp_path / "d.json")]) == 0
    return {"frame": pair_path, "vector": xpath, "povm": povm_path,
            "coefficients": str(tmp_path / "analyze.data.json"),
            "decomposition": str(tmp_path / "d.data.json")}


def test_every_input_is_opened_once(kind_paths, tmp_path, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for command in ("roundtrip", "analyze", "verify-uniqueness"):
        paths = [kind_paths[kind] for kind in cli._COMMANDS[command].inputs]
        opened.clear()
        assert main([command, *(a for p in paths for a in ("--in", p)),
                     "--out", str(tmp_path / "o.json")]) == 0
        for path in paths:
            assert opened.count(path) == paths.count(path), (command, path)


def test_wrong_kind_input_exits_two_naming_the_table_kind(kind_paths, tmp_path, capsys):
    # each wrong file holds only its identifying key, so parsing it would fail
    wrong = {}
    for key, kind, _ in cli._SNIFF:
        wrong.setdefault(kind, write_json(tmp_path / f"only-{key}.json", {key: None}))
    for command, spec in cli._COMMANDS.items():
        for slot, want in enumerate(spec.inputs):
            for found, path in wrong.items():
                if found == want:
                    continue
                paths = [kind_paths[kind] for kind in spec.inputs]
                paths[slot] = path
                assert main([command, *(a for p in paths for a in ("--in", p)),
                             "--out", str(tmp_path / "o.json")]) == 2, (command, slot, found)
                err = capsys.readouterr().err
                assert f"CommandError: {path}: expected {want}, found {found}" in err, err


def test_verify_uniqueness_diagonalizes_nothing(pair_path, tmp_path, monkeypatch):
    assert main(["to-povm", "--in", pair_path, "--out", str(tmp_path / "p.json")]) == 0
    povm_path = read_report(tmp_path / "p.json")["artifacts"]["povm"]
    paths = []
    for rule in ("trace", "dyadic"):
        assert main(["decompose", "--in", povm_path, "--rule", rule,
                     "--out", str(tmp_path / f"d-{rule}.json")]) == 0
        paths += ["--in", read_report(tmp_path / f"d-{rule}.json")["artifacts"]["decomposition"]]
    calls = count_calls(monkeypatch, linalg, "hermitian_eigen")
    assert main(["verify-uniqueness", *paths, "--out", str(tmp_path / "u.json")]) == 0
    assert calls == {"hermitian_eigen": 0}  # two loaded decompositions, their PSD checks only


def test_no_check_passes_on_an_operand_whose_norm_squares_to_inf(tmp_path, capsys):
    """{1e200, 1} is a 1-dim POVM with finite entries whose norms do not square to
    a finite double; a frame's row 1e308 likewise makes S overflow."""
    m = write_json(tmp_path / "m.json", {
        "atoms": ["a", "b"], "dim_h": 1,
        "elements": [matrix_json([[1e200]]), matrix_json([[1.0]])]})
    for command in ("decompose", "validate-povm"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--in", m, "--out", str(out)]) == 2, command
        assert "LimitExceeded" in capsys.readouterr().err
        assert not out.exists()
    f = write_json(tmp_path / "f.json", {"dim_h": 2, "vectors": [[[1e308, 0], [0, 0]],
                                                                 [[0, 0], [1, 0]]]})
    assert main(["bounds", "--in", f, "--out", str(tmp_path / "b.json")]) == 2
    assert "LimitExceeded" in capsys.readouterr().err


HUGE = 1.7e308  # just below the largest finite double, 1.797e308


def huge_inputs(kind_paths, tmp_path):
    """{name: (kind, path)}: one file for each kind of numeric input, a valid file
    of kind_paths with one entry set to HUGE, once as written (each stack one
    base64 string), once as a copy with one base64 array per matrix or atom, and
    once as a copy with every array in [re, im] pairs."""
    def load(kind):
        return json.loads(Path(kind_paths[kind]).read_text())

    ovf = frames.ovf_to_json(from_vector_frame(vector_frame_from_json(load("frame"))))
    vector, coefficients, elements = load("vector"), load("coefficients"), load("povm")
    densities, weights = load("decomposition"), load("decomposition")
    ovf["blocks"] = with_first_entry(ovf["blocks"], HUGE)
    vector["entries"] = with_first_entry(vector["entries"], HUGE)
    coefficients["segments"] = with_first_entry(coefficients["segments"], HUGE)
    elements["elements"] = with_first_entry(elements["elements"], HUGE)
    densities["densities"] = with_first_entry(densities["densities"], HUGE)
    weights["weights"][0] = HUGE
    blobs = {"blocks": ("frame", ovf), "vector": ("vector", vector),
             "coefficients": ("coefficients", coefficients), "elements": ("povm", elements),
             "densities": ("decomposition", densities), "weights": ("decomposition", weights)}
    return {f"{name}-{layout}": (kind, write_json(tmp_path / f"huge-{name}-{layout}.json",
                                                  convert(blob)))
            for name, (kind, blob) in blobs.items()
            for layout, convert in LAYOUTS}


def test_the_largest_finite_double_in_any_input_fails_cleanly(kind_paths, tmp_path, capsys):
    """Every command that reads an input kind, given a file of that kind with one
    entry of HUGE, in any of the three layouts, exits 1 (a failed check) or 2 (an
    error) with no uncaught exception or RuntimeWarning; an exit 2 leaves no
    report, data or trace file."""
    runs = 0
    for name, (kind, path) in huge_inputs(kind_paths, tmp_path).items():
        for command, spec in cli._COMMANDS.items():
            for slot, want in enumerate(spec.inputs):
                if want != kind:
                    continue
                paths = [kind_paths[k] for k in spec.inputs]
                paths[slot] = path
                stem = f"run-{name}-{command}-{slot}"
                code = main([command, *(a for p in paths for a in ("--in", p)),
                             "--out", str(tmp_path / f"{stem}.json")])
                assert code in (1, 2), (name, command, slot, code)
                if code == 2:
                    assert list(tmp_path.glob(f"{stem}.*")) == [], (name, command, slot)
                    assert "Traceback" not in capsys.readouterr().err
                runs += 1
    # per layout: blocks 5 commands, vector 1, coefficients 1, elements 2, decompositions 2 * 3
    assert runs == 45


def test_max_iters_above_the_limit_exits_two_before_any_artifact(pair_path, tmp_path, capsys):
    """--max-iters is capped at MAX_RECONSTRUCT_ITERS: one more, or 10^15, exits 2
    with LimitExceeded and writes no report, data or trace file, before any
    power or bound is formed.  The limit itself is accepted: the run stops at
    the target long before it."""
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(random_unit(2, seed=4)))
    main(["analyze", "--in", pair_path, "--in", xpath, "--out", str(tmp_path / "a.json")])
    coeff = json.loads((tmp_path / "a.json").read_text())["artifacts"]["coefficients"]
    argv = ["reconstruct", "--in", pair_path, "--in", coeff]
    for iters in (cli.MAX_RECONSTRUCT_ITERS + 1, 10 ** 15):
        out = tmp_path / f"r-{iters}.json"
        assert main(argv + ["--out", str(out), "--max-iters", str(iters)]) == 2
        assert "LimitExceeded" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.glob("r-*")) == []  # no report, data or trace
    out = tmp_path / "r-limit.json"
    assert main(argv + ["--out", str(out), "--max-iters", str(cli.MAX_RECONSTRUCT_ITERS)]) == 0
    assert read_report(out)["summary"]["iterations"] < 100


def test_reconstruct_refuses_coefficients_whose_image_overflows(kind_paths, tmp_path, capsys):
    """A coefficient entry of 1e308, which intake accepts, makes ||T*c|| overflow:
    the frame algorithm raises LimitExceeded before any iterate, and reconstruct
    exits 2 with no report, data or trace file.  The direct route still solves
    that one, with x finite, and raises LimitExceeded at HUGE, where x is not."""
    coefficients = {}
    for value in (1e308, HUGE):
        blob = json.loads(Path(kind_paths["coefficients"]).read_text())
        blob["segments"] = with_first_entry(blob["segments"], value)
        coefficients[value] = write_json(tmp_path / f"c-{value!r}.json", blob)
    _, f = cli._load(kind_paths["frame"], "frame")
    _, c = cli._load(coefficients[1e308], "coefficients")
    with pytest.raises(LimitExceeded, match="proxy"):
        reconstruction.frame_algorithm(f, c)
    x = reconstruction.reconstruct_direct(f, c)
    assert np.isfinite(x).all() and abs(x[0]) > 1e307
    with pytest.raises(LimitExceeded):
        reconstruction.reconstruct_direct(f, cli._load(coefficients[HUGE], "coefficients")[1])
    assert main(["reconstruct", "--in", kind_paths["frame"], "--in", coefficients[1e308],
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "LimitExceeded" in capsys.readouterr().err
    assert list(tmp_path.glob("r.*")) == []


def test_decompose_refuses_a_povm_with_no_weighted_atom(tmp_path, capsys):
    """Every element zero: the POVM is valid, but no atom keeps a positive
    reference weight, so there is no density to write.  decompose exits 2 under
    either rule and writes neither its report nor a data file that the
    decomposition loader would refuse."""
    m = write_json(tmp_path / "m.json", {"atoms": ["a", "b"], "dim_h": 2,
                                         "elements": [matrix_json(np.zeros((2, 2)))] * 2})
    for rule in ("trace", "dyadic"):
        out = tmp_path / f"d-{rule}.json"
        assert main(["decompose", "--rule", rule, "--in", m, "--out", str(out)]) == 2, rule
        err = capsys.readouterr().err
        assert "InvalidPovm" in err and "positive reference weight" in err
        assert list(tmp_path.glob(f"d-{rule}*")) == []


def test_verify_uniqueness_refuses_an_overflowing_reintegration_at_intake(tmp_path, capsys):
    """Weights 1e300 on densities [[1e10]]: each number is finite, their products
    are not, so the file is refused when it is read, before any report is formed."""
    d = write_json(tmp_path / "d.json", {
        "atoms": ["a", "b"], "weights": [1e300, 1e300], "dim_h": 1,
        "densities": [matrix_json([[1e10]])] * 2})
    out = tmp_path / "u.json"
    assert main(["verify-uniqueness", "--in", d, "--in", d, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "LimitExceeded" in err and "densities are too large" in err
    assert not out.exists()


def test_bounds_and_to_ovf_compute_their_frame_checks(kind_paths, tmp_path, monkeypatch):
    """bounds checks the bounds it reports, with their verdict; to-ovf and to-povm
    check the bound their frame was accepted with, and report no bounds."""
    verdicts, built = [], []
    original, fill = frames._positive_definite, frames.OperatorValuedFrame._fill

    def recording(lo, hi):
        verdicts.append((lo, hi))
        return original(lo, hi)

    def keeping(self, *args):
        fill(self, *args)
        built.append(self)

    monkeypatch.setattr(frames, "_positive_definite", recording)
    monkeypatch.setattr(frames.OperatorValuedFrame, "_fill", keeping)
    for command, name in (("bounds", "frame"), ("to-ovf", "framed"), ("to-povm", "framed")):
        kind = cli._COMMANDS[command].inputs[0]
        out = tmp_path / f"{command}.json"
        verdicts.clear()
        built.clear()
        assert main([command, "--in", kind_paths[kind], "--out", str(out)]) == 0
        checks = read_report(out)["checks"]
        expected = {"bounds": [name], "to-ovf": [name, "cut"], "to-povm": ["povm_valid", name]}
        assert [c["name"] for c in checks] == expected[command]
        check = next(c for c in checks if c["name"] == name)
        assert check["passed"] is True
        if command == "bounds":
            assert (check["lower"], check["upper"]) in verdicts  # the report's bounds, tested
            assert check["margin"] == linalg.TOL_FRAME_REL * check["upper"] / check["lower"] < 1.0
        else:
            # the frame the command built (to-ovf) or loaded (to-povm), and its bound
            (f,) = built
            assert "lower" not in check and "upper" not in check
            assert check["margin"] == linalg.TOL_FRAME_REL * f._condition < 1.0
            assert "_bounds" not in vars(f)


def test_frame_check_fails_below_the_frame_tolerance():
    ok = cli._frame_check("frame", FrameBounds(lower=1.0, upper=2.0))
    assert ok["passed"] is True and ok["margin"] == 2.0 * linalg.TOL_FRAME_REL
    # valid bounds, but lambda_min is below TOL_FRAME_REL * lambda_max
    bad = cli._frame_check("framed", FrameBounds(lower=1e-12, upper=1.0))
    assert bad["passed"] is False and bad["margin"] == pytest.approx(100.0, rel=1e-12)


def test_a_check_with_a_non_finite_number_fails():
    assert cli._check("c", 1.0, 2.0)["passed"] is True
    for value, tolerance in ((float("inf"), 1.0), (0.0, float("inf")), (np.float64("nan"), 1.0)):
        assert cli._check("c", value, tolerance)["passed"] is False
    # strings, lists, integers and None in the context are no numbers to compare
    assert cli._check("c", 1.0, 2.0, stopped_by="target_error", failures=[], n=3, x=None)["passed"]


def test_a_check_passes_up_to_and_at_its_tolerance():
    at = cli._check("c", 2.0, 2.0, lower=1.0)
    assert at == {"name": "c", "passed": True, "value": 2.0, "tolerance": 2.0, "margin": 1.0,
                  "lower": 1.0}
    assert cli._check("c", np.nextafter(2.0, 3.0), 2.0)["passed"] is False
    assert cli._check("c", 0.0, 0.0) == {"name": "c", "passed": True, "value": 0.0,
                                         "tolerance": 0.0, "margin": None}
    assert cli._check("c", 1e-300, 0.0)["passed"] is False


# The checks no number decides, with their exact keys.
FLAGS = {"certified": {"name", "passed"}, "psd": {"name", "passed"},
         "povm_valid": {"name", "passed", "failures"}}


def test_every_check_is_a_flag_or_a_value_against_a_tolerance(kind_paths, tmp_path):
    frame, povm_path, trace = kind_paths["frame"], kind_paths["povm"], kind_paths["decomposition"]
    dyadic = str(tmp_path / "dyadic.data.json")
    zero = [a for name in cli.DEFAULT_CHECK_TOLERANCES for a in ("--tol", f"{name}=0")]
    runs = [
        ["bounds", "--in", frame],
        ["analyze", "--in", frame, "--in", kind_paths["vector"]],
        ["reconstruct", "--in", frame, "--in", kind_paths["coefficients"]],
        ["to-povm", "--in", frame],
        ["validate-povm", "--in", povm_path],
        ["decompose", "--in", povm_path, "--rule", "trace"],
        ["decompose", "--in", povm_path, "--rule", "dyadic", "--data-out", dyadic],
        ["to-ovf", "--in", trace],
        ["verify-uniqueness", "--in", trace, "--in", dyadic],
        ["roundtrip", "--in", frame],
        ["roundtrip", "--in", frame, "--rule", "dyadic"] + zero,  # zero tolerances
    ]
    assert {argv[0] for argv in runs} == set(cli.COMMANDS)
    numeric = set()
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}.json"
        assert main(argv + ["--out", str(out)]) in (0, 1)
        for check in read_report(out)["checks"]:
            if check["name"] in FLAGS:
                assert set(check) == FLAGS[check["name"]], argv
                continue
            numeric.add(check["name"])
            value, tol = check["value"], check["tolerance"]
            assert check["margin"] == (value / tol if tol else None), argv
            assert check["passed"] == (value <= tol), argv
            assert not set(check) & {"bound", "max_residual", "residual", "drift", "target_error"}
    assert numeric == {"frame", "analysis", "converged", "framed", "hermitian", "additive",
                       "reintegration", "cut", "uniqueness", "equivalence", "operator_preserved",
                       "bounds_preserved"}


def test_a_frame_block_with_no_rows_is_written_and_read_back(tmp_path, capsys):
    """A block of no rows, as the minimal block of a zero density is, is written
    as a height of 0 and read back, from the stack and from a per-matrix copy,
    where it is rows 0; its columns are still checked against dim_h."""
    space = frames.AtomicMeasureSpace(["a", "b", "c"], [1.0, 2.0, 1.0])
    ovf = frames.OperatorValuedFrame(space, 2, [np.eye(2), np.zeros((0, 2)), np.ones((1, 2))])
    blob = frames.ovf_to_json(ovf)
    assert blob["heights"] == [2, 0, 1]
    per_matrix = to_per_matrix(blob)
    assert per_matrix["blocks"][1] == {"rows": 0, "cols": 2, "data": ""}
    for layout in (blob, per_matrix):
        path = write_json(tmp_path / "f.json", layout)
        assert main(["bounds", "--in", path, "--out", str(tmp_path / "b.json")]) == 0
        _, back = cli._load(path, "frame")
        assert [b.shape for b in back.blocks] == [(2, 2), (0, 2), (1, 2)]
        assert all(np.array_equal(b, c) for b, c in zip(back.blocks, ovf.blocks))
    for cols in (1, 3):
        per_matrix["blocks"][1]["cols"] = cols
        stacked = {**blob, "dim_h": cols}  # the stack's entries no longer fill its rows
        for layout in (per_matrix, stacked):
            bad = write_json(tmp_path / "bad.json", layout)
            assert main(["bounds", "--in", bad, "--out", str(tmp_path / "b.json")]) == 2
            assert "ParseError" in capsys.readouterr().err


def stacked_files(kind_paths):
    """{file kind: (table kind, JSON)} for the five kinds whose family is one stack."""
    def load(kind):
        return json.loads(Path(kind_paths[kind]).read_text())

    vector_frame = load("frame")
    ovf = frames.ovf_to_json(from_vector_frame(vector_frame_from_json(vector_frame)))
    return {"ovf": ("frame", ovf), "vector frame": ("frame", vector_frame),
            "coefficients": ("coefficients", load("coefficients")),
            "povm": ("povm", load("povm")), "decomposition": ("decomposition", load("decomposition"))}


# The field of each stacked file that holds its stack.
STACK_FIELDS = {"ovf": "blocks", "vector frame": "vectors", "coefficients": "segments",
                "povm": "elements", "decomposition": "densities"}


def with_heights(heights):
    return lambda blob: {**blob, "heights": heights(blob["heights"])}


def malformed_stacks():
    """(case, file kind, change of its JSON, a word the error names): each change
    leaves a file the stacked path must refuse with a ParseError."""
    for name, key in STACK_FIELDS.items():
        yield "one entry short", name, lambda b, k=key: {
            **b, k: b64_of(entries_of(b[k])[:-1])}, "entries"
        yield "a partial entry", name, lambda b, k=key: {
            **b, k: base64.b64encode(base64.b64decode(b[k]) + bytes(8)).decode("ascii")}, "bytes"
    for name in ("ovf", "coefficients"):
        yield "heights missing", name, lambda b: {
            k: v for k, v in b.items() if k != "heights"}, "heights"
        yield "heights not a list", name, with_heights(sum), "heights"
        for bad in (True, 1.0, -1, "1"):
            yield f"a height of {bad!r}", name, with_heights(lambda h, x=bad: [x] + h[1:]), "heights"
        yield "a height too many", name, with_heights(lambda h: h + [0]), "heights"
        yield "a height too few", name, with_heights(lambda h: h[:-1]), "heights"
        yield "heights that sum past the data", name, with_heights(
            lambda h: [h[0] + 1] + h[1:]), "entries"
    for name in ("ovf", "vector frame", "povm", "decomposition"):
        key = STACK_FIELDS[name]
        yield "dim_h 0", name, lambda b: {**b, "dim_h": 0}, "entries"
        yield "dim_h 10^9 with a short string", name, lambda b, k=key: {
            **b, "dim_h": 10**9, k: b64_of(entries_of(b[k])[:1])}, "entries"
    for name, key in (("povm", "elements"), ("decomposition", "densities")):
        yield "no atoms", name, lambda b, k=key: {**b, "atoms": [], "weights": [], k: ""}, "no atoms"
        yield "no atoms, with data", name, lambda b: {**b, "atoms": [], "weights": []}, "no atoms"


def test_the_stacked_layout_refuses_malformed_files(kind_paths, tmp_path, capsys):
    """A stack whose bytes, heights, dim_h or atoms do not fit together is a
    ParseError that names what is wrong, exit 2, with no report or data file,
    from a command that reads that kind of file."""
    files = stacked_files(kind_paths)
    readers = {"frame": "bounds", "coefficients": "reconstruct", "povm": "decompose",
               "decomposition": "to-ovf"}
    cases = list(malformed_stacks())
    for i, (case, name, change, word) in enumerate(cases):
        kind, blob = files[name]
        path = write_json(tmp_path / f"bad-{i}.json", change(blob))
        command = readers[kind]
        paths = [kind_paths[k] if k != kind else path for k in cli._COMMANDS[command].inputs]
        stem = f"run-{i}"
        code = main([command, *(a for p in paths for a in ("--in", p)),
                     "--out", str(tmp_path / f"{stem}.json")])
        err = capsys.readouterr().err
        assert code == 2 and "ParseError" in err and word in err, (case, name, code, err)
        assert list(tmp_path.glob(f"{stem}.*")) == [], (case, name)
    assert len(cases) == 10 + 2 * 9 + 4 * 2 + 2 * 2


WRITERS = {"ovf": frames.ovf_to_json, "vector frame": frames.vector_frame_to_json,
           "coefficients": frames.coefficients_to_json, "povm": povm.povm_to_json,
           "decomposition": correspondence.decomposition_to_json}
READERS = {"ovf": frames.ovf_from_json, "vector frame": frames.vector_frame_from_json,
           "coefficients": frames.coefficients_from_json, "povm": povm.povm_from_json,
           "decomposition": correspondence.decomposition_from_json}


def test_each_stack_is_decoded_and_encoded_in_one_call(kind_paths, monkeypatch):
    """Loading any of the five stacked kinds decodes its stack in one _decode_array
    call, with no per-matrix parse, and writing it back encodes it in one
    _encode_array call, to the same JSON."""
    for name, (_, blob) in stacked_files(kind_paths).items():
        assert len(entries_of(blob[STACK_FIELDS[name]])) > (blob.get("dim_h") or 1), name
        calls = count_calls(monkeypatch, linalg, "_decode_array", "_encode_array",
                            "matrix_from_json")
        obj = READERS[name](blob)
        assert calls == {"_decode_array": 1, "_encode_array": 0, "matrix_from_json": 0}, name
        assert WRITERS[name](obj) == blob, name
        assert calls == {"_decode_array": 1, "_encode_array": 1, "matrix_from_json": 0}, name
        monkeypatch.undo()


def test_every_layout_is_built_from_the_one_stack(kind_paths, monkeypatch):
    """Each of the five kinds, in each layout, goes through one
    linalg._decode_family call and loads to arrays bit-identical to the stacked
    load's, and no loader calls the per-block constructors of a frame or a
    coefficient field."""
    for name, (_, blob) in stacked_files(kind_paths).items():
        stacked = arrays_of(READERS[name](blob))
        for layout, convert in LAYOUTS:
            copy = convert(blob)
            family = count_calls(monkeypatch, linalg, "_decode_family")
            frame = count_calls(monkeypatch, frames.OperatorValuedFrame, "__init__")
            field = count_calls(monkeypatch, frames.CoefficientField, "__init__")
            arrays = arrays_of(READERS[name](copy))
            assert family == {"_decode_family": 1}, (name, layout)
            assert frame == field == {"__init__": 0}, (name, layout)
            assert len(arrays) == len(stacked), (name, layout)
            assert all(same_bits(a, b) for a, b in zip(arrays, stacked)), (name, layout)
            monkeypatch.undo()


def test_built_frames_take_their_rows_as_one_stack(pair_path, tmp_path, monkeypatch):
    """decomposition_to_ovf and from_vector_frame fill a frame from one array: its
    rows are, byte for byte, each atom's own rows end to end (each density
    factored alone, each vector conjugated), and to-ovf, roundtrip and a
    vector-frame load never call the per-block constructor of a frame."""
    f = VectorFrame(dim_h=3, vectors=complex_box(rng_for(31), (7, 3)))
    assert from_vector_frame(f)._rows.tobytes() == np.concatenate(
        [np.conj(v)[None] for v in f.vectors]).tobytes()
    blocks = [complex_box(rng_for(32), (1 + t % 4, 4)) for t in range(9)]  # ranks 1 .. 4
    space = frames.AtomicMeasureSpace([str(t) for t in range(9)], np.linspace(0.5, 2.0, 9))
    d = correspondence.decompose(correspondence.ovf_to_povm(
        frames.OperatorValuedFrame(space, 4, blocks)))
    minimal = correspondence.decomposition_to_ovf(d)
    per_atom = [linalg._pivoted_cholesky_rows(q[None])[0] for q in d.densities]
    assert [len(t) for t in per_atom] == [1 + t % 4 for t in range(9)]
    assert np.diff(minimal._offsets).tolist() == [len(t) for t in per_atom]
    assert minimal._rows.tobytes() == np.concatenate(per_atom).tobytes()

    data = write_json(tmp_path / "d.json", correspondence.decomposition_to_json(d))
    calls = count_calls(monkeypatch, frames.OperatorValuedFrame, "__init__")
    for argv in (["to-ovf", "--in", data], ["roundtrip", "--in", pair_path]):
        assert main(argv + ["--out", str(tmp_path / f"{argv[0]}.json")]) == 0, argv
    assert isinstance(cli._load(pair_path, "frame")[1], frames.OperatorValuedFrame)
    assert calls == {"__init__": 0}


def test_a_per_atom_list_that_contradicts_its_heights_exits_two(kind_paths, tmp_path, capsys):
    """An OVF or coefficient file in the per-atom layout may give heights, which
    its list must then have: heights that agree load as the stack does, and
    any that differ are a ParseError, exit 2, with no report or data file."""
    files = stacked_files(kind_paths)
    for name, command in (("ovf", "bounds"), ("coefficients", "reconstruct")):
        kind, blob = files[name]
        heights = blob["heights"]
        for i, given in enumerate((heights, [heights[0] + 1] + heights[1:], heights + [0])):
            path = write_json(tmp_path / f"{name}-{i}.json", {**to_per_matrix(blob),
                                                              "heights": given})
            paths = [kind_paths[k] if k != kind else path for k in cli._COMMANDS[command].inputs]
            stem = f"run-{name}-{i}"
            code = main([command, *(a for p in paths for a in ("--in", p)),
                         "--out", str(tmp_path / f"{stem}.json")])
            err = capsys.readouterr().err
            if given == heights:
                assert code in (0, 1), (name, err)
                continue
            assert code == 2 and "ParseError" in err and "heights" in err, (name, given, err)
            assert list(tmp_path.glob(f"{stem}.*")) == [], (name, given)


def arrays_of(obj):
    """The complex arrays a loaded object holds, in order."""
    if isinstance(obj, povm.Povm):
        return list(obj.elements)
    if isinstance(obj, correspondence.Decomposition):
        return list(obj.densities)
    if isinstance(obj, frames.OperatorValuedFrame):
        return list(obj.blocks)
    if isinstance(obj, frames.CoefficientField):
        return list(obj.segments)
    if isinstance(obj, VectorFrame):
        return [obj.vectors]
    return [obj]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_every_data_file_a_command_writes_loads_back_as_its_kind(pair_path, tmp_path):
    """The data file of to-povm, decompose, to-ovf, analyze and reconstruct reads
    back through cli._load as the kind it holds, from a decomposition with a
    zero density too, whose minimal block has no rows.  Every array in it is a
    base64 string; a copy with one base64 array per matrix or atom, and one with
    the arrays as [re, im] pairs, load to the same bits, and the command run on
    such copies of its inputs writes the same bytes."""
    space = frames.AtomicMeasureSpace(["a", "b", "c"], [1.0, 0.5, 2.0])
    d = correspondence.Decomposition(space, [np.eye(2), np.zeros((2, 2)), np.diag([1.0, 2.0])])
    zero = write_json(tmp_path / "zero.json", correspondence.decomposition_to_json(d))
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(random_unit(2, seed=3)))
    kinds = {"povm": "povm", "decomposition": "decomposition", "ovf": "frame",
             "coefficients": "coefficients", "vector": "vector"}
    runs = [
        ("to-povm", [pair_path], "p"),
        ("decompose", [str(tmp_path / "p.data.json")], "d"),
        ("to-ovf", [str(tmp_path / "d.data.json")], "o"),
        ("to-ovf", [zero], "z"),
        ("analyze", [str(tmp_path / "z.data.json"), xpath], "a"),
        ("reconstruct", [str(tmp_path / "z.data.json"), str(tmp_path / "a.data.json")], "r"),
    ]

    def copy_of(path, layout, convert):
        return write_json(tmp_path / f"{layout}-{Path(path).name}",
                          convert(json.loads(Path(path).read_text())))

    loaded = {}
    for command, inputs, stem in runs:
        out = tmp_path / f"{stem}.json"
        assert main([command, *(a for p in inputs for a in ("--in", p)), "--out", str(out)]) == 0
        for layout, convert in LAYOUTS[1:]:
            copies = [copy_of(p, layout, convert) for p in inputs]
            again = tmp_path / f"{stem}-from-{layout}.json"
            assert main([command, *(a for p in copies for a in ("--in", p)),
                         "--out", str(again)]) == 0
            for key, path in read_report(out)["artifacts"].items():
                if path.endswith(".json"):
                    fields = []
                    map_arrays(json.loads(Path(path).read_text()), fields.append)
                    assert fields and all(isinstance(f, str) for f in fields), (stem, key)
                    loaded[stem] = cli._load(path, kinds[key])[1]
                    from_copy = cli._load(copy_of(path, layout, convert), kinds[key])[1]
                    arrays, copy_arrays = arrays_of(loaded[stem]), arrays_of(from_copy)
                    assert len(arrays) == len(copy_arrays), (stem, key, layout)
                    assert all(same_bits(a, b) for a, b in zip(arrays, copy_arrays)), (
                        stem, key, layout)
                    written = read_report(again)["artifacts"][key]
                    assert Path(written).read_bytes() == Path(path).read_bytes(), (
                        stem, key, layout)
    assert sorted(loaded) == ["a", "d", "o", "p", "r", "z"]
    assert [b.shape for b in loaded["z"].blocks] == [(2, 2), (0, 2), (2, 2)]
    assert [len(s) for s in loaded["a"].segments] == [2, 0, 2]
    bound = read_report(tmp_path / "r.json")["summary"]["final_certified_bound"]
    assert np.linalg.norm(loaded["r"] - random_unit(2, seed=3)) <= bound


def test_converged_passes_from_the_crossing_index_on(pair_path, tmp_path):
    xpath = write_json(tmp_path / "x.json", linalg.vector_to_json(random_unit(2, seed=3)))
    assert main(["analyze", "--in", pair_path, "--in", xpath,
                 "--out", str(tmp_path / "a.json")]) == 0
    argv = ["reconstruct", "--in", pair_path, "--in", str(tmp_path / "a.data.json"),
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    crossing = read_report(tmp_path / "r.json")["summary"]["iterations"]
    assert crossing >= 2
    for iters, code, stopped_by in ((crossing, 0, "target_error"), (crossing - 1, 1, "max_iters")):
        assert main(argv + ["--max-iters", str(iters)]) == code
        report = read_report(tmp_path / "r.json")
        converged, certified = report["checks"]
        assert converged["name"] == "converged" and converged["stopped_by"] == stopped_by
        assert converged["passed"] is (code == 0) and certified["passed"] is True
        assert converged["value"] == report["summary"]["final_certified_bound"]
        assert converged["tolerance"] == reconstruction.DEFAULT_TARGET_ERROR


def test_reconstruct_writes_x_n_without_forming_the_iterate_table(tmp_path, monkeypatch):
    """A reconstruct of about 4100 steps (dim 12, 128 atoms, cond(S) = 300) writes
    x(n), the CSV and the report, and no scan forms its table of iterates."""
    heights = [1 + t % 12 for t in range(128)]
    rows = rotated_rows(rng_for(31), sum(heights), 300.0 ** (np.arange(12) / 22.0))
    space = frames.AtomicMeasureSpace([str(t) for t in range(128)], [1.0] * 128)
    ovf = frames.OperatorValuedFrame(space, 12, np.split(rows, np.cumsum(heights)[:-1]))
    frame_path = write_json(tmp_path / "f.json", frames.ovf_to_json(ovf))
    c = frames.analysis(ovf, 10.0 * random_unit(12, seed=5))
    coeff_path = write_json(tmp_path / "c.json", frames.coefficients_to_json(c))
    traces, run_frame_algorithm = [], reconstruction.frame_algorithm

    def recorded(*args):
        traces.append(run_frame_algorithm(*args))
        return traces[-1]

    monkeypatch.setattr(reconstruction, "frame_algorithm", recorded)
    calls = count_calls(monkeypatch, reconstruction, "_iterate_table")
    assert main(["reconstruct", "--in", frame_path, "--in", coeff_path,
                 "--out", str(tmp_path / "r.json")]) == 0
    (trace,) = traces
    report = read_report(tmp_path / "r.json")
    assert report["summary"]["iterations"] == trace.iterations >= 3900
    written = linalg.vector_from_json(json.loads(Path(report["artifacts"]["vector"]).read_text()))
    assert written.tobytes() == trace.final.tobytes()
    assert len(Path(report["artifacts"]["trace"]).read_text().splitlines()) == trace.iterations + 2
    assert calls == {"_iterate_table": 0} and "iterates" not in vars(trace)


def test_hermitian_check_reads_the_largest_residual_against_tol_herm(tmp_path):
    half = np.eye(2) / 2
    scale = 1.0 + np.linalg.norm(half)  # the skew part moves ||A||_F by about 1e-20
    for ratio, code in ((0.95, 0), (1.05, 1)):
        skew = np.zeros((2, 2), dtype=complex)
        skew[0, 1] = ratio * linalg.TOL_HERM * scale / np.sqrt(2.0)  # ||A* - A||_F = sqrt(2) |e|
        elements = np.array([half + skew, half])
        residual = linalg.hermitian_residual(elements[0])
        assert residual == pytest.approx(ratio * linalg.TOL_HERM, rel=1e-6)
        path = write_json(tmp_path / "m.json", povm_to_json(
            povm.Povm(atoms=["a", "b"], dim_h=2, elements=elements)))
        assert main(["validate-povm", "--in", path, "--out", str(tmp_path / "v.json")]) == code
        report = read_report(tmp_path / "v.json")
        hermitian, psd, additive = report["checks"]
        assert hermitian["name"] == "hermitian" and hermitian["tolerance"] == linalg.TOL_HERM
        assert hermitian["value"] == residual
        assert hermitian["passed"] is (code == 0)
        assert hermitian["passed"] is ("NotHermitian" not in report["summary"]["failures"])
        assert psd["passed"] is True and additive["passed"] is True

@pytest.mark.skipif(os.name != "posix", reason="file modes are POSIX")
def test_written_files_take_the_mode_the_umask_leaves(onb_path, tmp_path):
    """Reports and generated files get 0666 less the umask, as open() would give
    them, and an overwritten file takes the umask of the run that overwrites it."""
    out, generated = tmp_path / "report.json", tmp_path / "g.json"
    old = os.umask(0o022)
    try:
        assert main(["bounds", "--in", onb_path, "--out", str(out)]) == 0
        assert main(["generate", "--kind", "frame", "--dim", "2", "--atoms", "3",
                     "--out", str(generated)]) == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in (out, generated)] == [0o644, 0o644]
        os.umask(0o027)
        assert main(["bounds", "--in", onb_path, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
    finally:
        os.umask(old)


def test_json_writes_refuse_nan_and_inf(tmp_path):
    payload = base64.b64encode(bytes(range(256)) * 2).decode("ascii")
    for value in (float("nan"), float("inf"), -float("inf")):
        out = tmp_path / "o.json"
        for obj in ({"x": value}, {"blocks": payload, "weights": [1.0, value]}):
            with pytest.raises(LimitExceeded):
                cli._write_json(str(out), obj)
            assert not out.exists()
    # an array is written as base64, which json.dumps does not read: the codec refuses it
    f = from_vector_frame(VectorFrame(dim_h=2, vectors=[[1, 1], [1, 0], [0, 1]]))
    with np.errstate(over="ignore", invalid="ignore"):
        c = frames.analysis(f, [HUGE, HUGE])  # 2 * HUGE overflows to inf
    assert not np.isfinite(c.segments[0]).all()
    with pytest.raises(LimitExceeded):
        frames.coefficients_to_json(c)


def test_json_writes_pass_payloads_through_with_the_bytes_of_json_dumps(tmp_path, monkeypatch):
    """The base64 text of an array, from linalg._encode_array, goes to the file
    as the same object wherever it is a top-level field, labels that hold "\\x00"
    included; a plain str never does, one with the same text included; and every
    file has the bytes of json.dumps(obj, sort_keys=True).  Nested payloads and
    strings that need escaping take the encoder."""
    payload = linalg._encode_array(np.arange(48) * (1 + 2j))
    other = linalg._encode_array(np.arange(20, 0, -1) * (0.5 - 1j))
    plain = base64.b64encode(bytes(range(256)) * 3).decode("ascii")
    twin = str(payload)  # the payload's text as a plain str
    assert isinstance(payload, str) and type(twin) is str and twin == payload
    assert json.dumps(payload) == json.dumps(twin)
    quote = 'say "x"'
    cases = [
        {"weights": [0.5, 2.0], "blocks": payload, "heights": [1, 2], "atoms": ["b", "a"]},
        {"z": [{"entries": other, "dim": 3}, payload], "a": {"q": payload, "p": "short"},
         "segments": other},
        {"z": other, "dim": 3, "a": payload, "b": plain},
        {"atoms": ["\x00", "t1"], "elements": payload},
        {"atoms": ["a\x00b"], "elements": payload, "twin": twin},
        {"text": quote, "back": "a\\b", "ctl": "a\nb", "uni": "\u00e9", "del": "\x7f",
         "data": payload, "plain": plain},
    ]
    written = []
    write = cli._atomic_write
    monkeypatch.setattr(cli, "_atomic_write", lambda path, *texts: (written.append(texts), write(path, *texts)))
    for obj in cases:
        out = tmp_path / "o.json"
        cli._write_json(str(out), obj)
        assert out.read_bytes() == (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    handed = [sum(t is p for t in texts for p in (payload, other)) for texts in written]
    assert handed == [1, 1, 2, 1, 1, 1]
    assert not any(t is p for texts in written for t in texts for p in (plain, twin))


def test_a_write_never_sets_the_umask(onb_path, tmp_path, monkeypatch):
    """Reports, data files and generated files are written without os.umask,
    which would set the umask of the whole process to read it."""
    def refuse(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", refuse)
    assert main(["to-povm", "--in", onb_path, "--out", str(tmp_path / "p.json")]) == 0
    assert main(["generate", "--kind", "povm", "--dim", "2", "--atoms", "3",
                 "--out", str(tmp_path / "g.json")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g.json", "onb.json", "p.data.json", "p.json"]


def test_a_failed_write_leaves_no_file_and_removes_only_its_own(tmp_path, monkeypatch):
    """A refused write (NaN) and one that fails part way leave neither the
    target nor a temporary file; a file that already has the temporary file's
    name is not the writer's, so it stays as it was."""
    out = tmp_path / "o.json"
    with pytest.raises(LimitExceeded):
        cli._write_json(str(out), {"blocks": linalg._encode_array(np.ones(3)),
                                   "weights": [1.0, float("nan")]})
    with pytest.raises(UnicodeEncodeError):  # the second text has no UTF-8 form
        cli._atomic_write(str(out), "{\"x\": ", "\ud800", "}\n")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(os, "urandom", bytes)  # the temporary name from eight zero bytes
    taken = tmp_path / f".framekit-{bytes(8).hex()}.tmp"
    taken.write_text("not the writer's")
    with pytest.raises(FileExistsError):
        cli._write_json(str(out), {"x": 1})
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "not the writer's"


def test_every_written_json_file_is_canonical(kind_paths, tmp_path):
    """Each *_to_json type through the writer, and every JSON file that each
    command and generate write, holds json.dumps(json.load(f), sort_keys=True)
    and a newline: compact, keys sorted, as the json module writes what it reads."""
    loaded = {kind: cli._load(path, kind)[1] for kind, path in kind_paths.items()}
    objects = {
        "frame": frames.ovf_to_json(loaded["frame"]),
        "vector-frame": vector_frame_to_json(VectorFrame(dim_h=2, vectors=[[1, 2j], [3, 0]])),
        "coefficients": frames.coefficients_to_json(loaded["coefficients"]),
        "povm": povm_to_json(loaded["povm"]),
        "decomposition": correspondence.decomposition_to_json(loaded["decomposition"]),
        "vector": linalg.vector_to_json(loaded["vector"]),
    }
    paths = []
    for name, obj in objects.items():
        paths.append(tmp_path / f"{name}.written.json")
        cli._write_json(str(paths[-1]), obj)
    for name, command in cli._COMMANDS.items():
        out = tmp_path / f"{name}.run.json"
        argv = [a for kind in command.inputs for a in ("--in", kind_paths[kind])]
        assert main([name, *argv, "--out", str(out)]) == 0, name
        paths += [out, *(p for p in read_report(out)["artifacts"].values() if p.endswith(".json"))]
    for kind in ("frame", "povm"):
        paths.append(tmp_path / f"generated-{kind}.json")
        assert main(["generate", "--kind", kind, "--dim", "3", "--atoms", "4",
                     "--out", str(paths[-1])]) == 0
    # the objects, the reports, the data files of to-povm, analyze, reconstruct,
    # decompose and to-ovf, and the generated files
    assert len(paths) == 6 + 9 + 5 + 2
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", path
