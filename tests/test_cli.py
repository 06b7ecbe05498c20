"""End-to-end runs of the command line against temp files."""

import json
from pathlib import Path

import numpy as np
import pytest

from framekit import VectorFrame, linalg
from framekit.cli import ExperimentConfig, generate_random, main, run
from framekit.errors import CommandError, LimitExceeded
from framekit.frames import vector_frame_to_json

from conftest import random_unit


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
        "reintegration", "equivalence", "operator_preserved", "bounds_preserved"]


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
    trace_lines = Path(report["artifacts"]["trace"]).read_text().splitlines()
    assert trace_lines[0] == "iter,certified_bound,actual_error,elapsed_ns"
    assert len(trace_lines) == report["summary"]["iterations"] + 2


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


def test_reports_are_deterministic_apart_from_timing(pair_path, tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["roundtrip", "--in", pair_path, "--out", str(o1), "--seed", "5"])
    main(["roundtrip", "--in", pair_path, "--out", str(o2), "--seed", "5"])
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


def test_run_reports_input_hashes(pair_path, tmp_path):
    cfg = ExperimentConfig(command="bounds", input_paths=(pair_path,),
                           output_path=str(tmp_path / "o.json"))
    report = run(cfg)
    assert len(report.inputs) == 1
    assert len(report.inputs[0]["sha256"]) == 64
