"""Batch front end.

Loads frames, POVMs, coefficient fields, and decompositions from JSON
files, runs one named pipeline over them, and writes a RunReport (plus
any data artifacts) back to disk.  Exit status 0 means every check in
the report passed, 1 means at least one failed, 2 means the run errored
before producing a verdict (bad file, wrong arity, module error).

File formats are the per-module JSON schemas; the loader sniffs the type
from the top-level keys ("blocks" = operator frame, "vectors" = vector
frame, "segments" = coefficients, "elements" = POVM, "densities" =
decomposition, "entries" = vector).  All numeric output goes through
Python's shortest round-trip float repr, so files parse back to the
exact same doubles.  Generated inputs come from numpy's PCG64 stream,
which is stable across platforms for a fixed seed.  All writes are
atomic (temp file then rename).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import correspondence as cr
from . import frames, linalg, povm, reconstruction
from .errors import CommandError, FramekitError, LimitExceeded, ParseError

COMMANDS = (
    "bounds",
    "analyze",
    "reconstruct",
    "to-povm",
    "validate-povm",
    "decompose",
    "to-ovf",
    "verify-uniqueness",
    "roundtrip",
)

_ARITY = {
    "bounds": 1,
    "analyze": 2,
    "reconstruct": 2,
    "to-povm": 1,
    "validate-povm": 1,
    "decompose": 1,
    "to-ovf": 1,
    "verify-uniqueness": 2,
    "roundtrip": 1,
}

MAX_GENERATE_DIM = 128
MAX_GENERATE_ATOMS = 256
_GENERATE_ATTEMPTS = 100

# Default tolerances for the report checks; override per run with --tol.
DEFAULT_CHECK_TOLERANCES = {
    "bounds_rel": 1e-9,       # roundtrip: relative drift of the frame bounds
    "equivalence": None,      # verify-uniqueness/roundtrip: None = report's own scaled tolerance
    "decomp": None,           # decompose: None = reintegration tolerance from the modules
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI invocation, resolved."""

    command: str
    input_paths: tuple[str, ...]
    output_path: str
    seed: int = 0
    tolerance_overrides: dict = field(default_factory=dict)
    rule: str = "trace"
    target_error: float = reconstruction.DEFAULT_TARGET_ERROR
    max_iters: int = reconstruction.DEFAULT_MAX_ITERS
    data_path: Optional[str] = None
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise CommandError(f"unknown command {self.command!r}")
        want = _ARITY[self.command]
        if len(self.input_paths) != want:
            raise CommandError(
                f"{self.command} takes {want} input file(s), got {len(self.input_paths)}"
            )
        if self.rule not in ("trace", "dyadic"):
            raise CommandError(f"unknown rule {self.rule!r}")


@dataclass
class RunReport:
    """What happened: input hashes, per-check verdicts, numeric summaries."""

    command: str
    inputs: list
    seed: int
    tolerance_overrides: dict
    checks: list
    summary: dict
    artifacts: dict
    elapsed_ns: int

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "tolerance_overrides": self.tolerance_overrides,
            "checks": self.checks,
            "passed": self.passed,
            "summary": self.summary,
            "artifacts": self.artifacts,
            "elapsed_ns": self.elapsed_ns,
        }


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}") from exc


_SNIFF = (
    ("blocks", "ovf", frames.ovf_from_json),
    ("vectors", "vector-frame", frames.vector_frame_from_json),
    ("segments", "coefficients", frames.coefficients_from_json),
    ("elements", "povm", povm.povm_from_json),
    ("densities", "decomposition", cr.decomposition_from_json),
    ("entries", "vector", linalg.vector_from_json),
)


def _load_typed(path: str):
    """(kind, object) for a data file, chosen by its top-level keys."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    for key, kind, parse in _SNIFF:
        if key in obj:
            try:
                return kind, parse(obj)
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}") from exc
    raise ParseError(f"{path}: unrecognized file (no known type field)")


def _expect(path: str, kinds: tuple[str, ...]):
    kind, obj = _load_typed(path)
    if kind not in kinds:
        raise CommandError(f"{path}: expected {' or '.join(kinds)}, found {kind}")
    return kind, obj


def _as_ovf(path: str) -> frames.OperatorValuedFrame:
    kind, obj = _expect(path, ("ovf", "vector-frame"))
    if kind == "vector-frame":
        return frames.from_vector_frame(obj)
    return obj


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".framekit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _derived(output_path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(output_path)
    return stem + suffix


def _check(name: str, passed: bool, **detail) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(detail)
    return entry


def _dyadic_rule(dim_h: int) -> cr.ReferenceMeasureRule:
    basis = [np.eye(dim_h, dtype=np.complex128)[:, j] for j in range(dim_h)]
    return cr.ReferenceMeasureRule(kind="dyadic-sequence", sequence=basis)


def _measure_rule(cfg: ExperimentConfig, dim_h: int) -> cr.ReferenceMeasureRule:
    if cfg.rule == "dyadic":
        return _dyadic_rule(dim_h)
    return cr.TRACE_RULE


# --- command handlers --------------------------------------------------------
# Each returns (checks, summary, artifacts); run() assembles the report.


def _cmd_bounds(cfg: ExperimentConfig):
    ovf = _as_ovf(cfg.input_paths[0])
    b = frames.frame_bounds(ovf)
    checks = [_check("frame", True, lower=b.lower, upper=b.upper)]
    summary = {"lower": b.lower, "upper": b.upper, "tight": b.is_tight, "dim_h": ovf.dim_h,
               "atoms": len(ovf.space)}
    return checks, summary, {}


def _cmd_analyze(cfg: ExperimentConfig):
    ovf = _as_ovf(cfg.input_paths[0])
    _, x = _expect(cfg.input_paths[1], ("vector",))
    c = frames.analysis(ovf, x)
    data_path = cfg.data_path or _derived(cfg.output_path, ".data.json")
    _write_json(data_path, frames.coefficients_to_json(c))
    checks = [_check("analysis", True)]
    summary = {"weighted_norm_sq": c.weighted_norm_sq(), "atoms": len(c.space)}
    return checks, summary, {"coefficients": data_path}


def _cmd_reconstruct(cfg: ExperimentConfig):
    ovf = _as_ovf(cfg.input_paths[0])
    _, c = _expect(cfg.input_paths[1], ("coefficients",))
    rc = reconstruction.ReconstructionConfig(
        max_iters=cfg.max_iters, target_error=cfg.target_error
    )
    trace = reconstruction.frame_algorithm(ovf, c, rc)
    data_path = cfg.data_path or _derived(cfg.output_path, ".data.json")
    trace_path = cfg.trace_path or _derived(cfg.output_path, ".trace.csv")
    _write_json(data_path, linalg.vector_to_json(trace.final))
    _atomic_write(trace_path, reconstruction.trace_to_csv(trace))
    checks = [
        _check("converged", trace.stopped_by == "target_error",
               stopped_by=trace.stopped_by, target_error=cfg.target_error),
        _check("certified", trace.certified),
    ]
    summary = {
        "iterations": trace.iterations,
        "final_certified_bound": trace.certified_bounds[-1],
        "rate": trace.rate,
        "lower": trace.bounds.lower,
        "upper": trace.bounds.upper,
    }
    return checks, summary, {"vector": data_path, "trace": trace_path}


def _cmd_to_povm(cfg: ExperimentConfig):
    ovf = _as_ovf(cfg.input_paths[0])
    m = cr.ovf_to_povm(ovf)
    report = povm.validate(m, seed=cfg.seed)
    framed = povm.is_framed(m)
    data_path = cfg.data_path or _derived(cfg.output_path, ".data.json")
    _write_json(data_path, povm.povm_to_json(m))
    checks = [
        _check("povm_valid", report.passed, failures=list(report.failures)),
        _check("framed", framed.framed, lower=framed.lower, upper=framed.upper),
    ]
    summary = {
        "max_additivity_residual": report.max_additivity_residual,
        "lower": framed.lower,
        "upper": framed.upper,
        "atoms": len(m.atoms),
    }
    return checks, summary, {"povm": data_path}


def _cmd_validate_povm(cfg: ExperimentConfig):
    _, m = _expect(cfg.input_paths[0], ("povm",))
    report = povm.validate(m, seed=cfg.seed)
    framed = povm.is_framed(m)
    checks = [
        _check("hermitian", "NotHermitian" not in report.failures),
        _check("psd", "NotPsd" not in report.failures),
        _check("additive", "NotAdditive" not in report.failures,
               max_residual=report.max_additivity_residual,
               tolerance=report.additivity_tolerance),
    ]
    summary = report.to_json()
    summary["framed"] = framed.framed
    summary["lower"] = framed.lower
    summary["upper"] = framed.upper
    return checks, summary, {}


def _cmd_decompose(cfg: ExperimentConfig):
    _, m = _expect(cfg.input_paths[0], ("povm",))
    rule = _measure_rule(cfg, m.dim_h)
    d = cr.decompose(m, rule)
    max_res, mean_res = cr.reintegration_residuals(m, d, seed=cfg.seed)
    tol = cfg.tolerance_overrides.get("decomp")
    if tol is None:
        tol = cr.TOL_DECOMP_REL * (1.0 + linalg.frobenius(m.total()))
    data_path = cfg.data_path or _derived(cfg.output_path, ".data.json")
    _write_json(data_path, cr.decomposition_to_json(d))
    checks = [_check("reintegration", max_res <= tol, max_residual=max_res, tolerance=tol)]
    summary = {
        "rule": cfg.rule,
        "atoms_kept": len(d.measure),
        "max_reintegration_residual": max_res,
        "mean_reintegration_residual": mean_res,
    }
    return checks, summary, {"decomposition": data_path}


def _cmd_to_ovf(cfg: ExperimentConfig):
    _, d = _expect(cfg.input_paths[0], ("decomposition",))
    ovf = cr.decomposition_to_ovf(d)
    b = frames.frame_bounds(ovf)
    data_path = cfg.data_path or _derived(cfg.output_path, ".data.json")
    _write_json(data_path, frames.ovf_to_json(ovf))
    checks = [_check("framed", True, lower=b.lower, upper=b.upper)]
    summary = {"lower": b.lower, "upper": b.upper, "dim_h": ovf.dim_h}
    return checks, summary, {"ovf": data_path}


def _cmd_verify_uniqueness(cfg: ExperimentConfig):
    _, d1 = _expect(cfg.input_paths[0], ("decomposition",))
    _, d2 = _expect(cfg.input_paths[1], ("decomposition",))
    report = cr.verify_uniqueness(d1, d2)
    tol = cfg.tolerance_overrides.get("equivalence")
    if tol is None:
        tol = report.tolerance
    checks = [_check("uniqueness", report.max_residual <= tol,
                     max_residual=report.max_residual, tolerance=tol)]
    summary = report.to_json()
    return checks, summary, {}


def _cmd_roundtrip(cfg: ExperimentConfig):
    ovf = _as_ovf(cfg.input_paths[0])
    b0 = frames.frame_bounds(ovf)
    m = cr.ovf_to_povm(ovf)
    rule = _measure_rule(cfg, m.dim_h)
    d = cr.decompose(m, rule)  # validates m; InvalidPovm (exit 2) if it fails
    reint_max, _ = cr.reintegration_residuals(m, d, seed=cfg.seed)
    ovf2 = cr.decomposition_to_ovf(d)
    b1 = frames.frame_bounds(ovf2)
    equiv = cr.verify_ovf_equivalence(ovf, ovf2)

    s0 = frames.frame_operator(ovf)
    s1 = frames.frame_operator(ovf2)
    # The recovered frame may live on fewer atoms (zero-weight drops), but
    # its frame operator must be the same matrix.
    operator_residual = linalg.frobenius(s0 - s1) / (1.0 + linalg.frobenius(s0))
    bounds_drift = max(
        abs(b1.lower - b0.lower) / b0.lower, abs(b1.upper - b0.upper) / b0.upper
    )

    tol_bounds = cfg.tolerance_overrides.get("bounds_rel", DEFAULT_CHECK_TOLERANCES["bounds_rel"])
    tol_equiv = cfg.tolerance_overrides.get("equivalence")
    if tol_equiv is None:
        tol_equiv = equiv.tolerance
    tol_decomp = cfg.tolerance_overrides.get("decomp")
    if tol_decomp is None:
        tol_decomp = cr.TOL_DECOMP_REL * (1.0 + linalg.frobenius(m.total()))

    checks = [
        _check("reintegration", reint_max <= tol_decomp,
               max_residual=reint_max, tolerance=tol_decomp),
        _check("equivalence", equiv.max_residual <= tol_equiv,
               max_residual=equiv.max_residual, tolerance=tol_equiv),
        _check("operator_preserved", operator_residual <= tol_bounds,
               residual=operator_residual, tolerance=tol_bounds),
        _check("bounds_preserved", bounds_drift <= tol_bounds,
               drift=bounds_drift, tolerance=tol_bounds),
    ]
    summary = {
        "rule": cfg.rule,
        "max_residual": max(reint_max, equiv.max_residual, operator_residual),
        "lower": b0.lower,
        "upper": b0.upper,
        "recovered_lower": b1.lower,
        "recovered_upper": b1.upper,
    }
    return checks, summary, {}


_HANDLERS = {
    "bounds": _cmd_bounds,
    "analyze": _cmd_analyze,
    "reconstruct": _cmd_reconstruct,
    "to-povm": _cmd_to_povm,
    "validate-povm": _cmd_validate_povm,
    "decompose": _cmd_decompose,
    "to-ovf": _cmd_to_ovf,
    "verify-uniqueness": _cmd_verify_uniqueness,
    "roundtrip": _cmd_roundtrip,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one command, write its report and artifacts, return the report."""
    start = time.perf_counter_ns()
    inputs = [{"path": p, "sha256": _sha256(p)} for p in cfg.input_paths]
    checks, summary, artifacts = _HANDLERS[cfg.command](cfg)
    report = RunReport(
        command=cfg.command,
        inputs=inputs,
        seed=cfg.seed,
        tolerance_overrides=dict(cfg.tolerance_overrides),
        checks=checks,
        summary=summary,
        artifacts=artifacts,
        elapsed_ns=time.perf_counter_ns() - start,
    )
    _write_json(cfg.output_path, report.to_json())
    return report


# --- input generation --------------------------------------------------------


def generate_random(kind: str, dim: int, atoms: int, seed: int, output_path: str) -> None:
    """Write a random vector frame or framed POVM, deterministic per seed."""
    if kind not in ("frame", "povm"):
        raise CommandError(f"unknown kind {kind!r}")
    if dim < 1 or atoms < 1:
        raise CommandError("dim and atoms must be positive")
    if dim > MAX_GENERATE_DIM:
        raise LimitExceeded(f"dim {dim} exceeds {MAX_GENERATE_DIM}")
    if atoms > MAX_GENERATE_ATOMS:
        raise LimitExceeded(f"atoms {atoms} exceeds {MAX_GENERATE_ATOMS}")
    if kind == "frame" and atoms < dim:
        raise CommandError(f"a frame over C^{dim} needs at least {dim} vectors, got {atoms}")
    rng = np.random.Generator(np.random.PCG64(seed))

    if kind == "frame":
        for _ in range(_GENERATE_ATTEMPTS):
            vecs = rng.uniform(-1.0, 1.0, (atoms, dim)) + 1j * rng.uniform(-1.0, 1.0, (atoms, dim))
            try:
                f = frames.VectorFrame(dim_h=dim, vectors=list(vecs))
                frames.from_vector_frame(f)
            except FramekitError:
                continue
            _write_json(output_path, frames.vector_frame_to_json(f))
            return
        raise CommandError(f"no frame found in {_GENERATE_ATTEMPTS} attempts")

    for _ in range(_GENERATE_ATTEMPTS):
        elements = []
        for _ in range(atoms):
            g = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
            elements.append(linalg.hermitize(linalg.adjoint(g) @ g))
        total = linalg.hermitize(sum(elements))
        top = float(linalg.hermitian_eigen(total).eigenvalues[-1])
        if top <= 0.0:
            continue
        elements = [e / top for e in elements]
        m = povm.Povm(atoms=[str(i) for i in range(atoms)], dim_h=dim, elements=elements)
        if not povm.is_framed(m).framed:
            continue
        _write_json(output_path, povm.povm_to_json(m))
        return
    raise CommandError(f"no framed POVM found in {_GENERATE_ATTEMPTS} attempts")


# --- argument parsing --------------------------------------------------------


def _parse_tol(pairs) -> dict:
    out = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CommandError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise CommandError(f"--tol {name}: {value!r} is not a number") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Frame and POVM pipelines over JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inputs):
        p.add_argument("--in", dest="inputs", action="append", required=True,
                       metavar="FILE", help=f"input file ({inputs})")
        p.add_argument("--out", dest="out", required=True, metavar="FILE",
                       help="run report JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help="tolerance override, repeatable")
        p.add_argument("--data-out", dest="data_out", metavar="FILE",
                       help="data artifact path (default: derived from --out)")

    p = sub.add_parser("bounds", help="frame bounds of a frame file")
    add_common(p, "frame")
    p = sub.add_parser("analyze", help="coefficients of a vector under a frame")
    add_common(p, "frame, vector")
    p = sub.add_parser("reconstruct", help="iterative reconstruction from coefficients")
    add_common(p, "frame, coefficients")
    p.add_argument("--target-error", type=float, default=reconstruction.DEFAULT_TARGET_ERROR)
    p.add_argument("--max-iters", type=int, default=reconstruction.DEFAULT_MAX_ITERS)
    p.add_argument("--trace-out", dest="trace_out", metavar="FILE",
                   help="iteration trace CSV (default: derived from --out)")
    p = sub.add_parser("to-povm", help="POVM a frame gives rise to")
    add_common(p, "frame")
    p = sub.add_parser("validate-povm", help="POVM axioms and framedness")
    add_common(p, "povm")
    p = sub.add_parser("decompose", help="reference measure and densities of a POVM")
    add_common(p, "povm")
    p.add_argument("--rule", choices=("trace", "dyadic"), default="trace")
    p = sub.add_parser("to-ovf", help="frame with blocks Q^{1/2} from a decomposition")
    add_common(p, "decomposition")
    p = sub.add_parser("verify-uniqueness", help="weighted density identity of two decompositions")
    add_common(p, "decomposition x2")
    p = sub.add_parser("roundtrip", help="frame -> POVM -> decomposition -> frame closure")
    add_common(p, "frame")
    p.add_argument("--rule", choices=("trace", "dyadic"), default="trace")

    p = sub.add_parser("generate", help="write a random frame or POVM file")
    p.add_argument("--kind", choices=("frame", "povm"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out", required=True, metavar="FILE")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            generate_random(args.kind, args.dim, args.atoms, args.seed, args.out)
            print(args.out)
            return 0
        cfg = ExperimentConfig(
            command=args.command,
            input_paths=tuple(args.inputs),
            output_path=args.out,
            seed=args.seed,
            tolerance_overrides=_parse_tol(args.tol),
            rule=getattr(args, "rule", "trace"),
            target_error=getattr(args, "target_error", reconstruction.DEFAULT_TARGET_ERROR),
            max_iters=getattr(args, "max_iters", reconstruction.DEFAULT_MAX_ITERS),
            data_path=getattr(args, "data_out", None),
            trace_path=getattr(args, "trace_out", None),
        )
        report = run(cfg)
    except FramekitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for c in report.checks:
        verdict = "PASS" if c["passed"] else "FAIL"
        print(f"[{verdict}] {c['name']}")
    print(f"report: {cfg.output_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
