"""Batch front end.

Loads frames, POVMs, coefficient fields, and decompositions from JSON
files, runs one named pipeline over them, and writes a RunReport (plus
any data artifacts) back to disk.  Exit status 0 means every check in
the report passed, 1 means at least one failed, 2 means the run errored
before producing a verdict (bad or wrong-kind file, wrong arity, negative
generate --seed, unknown --tol name or non-finite value, --max-iters above
MAX_RECONSTRUCT_ITERS, module error).

One table, _COMMANDS, lists the pipeline commands: each entry's handler,
the kind of each --in file (so its arity) and its help text.  Dispatch,
the arity check, input loading and the argparse tree are all derived
from it; the tree is built once, at import.  DEFAULT_CHECK_TOLERANCES maps
the --tol names to entries of linalg's tolerance table.  Every numeric
check is decided by _check; certified, povm_valid and psd are flags.
The frame checks (_frame_check) read a frame's bounds only in bounds; to-povm
and to-ovf take the condition bound the frame was accepted with.  roundtrip
bounds the drift of the bounds from the loaded frame's kept factor
(_drift_certificate) and diagonalizes both frames only where that bound cannot
pass the check.  So of the pipeline commands only bounds and reconstruct always
diagonalize a frame.

run() reads each --in once, hashes its bytes for the report, and passes
the handler the object they hold.  A file's kind comes from its top-level
keys ("blocks" = operator frame, "vectors" = vector frame, both kind
frame; "segments" = coefficients, "elements" = povm, "densities" =
decomposition, "entries" = vector) and is checked before parsing.  Every
complex array in a data file is one base64 string of its little-endian
float64 (re, im) bytes: a per-atom family (elements, densities, blocks with
their "heights", segments with theirs, vectors) is one string for the whole
stack, decoded in one call.  Every other number goes through Python's
shortest round-trip float repr, so files parse back to the exact same
doubles.  Inputs may also hold a family as a list of one matrix or array
per atom, and arrays as lists of [re, im] pairs, as older files do; the
JSON type of the field picks the reader.  Generated inputs come from numpy's
PCG64 stream, which is stable across platforms for a fixed seed.
Every file is written to a new temporary file that open() creates, so with
0666 less the umask, and renamed into place.  A JSON file has the bytes of
json.dumps(obj, sort_keys=True): _write_json writes a base64 array, known by
its type (linalg._Base64), as it is, and every other value through one
json.JSONEncoder.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import correspondence as cr
from . import frames, linalg, povm, reconstruction
from .errors import CommandError, FramekitError, LimitExceeded, ParseError

MAX_GENERATE_DIM = 128
MAX_GENERATE_ATOMS = 256
# reconstruct keeps max_iters + 1 powers of the rate, and its trace one bound, one time
# stamp and one CSV line an iteration, so --max-iters is capped before anything is formed
MAX_RECONSTRUCT_ITERS = 10 ** 6
_GENERATE_ATTEMPTS = 100

_RULES = ("trace", "dyadic")

# The --tol names and their defaults; None = the tolerance the check scales to its inputs.
DEFAULT_CHECK_TOLERANCES = {
    "bounds_rel": linalg.TOL_BOUNDS_REL,  # roundtrip: drift of the frame operator and bounds
    "equivalence": None,  # verify-uniqueness/roundtrip: the uniqueness report's own tolerance
    "decomp": None,       # decompose/to-ovf/roundtrip: TOL_DECOMP_REL * (1 + ||M(Omega)||_F)
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI invocation, resolved."""

    command: str
    input_paths: tuple[str, ...]
    output_path: str
    tolerance_overrides: dict = field(default_factory=dict)
    rule: str = "trace"
    target_error: float = reconstruction.DEFAULT_TARGET_ERROR
    max_iters: int = reconstruction.DEFAULT_MAX_ITERS
    data_path: Optional[str] = None
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise CommandError(f"unknown command {self.command!r}")
        want = len(_COMMANDS[self.command].inputs)
        if len(self.input_paths) != want:
            raise CommandError(
                f"{self.command} takes {want} input file(s), got {len(self.input_paths)}"
            )
        if self.rule not in _RULES:
            raise CommandError(f"unknown rule {self.rule!r}")
        if self.max_iters > MAX_RECONSTRUCT_ITERS:
            raise LimitExceeded(f"--max-iters {self.max_iters} exceeds {MAX_RECONSTRUCT_ITERS}")
        unknown = sorted(set(self.tolerance_overrides) - set(DEFAULT_CHECK_TOLERANCES))
        if unknown:
            raise CommandError(f"unknown --tol name {', '.join(unknown)}; "
                               f"known: {', '.join(DEFAULT_CHECK_TOLERANCES)}")


@dataclass
class RunReport:
    """What happened: input hashes, per-check verdicts, numeric summaries."""

    command: str
    inputs: list
    tolerance_overrides: dict
    checks: list
    summary: dict
    artifacts: dict
    elapsed_ns: int

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> dict:
        return {**vars(self), "passed": self.passed}


_SNIFF = (  # (identifying key, table kind, parser); looked up at call time
    ("blocks", "frame", frames.ovf_from_json),
    ("vectors", "frame", frames.vector_frame_from_json),
    ("segments", "coefficients", frames.coefficients_from_json),
    ("elements", "povm", povm.povm_from_json),
    ("densities", "decomposition", cr.decomposition_from_json),
    ("entries", "vector", linalg.vector_from_json),
)


def _read(path: str):
    """(sha256 of the file's bytes, the JSON they hold); the file is read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
        del data  # hold one copy of the file while it is parsed
        return digest, json.loads(text)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def _load(path: str, kind: str):
    """(sha256, object of table kind `kind`) of a file; its kind is checked before parsing."""
    digest, obj = _read(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    for key, found, parse in _SNIFF:
        if key in obj:
            break
    else:
        raise ParseError(f"{path}: unrecognized file (no known type field)")
    if found != kind:
        raise CommandError(f"{path}: expected {kind}, found {found}")
    try:
        obj = parse(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if isinstance(obj, frames.VectorFrame):
        obj = frames.from_vector_frame(obj)
    return digest, obj


# Characters per write: text encoded whole would be copied whole, and the data
# file of a large stack is tens of MB.
_WRITE_CHUNK = 1 << 20


def _atomic_write(path: str, *texts: str) -> None:
    """Write the texts, one after another, to a new temporary file renamed to
    ``path``.  open() creates it, so it has 0666 less the umask, as ``path``
    would; on failure only that file is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".framekit-{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # a name already taken is not ours to remove
    try:
        with fh:
            for text in texts:
                for lo in range(0, len(text), _WRITE_CHUNK):
                    fh.write(text[lo:lo + _WRITE_CHUNK])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _write_json(path: str, obj: dict) -> None:
    """Write standard JSON only: a NaN or an infinity is an error (LimitExceeded), not a token.

    The file has the bytes of json.dumps(obj, sort_keys=True).  Its top-level
    fields are written one at a time, in key order: a base64 array
    (linalg._Base64, the stack of every data file) goes to the file as it is,
    not copied into an encoded text, and every other value through the encoder."""
    texts, sep = ["{"], ""
    try:
        for key in sorted(obj):
            value = obj[key]
            texts.append(f"{sep}{_ENCODER.encode(key)}: ")
            if isinstance(value, linalg._Base64):
                texts += ['"', value, '"']
            else:
                texts.append(_ENCODER.encode(value))
            sep = ", "
    except ValueError as exc:
        raise LimitExceeded(f"{path}: {exc}") from exc
    _atomic_write(path, *texts, "}\n")


def _derived(output_path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(output_path)
    return stem + suffix


def _write_data(cfg: ExperimentConfig, payload) -> str:
    """Write the command's data artifact to --data-out or <out>.data.json; return the path."""
    path = cfg.data_path or _derived(cfg.output_path, ".data.json")
    _write_json(path, payload)
    return path


def _check(name: str, value: float, tolerance: float, **context) -> dict:
    """A numeric check: it passes iff value and tolerance are both finite and
    value <= tolerance, since no comparison with inf or NaN certifies anything.
    Its margin is value / tolerance, None for a zero tolerance."""
    passed = bool(math.isfinite(value) and math.isfinite(tolerance) and value <= tolerance)
    return {"name": name, "passed": passed, "value": value, "tolerance": tolerance,
            "margin": value / tolerance if tolerance else None, **context}


def _frame_check(name: str, bound) -> dict:
    """The frame operator is positive definite beyond the frame tolerance,
    lambda_min > TOL_FRAME_REL * lambda_max: value TOL_FRAME_REL * condition
    against 1, for a bound on lambda_max / lambda_min.  ``bound`` is either the
    FrameBounds of ``bounds`` (condition upper / lower, value TOL_FRAME_REL *
    upper / lower, reported beside them) or the bound a frame was accepted with,
    ``OperatorValuedFrame._condition``, which ``to-povm`` and ``to-ovf`` pass so
    that they diagonalize nothing.  Every frame passes but one whose eigenvalues
    pass the frame test within the sweeps' rounding allowance of its threshold
    (``frames._swept_condition``), which no bound can then hold below
    1 / TOL_FRAME_REL."""
    if isinstance(bound, frames.FrameBounds):
        return _check(name, linalg.TOL_FRAME_REL * bound.upper / bound.lower, 1.0,
                      lower=bound.lower, upper=bound.upper)
    return _check(name, linalg.TOL_FRAME_REL * bound, 1.0)


def _decomp_tolerance(cfg: ExperimentConfig, total: np.ndarray) -> float:
    """The decomp tolerance for M(Omega) = total, or its --tol override."""
    return cfg.tolerance_overrides.get("decomp", cr._reintegration_tolerance(total))


def _reintegration_check(cfg: ExperimentConfig, m: povm.Povm, d: cr.Decomposition) -> dict:
    """Every event of m reintegrates from d: the O(N) bound against the tolerance."""
    return _check("reintegration", cr.reintegration_bound(m, d), _decomp_tolerance(cfg, m.total()))


def _dyadic_rule(dim_h: int) -> cr.ReferenceMeasureRule:
    basis = np.eye(dim_h, dtype=np.complex128)  # one basis vector per row
    return cr.ReferenceMeasureRule(kind="dyadic-sequence", sequence=basis)


def _measure_rule(cfg: ExperimentConfig, dim_h: int) -> cr.ReferenceMeasureRule:
    if cfg.rule == "dyadic":
        return _dyadic_rule(dim_h)
    return cr.TRACE_RULE


# --- command handlers --------------------------------------------------------
# Each takes the loaded --in objects, in table order, and returns
# (checks, summary, artifacts); run() assembles the report.


def _cmd_bounds(cfg: ExperimentConfig, ovf: frames.OperatorValuedFrame):
    b = frames.frame_bounds(ovf)
    checks = [_frame_check("frame", b)]
    summary = {"lower": b.lower, "upper": b.upper, "tight": b.is_tight, "dim_h": ovf.dim_h,
               "atoms": len(ovf.space)}
    return checks, summary, {}


def _cmd_analyze(cfg: ExperimentConfig, ovf: frames.OperatorValuedFrame, x: np.ndarray):
    c = frames.analysis(ovf, x)
    # the energy identity sum_t mu_t ||c_t||^2 = ||R x||^2 on the kept factor, before any write
    checks = [_check("analysis", frames._energy_residual(ovf, x, c), linalg.TOL_ENERGY_REL)]
    data_path = _write_data(cfg, frames.coefficients_to_json(c))
    summary = {"weighted_norm_sq": c.weighted_norm_sq(), "atoms": len(c.space)}
    return checks, summary, {"coefficients": data_path}


def _cmd_reconstruct(cfg: ExperimentConfig, ovf: frames.OperatorValuedFrame,
                     c: frames.CoefficientField):
    rc = reconstruction.ReconstructionConfig(
        max_iters=cfg.max_iters, target_error=cfg.target_error
    )
    trace = reconstruction.frame_algorithm(ovf, c, rc)
    data_path = _write_data(cfg, linalg.vector_to_json(trace.final))
    trace_path = cfg.trace_path or _derived(cfg.output_path, ".trace.csv")
    _atomic_write(trace_path, reconstruction.trace_to_csv(trace))
    final_bound = float(trace.certified_bounds[-1])  # a Python float in the report
    checks = [
        # passes iff stopped_by == "target_error": the bounds stop at the first <= it
        _check("converged", final_bound, cfg.target_error, stopped_by=trace.stopped_by),
        {"name": "certified", "passed": trace.certified},
    ]
    summary = {
        "iterations": trace.iterations,
        "final_certified_bound": final_bound,
        "rate": trace.rate,
        "lower": trace.bounds.lower,
        "upper": trace.bounds.upper,
    }
    return checks, summary, {"vector": data_path, "trace": trace_path}


def _cmd_to_povm(cfg: ExperimentConfig, ovf: frames.OperatorValuedFrame):
    m = cr.ovf_to_povm(ovf)
    report = povm.validate(m)
    data_path = _write_data(cfg, povm.povm_to_json(m))
    checks = [
        {"name": "povm_valid", "passed": report.passed, "failures": list(report.failures)},
        _frame_check("framed", ovf._condition),  # M(Omega) is the frame operator
    ]
    summary = {
        "max_additivity_residual": report.max_additivity_residual,
        "atoms": len(m.atoms),
    }
    return checks, summary, {"povm": data_path}


def _cmd_validate_povm(cfg: ExperimentConfig, m: povm.Povm):
    report = povm.validate(m)
    framed = povm.is_framed(m)
    checks = [
        _check("hermitian", max(report.hermiticity_residuals), linalg.TOL_HERM),
        {"name": "psd", "passed": povm.FAIL_NOT_PSD not in report.failures},
        _check("additive", report.max_additivity_residual, report.additivity_tolerance),
    ]
    summary = report.to_json()
    summary["framed"] = framed.framed
    summary["lower"] = framed.lower
    summary["upper"] = framed.upper
    return checks, summary, {}


def _cmd_decompose(cfg: ExperimentConfig, m: povm.Povm):
    rule = _measure_rule(cfg, m.dim_h)
    d = cr.decompose(m, rule)
    reintegration = _reintegration_check(cfg, m, d)
    data_path = _write_data(cfg, cr.decomposition_to_json(d))
    checks = [reintegration]
    summary = {
        "rule": cfg.rule,
        "atoms_kept": len(d.measure),
        "reintegration_bound": reintegration["value"],
    }
    return checks, summary, {"decomposition": data_path}


def _cmd_to_ovf(cfg: ExperimentConfig, d: cr.Decomposition):
    ovf = cr.decomposition_to_ovf(d)
    data_path = _write_data(cfg, frames.ovf_to_json(ovf))
    # the minimal blocks miss the densities by at most cut_bound
    cut = _check("cut", cr.cut_bound(d), _decomp_tolerance(cfg, d.reintegrate()))
    checks = [_frame_check("framed", ovf._condition), cut]
    summary = {"dim_h": ovf.dim_h}
    return checks, summary, {"ovf": data_path}


def _cmd_verify_uniqueness(cfg: ExperimentConfig, d1: cr.Decomposition, d2: cr.Decomposition):
    report = cr.verify_uniqueness(d1, d2)
    tol = cfg.tolerance_overrides.get("equivalence", report.tolerance)
    checks = [_check("uniqueness", report.max_residual, tol)]
    summary = report.to_json()
    return checks, summary, {}


def _drift_certificate(ovf: frames.OperatorValuedFrame, gap: float):
    """A bound on the drift max(|A1 - A0| / A0, |B1 - B0| / B0) of the extreme
    eigenvalues A0 <= B0 of S0 = frame_operator(ovf) to those of any Hermitian
    S1 with gap = ||S0 - S1||_F as computed, read from the frame's kept factor
    with no eigenpair; inf where its rounding terms reach 1/2.

    By Weyl's inequality each eigenvalue of S1 lies within ||S0 - S1||_2 <=
    ||S0 - S1||_F of the same-index eigenvalue of S0, so both drifts are at
    most ||S0 - S1||_F / A0.  Take R = ``_factor`` and X = ``_factor_inverse``,
    the computed R^-1, both for S0 / 4^e (e = ``_factor_exponent``), and
    gamma_k = linalg._gamma(k):

    * F = X R - I has ||F||_2 <= delta = ||fl(X R) - I||_F + gamma_{n+2}
      ||X||_F ||R||_F, the product's rounding included (Higham, Accuracy and
      Stability of Numerical Algorithms, 2nd ed., section 3.5).  Then
      R^-1 = (I + F)^-1 X, so ||R^-1||_2 <= ||X||_F / (1 - delta).
    * ||R* R - S0 / 4^e||_2 <= g = ||fl(R* R) - S0 / 4^e||_F + gamma_{n+2}
      ||R||_F^2.  This measures, rather than bounds a priori, both the QR's
      backward error and the rounding S0 was formed with.  S0 / 4^e is exact
      but for entries below the normal range, whose loss (2^-1074 each) is far
      below g's second term, as ||R||_F >= 1/2.
    * By Weyl again, A0 / 4^e >= lambda_min(R* R) - g
      >= (1 - delta)^2 (1 - xi) / ||X||_F^2, with xi = g ||X||_F^2 / (1 - delta)^2.

    So both drifts are at most gap 4^-e ||X||_F^2 (1 + rho), with
    1 + rho = (1 + gamma_{3k}) / ((1 - delta)^2 (1 - xi)) and k = 4 n^2 + 8,
    for delta and xi below 1/2.  Each of gap (against the exact ||S0 - S1||_F),
    ||X||_F^2, delta, xi and the final product is a chain of at most k roundings
    (a norm of 2 n^2 real parts takes 2 n^2 + 1), so a factor 1 + gamma_k covers
    it (Higham, Lemma 3.1); delta and xi take theirs before the test.  A non-finite
    X or an overflow gives inf too."""
    r, x, e, n = ovf._factor, ovf._factor_inverse, ovf._factor_exponent, ovf.dim_h
    k = 4 * n * n + 8
    grow = 1.0 + linalg._gamma(k)
    with np.errstate(over="ignore", invalid="ignore"):
        r_norm, x_norm = float(linalg._norms(r, 2)), float(linalg._norms(x, 2))
        product_rounding = linalg._gamma(n + 2) * r_norm  # per unit norm of the other factor
        delta = (linalg.frobenius(x @ r - np.eye(n)) + product_rounding * x_norm) * grow
        s0 = np.ldexp(frames.frame_operator(ovf).view(np.float64), -2 * e).view(np.complex128)
        g = (linalg.frobenius(linalg.adjoint(r) @ r - s0) + product_rounding * r_norm) * grow
        xi = g * x_norm * x_norm / (1.0 - delta) ** 2 * grow
        if not (delta < 0.5 and xi < 0.5):
            return float("inf")
        inverse_sq = float(np.ldexp(x_norm * x_norm, -2 * e))
        return gap * inverse_sq * (1.0 + linalg._gamma(3 * k)) / ((1.0 - delta) ** 2 * (1.0 - xi))


def _cmd_roundtrip(cfg: ExperimentConfig, ovf: frames.OperatorValuedFrame):
    m = cr.ovf_to_povm(ovf)
    rule = _measure_rule(cfg, m.dim_h)
    d = cr.decompose(m, rule)  # validates m; InvalidPovm (exit 2) if it fails
    reintegration = _reintegration_check(cfg, m, d)
    ovf2 = cr.decomposition_to_ovf(d)
    equiv = cr.verify_ovf_equivalence(ovf, ovf2)

    s0 = frames.frame_operator(ovf)
    s1 = frames.frame_operator(ovf2)
    # The recovered frame may live on fewer atoms (zero-weight drops), but
    # its frame operator must be the same matrix.
    gap = linalg.frobenius(s0 - s1)
    operator_residual = gap / (1.0 + linalg.frobenius(s0))

    tol_bounds = cfg.tolerance_overrides.get("bounds_rel", linalg.TOL_BOUNDS_REL)
    tol_equiv = cfg.tolerance_overrides.get("equivalence", equiv.tolerance)

    bounds_drift, by = _drift_certificate(ovf, gap), "certificate"
    if not bounds_drift <= tol_bounds:
        # the certificate cannot pass it: the measured drift decides, from both
        # frames' bounds
        b0, b1 = frames.frame_bounds(ovf), frames.frame_bounds(ovf2)
        bounds_drift = max(
            abs(b1.lower - b0.lower) / b0.lower, abs(b1.upper - b0.upper) / b0.upper
        )
        by = "eigenvalues"

    checks = [
        reintegration,
        _check("cut", cr.cut_bound(d), reintegration["tolerance"]),
        _check("equivalence", equiv.max_residual, tol_equiv),
        _check("operator_preserved", operator_residual, tol_bounds),
        _check("bounds_preserved", bounds_drift, tol_bounds, by=by),
    ]
    summary = {
        "rule": cfg.rule,
        "max_residual": max(reintegration["value"], equiv.max_residual, operator_residual),
    }
    return checks, summary, {}


class _Command(NamedTuple):
    handler: Callable[..., tuple]  # handler(cfg, *loaded inputs)
    inputs: tuple[str, ...]  # the table kind of each --in, in order
    help: str


# The one list of pipeline commands: dispatch, arity, loading and the parser all read it.
_COMMANDS = {
    "bounds": _Command(_cmd_bounds, ("frame",), "frame bounds of a frame file"),
    "analyze": _Command(_cmd_analyze, ("frame", "vector"),
                        "coefficients of a vector under a frame"),
    "reconstruct": _Command(_cmd_reconstruct, ("frame", "coefficients"),
                            "iterative reconstruction from coefficients"),
    "to-povm": _Command(_cmd_to_povm, ("frame",), "POVM a frame gives rise to"),
    "validate-povm": _Command(_cmd_validate_povm, ("povm",), "POVM axioms and framedness"),
    "decompose": _Command(_cmd_decompose, ("povm",),
                          "reference measure and densities of a POVM"),
    "to-ovf": _Command(_cmd_to_ovf, ("decomposition",),
                       "frame with minimal blocks T*T = Q (pivoted Cholesky) "
                       "from a decomposition"),
    "verify-uniqueness": _Command(_cmd_verify_uniqueness, ("decomposition", "decomposition"),
                                  "weighted density identity of two decompositions"),
    "roundtrip": _Command(_cmd_roundtrip, ("frame",),
                          "frame -> POVM -> decomposition -> frame closure"),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute one command, write its report and artifacts, return the report."""
    start = time.perf_counter_ns()
    command = _COMMANDS[cfg.command]
    loaded = [_load(path, kind) for path, kind in zip(cfg.input_paths, command.inputs)]
    inputs = [{"path": path, "sha256": digest}  # the hash is of the bytes parsed
              for path, (digest, _) in zip(cfg.input_paths, loaded)]
    checks, summary, artifacts = command.handler(cfg, *(obj for _, obj in loaded))
    report = RunReport(
        command=cfg.command,
        inputs=inputs,
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
    if seed < 0:  # PCG64 takes non-negative seeds only
        raise CommandError(f"--seed must be non-negative, got {seed}")
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
                f = frames.VectorFrame(dim_h=dim, vectors=vecs)
                frames.from_vector_frame(f)
            except FramekitError:
                continue
            _write_json(output_path, frames.vector_frame_to_json(f))
            return
        raise CommandError(f"no frame found in {_GENERATE_ATTEMPTS} attempts")

    labels = [str(i) for i in range(atoms)]
    for _ in range(_GENERATE_ATTEMPTS):
        g = np.array([rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
                      for _ in range(atoms)])  # atom by atom: the seeded draw order of the files
        m = povm.Povm(atoms=labels, dim_h=dim, elements=linalg.hermitize(linalg.adjoint(g) @ g))
        framed = povm.is_framed(m)  # scale-invariant, so also the verdict on m / upper
        if not framed.framed:
            continue
        m = povm.Povm(atoms=labels, dim_h=dim, elements=m.elements / framed.upper)
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
        if not math.isfinite(out[name]):
            raise CommandError(f"--tol {name}: {value!r} is not finite")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Frame and POVM pipelines over JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--in", dest="inputs", action="append", required=True,
                       metavar="FILE", help=f"input file ({', '.join(command.inputs)})")
        p.add_argument("--out", dest="out", required=True, metavar="FILE",
                       help="run report JSON")
        p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                       help=f"tolerance override, repeatable; NAME is one of "
                            f"{', '.join(DEFAULT_CHECK_TOLERANCES)}")
        p.add_argument("--data-out", dest="data_path", metavar="FILE",
                       help="data artifact path (default: derived from --out)")

    p = sub.choices["reconstruct"]
    p.add_argument("--target-error", type=float, default=reconstruction.DEFAULT_TARGET_ERROR)
    p.add_argument("--max-iters", type=int, default=reconstruction.DEFAULT_MAX_ITERS)
    p.add_argument("--trace-out", dest="trace_path", metavar="FILE",
                   help="iteration trace CSV (default: derived from --out)")
    for name in ("decompose", "roundtrip"):
        sub.choices[name].add_argument("--rule", choices=_RULES, default="trace")

    p = sub.add_parser("generate", help="write a random frame or POVM file")
    p.add_argument("--kind", choices=("frame", "povm"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out", required=True, metavar="FILE")
    return parser


_PARSER = _build_parser()  # once per process; each parse_args starts from a fresh namespace


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "generate":
            generate_random(args.kind, args.dim, args.atoms, args.seed, args.out)
            print(args.out)
            return 0
        cfg = ExperimentConfig(
            command=args.command,
            input_paths=tuple(args.inputs),
            output_path=args.out,
            tolerance_overrides=_parse_tol(args.tol),
            data_path=args.data_path,
            # the options only some commands have; their defaults live in argparse
            **{k: v for k, v in vars(args).items()
               if k in ("rule", "target_error", "max_iters", "trace_path")},
        )
        report = run(cfg)
    except (FramekitError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for c in report.checks:
        verdict = "PASS" if c["passed"] else "FAIL"
        print(f"[{verdict}] {c['name']}")
    print(f"report: {cfg.output_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
