"""The benchmark's three workloads: seeded inputs, ops and their checks.

Each workload's ``setup(seed, workdir)`` makes every input from the seed and
returns a list of cycles.  A cycle is one list of ops over one set of
distinct inputs; the runner repeats the cycles round robin, so every run
measures whole cycles and the same op mix.  An op is one user-visible call;
its check runs after the op's timer stops.

* ``cli-pipeline`` drives ``framekit.cli.main`` in process over OVF files:
  many small eigenproblems, the JSON codec, file I/O, duplicate validation
  and reintegration.
* ``spectral`` builds a few large frames and inverts their frame operator:
  a few large eigenproblems per op and no per-atom loops.
* ``reconstruct`` runs the frame algorithm on prebuilt frames with cond(S)
  of 2, 24.5 or 300: per-atom analysis and the iteration loop, no eigen
  work inside the ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from framekit import cli, frames, linalg, reconstruction


@dataclass(frozen=True)
class Op:
    """One timed call, the check of its result and, for CLI ops, its files."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    json_bytes: Optional[Callable[[], tuple[int, int]]] = None  # (read, written)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _labels(atoms: int) -> list[str]:
    return [f"t{i}" for i in range(atoms)]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True))


# --- cli-pipeline ------------------------------------------------------------

# (dim, atoms): atoms <= 16 take the exhaustive 2^N reintegration path, the
# others the 1000-random-event path.
CLI_SHAPES = ((3, 10), (4, 14), (6, 24), (8, 48), (12, 32))
CLI_SETS = 5  # distinct input sets, one per cycle; a run needs three or four
CLI_COMMANDS = ("to-povm", "decompose-trace", "decompose-dyadic", "verify-uniqueness",
                "to-ovf", "roundtrip", "analyze", "reconstruct")


def _cli_call(argv: list[str]) -> Callable[[], int]:
    def run() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return run


def _cli_check(report_path: str) -> Callable[[int], bool]:
    def check(status: int) -> bool:
        with open(report_path, encoding="utf-8") as fh:
            return status == 0 and json.load(fh)["passed"] is True

    return check


def _cli_bytes(inputs: list[str], report_path: str) -> Callable[[], tuple[int, int]]:
    """Bytes of the JSON inputs read and JSON data artifacts written.

    Run reports are left out: their wall-clock field would make the count
    differ between runs.
    """

    def count() -> tuple[int, int]:
        with open(report_path, encoding="utf-8") as fh:
            artifacts = json.load(fh)["artifacts"].values()
        written = sum(os.path.getsize(p) for p in artifacts if p.endswith(".json"))
        return sum(os.path.getsize(p) for p in inputs), written

    return count


def _cli_ops(stem: str, ovf_path: str, vector_path: str) -> list[Op]:
    povm = f"{stem}.povm.data.json"
    dtrace = f"{stem}.dtrace.data.json"
    ddyadic = f"{stem}.ddyadic.data.json"
    steps = (
        ("to-povm", ["to-povm"], [ovf_path], "povm"),
        ("decompose-trace", ["decompose", "--rule", "trace"], [povm], "dtrace"),
        ("decompose-dyadic", ["decompose", "--rule", "dyadic"], [povm], "ddyadic"),
        ("verify-uniqueness", ["verify-uniqueness"], [dtrace, ddyadic], "unique"),
        ("to-ovf", ["to-ovf"], [dtrace], "toovf"),
        ("roundtrip", ["roundtrip"], [ovf_path], "roundtrip"),
        ("analyze", ["analyze"], [ovf_path, vector_path], "analyze"),
        ("reconstruct", ["reconstruct"], [ovf_path, f"{stem}.analyze.data.json"], "recon"),
    )
    ops = []
    for label, command, inputs, out in steps:
        report = f"{stem}.{out}.json"
        argv = command + [arg for p in inputs for arg in ("--in", p)] + ["--out", report]
        ops.append(Op(label, _cli_call(argv), _cli_check(report), _cli_bytes(inputs, report)))
    return ops


def setup_cli_pipeline(seed: int, workdir: str) -> list[list[Op]]:
    """Write CLI_SETS x CLI_SHAPES OVF files (block heights cycle 1..dim) and vectors."""
    rng = _rng(seed)
    cycles = []
    for s in range(CLI_SETS):
        ops = []
        for dim, atoms in CLI_SHAPES:
            stem = os.path.join(workdir, f"set{s}-{dim}x{atoms}")
            heights = [1 + t % dim for t in range(atoms)]
            space = frames.AtomicMeasureSpace(_labels(atoms), rng.uniform(0.5, 2.0, atoms))
            ovf = frames.OperatorValuedFrame(space, dim, [_gaussian(rng, (k, dim)) for k in heights])
            ovf_path, vector_path = f"{stem}.ovf.json", f"{stem}.x.json"
            _write_json(ovf_path, frames.ovf_to_json(ovf))
            _write_json(vector_path, linalg.vector_to_json(_gaussian(rng, dim)))
            ops.extend(_cli_ops(stem, ovf_path, vector_path))
        cycles.append(ops)
    return cycles


# --- spectral ----------------------------------------------------------------

SPECTRAL_DIMS = (32, 48, 64)
SPECTRAL_SETS = 40  # distinct input sets, one per cycle; a run needs about 34
SPECTRAL_REL_ERROR = 1e-10


def spectral_inputs(seed: int) -> list[list[tuple]]:
    """(n, weights, blocks, x) per op: three atoms, block heights n/2, 3n/4, n."""
    rng = _rng(seed)
    return [[(n, rng.uniform(0.5, 2.0, 3), [_gaussian(rng, (k, n)) for k in (n // 2, 3 * n // 4, n)],
              _gaussian(rng, n)) for n in SPECTRAL_DIMS]
            for _ in range(SPECTRAL_SETS)]


def _spectral_op(n: int, weights: np.ndarray, blocks: list, x: np.ndarray) -> Op:
    def run() -> np.ndarray:
        space = frames.AtomicMeasureSpace(_labels(len(blocks)), weights)
        ovf = frames.OperatorValuedFrame(space, n, blocks)
        return reconstruction.reconstruct_direct(ovf, frames.analysis(ovf, x))

    def check(x_hat: np.ndarray) -> bool:
        return bool(np.linalg.norm(x_hat - x) <= SPECTRAL_REL_ERROR * np.linalg.norm(x))

    return Op(f"n{n}", run, check)


def setup_spectral(seed: int, workdir: str) -> list[list[Op]]:
    return [[_spectral_op(*inputs) for inputs in cycle] for cycle in spectral_inputs(seed)]


# --- reconstruct -------------------------------------------------------------

RECON_DIMS = (8, 12, 16)
RECON_ATOMS = (64, 128, 256)
RECON_VECTORS = 4  # vectors solved per frame; cycle v solves vector v on every frame
RECON_CONDS = (2.0, 600.0 ** 0.5, 300.0)  # log-spaced over [2, 300]


def _recon_cond(a: int, b: int) -> float:
    """cond(S) of frame (RECON_DIMS[a], RECON_ATOMS[b]).

    A Latin square: every dimension and every atom count meets each level
    once.  Three frames share each level, so p50 falls inside the middle
    level's latencies and p90 inside the top level's, not on the edge
    between two frames.
    """
    return RECON_CONDS[(a + b) % 3]


def _conditioned_blocks(rng, n: int, atoms: int, cond: float) -> tuple[np.ndarray, list]:
    """Weights and blocks whose frame operator is S = U diag(d)^2 U*.

    The stacked blocks are Q diag(d) U* with Q orthonormal columns and U
    unitary, each atom's rows divided by sqrt(weight); the columns are
    scaled by d, log-spaced so that cond(S) = d_max^2 / d_min^2 = cond.
    """
    heights = [1 + t % n for t in range(atoms)]
    q = np.linalg.qr(_gaussian(rng, (sum(heights), n)))[0]
    u = np.linalg.qr(_gaussian(rng, (n, n)))[0]
    d = cond ** (np.arange(n) / (2.0 * (n - 1)))
    stacked = (q * d) @ u.conj().T
    weights = rng.uniform(0.5, 2.0, atoms)
    offsets = np.cumsum([0] + heights)
    blocks = [stacked[offsets[t]:offsets[t + 1]] / np.sqrt(weights[t]) for t in range(atoms)]
    return weights, blocks


def reconstruct_inputs(seed: int) -> list[tuple]:
    """(label, n, weights, blocks, vectors) for each of the nine frames."""
    rng = _rng(seed)
    problems = []
    for a, n in enumerate(RECON_DIMS):
        for b, atoms in enumerate(RECON_ATOMS):
            weights, blocks = _conditioned_blocks(rng, n, atoms, _recon_cond(a, b))
            xs = [_gaussian(rng, n) for _ in range(RECON_VECTORS)]
            problems.append((f"n{n}-a{atoms}", n, weights, blocks, xs))
    return problems


def _recon_op(label: str, ovf: frames.OperatorValuedFrame, x: np.ndarray) -> Op:
    def run():
        return reconstruction.frame_algorithm(ovf, frames.analysis(ovf, x))

    def check(trace) -> bool:
        return (trace.stopped_by == "target_error" and trace.certified
                and float(np.linalg.norm(x - trace.final)) <= trace.certified_bounds[-1])

    return Op(label, run, check)


def setup_reconstruct(seed: int, workdir: str) -> list[list[Op]]:
    """Build the nine frames here, outside the ops; cycle v solves vector v on each."""
    problems = []
    for label, n, weights, blocks, xs in reconstruct_inputs(seed):
        space = frames.AtomicMeasureSpace(_labels(len(blocks)), weights)
        problems.append((label, frames.OperatorValuedFrame(space, n, blocks), xs))
    return [[_recon_op(label, ovf, xs[v]) for label, ovf, xs in problems]
            for v in range(RECON_VECTORS)]


WORKLOADS = {
    "cli-pipeline": setup_cli_pipeline,
    "spectral": setup_spectral,
    "reconstruct": setup_reconstruct,
}
