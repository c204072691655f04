"""Command-line front end: ingestion, estimation, divergences, simulation,
and a one-command verification of the built-in reference example.

Reports are JSON with sorted keys and floats fixed at 17 significant digits,
so identical config + input + seed produce byte-identical output.  Draws are
emitted as CSV at the same precision.  Exit codes: 0 success, 1 verification
failure, 2 invalid config, 10 unreadable input, 11 ragged rows, 12
non-numeric cells, 13 empty input, 14 output not written, 20 numerical
failure.  Each subcommand takes only the flags it reads; a missing, unknown
or malformed flag is a usage error and exits 2.

``main`` runs one command line in-process and returns its exit code; it
holds no state between calls, so threads may call it at once.  ``console``
is the process entry of both ``python -m alphafam.cli`` and the ``alphafam``
script: it runs ``main``, flushes stdout, and then freezes the garbage
collector's tracked objects, so that the interpreter's collections at exit
skip them.  Run as ``python -m``, the module also pauses the collector while
its imports run.  It imports ``compact``, ``divergence``, ``estimators`` and
``studentt`` plainly, so ``import alphafam.cli`` runs all four.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # no collections while the imports below build their objects; the bottom block enables it

import argparse
import errno
import io
import json
import math
import os
import sys

import numpy as np

from . import compact, divergence, estimators, studentt
from .core import (
    AlphaFamilyError,
    DimensionMismatchError,
    InvalidDistributionError,
    NumericalError,
    ParameterError,
    SampleBatch,
    make_student_t,
    pack_theta,
    record,
)

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_UNREADABLE = 10
EXIT_RAGGED = 11
EXIT_NON_NUMERIC = 12
EXIT_EMPTY = 13
EXIT_OUTPUT = 14
EXIT_NUMERICAL = 20

# Expected values for the verify subcommand: per-segment maximizers of the
# reference sample in breakpoint order, and the objective multiset in N2
# units.
_VERIFY_MAXIMIZERS = (
    2.46, 3.76, 4.76, 5.57, 6.1, 6.46, 6.56, 6.66, 6.76,
    6.84,
    6.94, 8.15, 8.46, 9.24, 10.44, 10.84, 10.94, 11.04, 11.14,
)
_VERIFY_OBJECTIVES = (
    0.08, 1.68, 2.69, 3.21, 3.11, 3.07, 3.15, 3.3, 3.5,
    3.7,
    4.02, 6.37, 6.42, 5.57, 2.3, 0.82, 0.5, 0.25, 0.084,
)
_VERIFY_MU_HAT = 8.46
_VERIFY_OBJECTIVE = 6.42
_VERIFY_SAMPLE_MEAN = 7.45


class IngestError(AlphaFamilyError):
    """CSV ingestion failure carrying its CLI exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


class OutputError(AlphaFamilyError):
    """A failed write of the command's output to ``path``, "-" for stdout."""

    exit_code = EXIT_OUTPUT

    def __init__(self, path: str, exc: OSError):
        super().__init__(f"cannot write {'<stdout>' if path == '-' else path}: {exc}")


@record
class CsvBatch(SampleBatch):
    """A ``SampleBatch`` read by ``ingest_csv``, with the SHA-256 of the bytes it read."""

    sha256: str


def _format_float(value: float) -> str:
    if math.isfinite(value):
        return format(value, ".17g")
    return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"


def dumps_report(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    A non-empty finite float vector or matrix, as each command's float
    arrays are, renders in one ``_codec.format_rows`` call, and such an
    integer vector in one join; the bytes equal those of the same values as
    (nested) lists.  Any other array renders value by value.
    """

    def render(node) -> str:
        if (isinstance(node, np.ndarray) and node.ndim in (1, 2) and node.size and node.dtype.kind in "fiu"
                and np.isfinite(node).all()):
            if node.dtype.kind == "f":
                from . import _codec

                # Finite values, where "%.17g" and _format_float agree; a vector is written one value per row.
                text = _codec.format_rows(node.reshape(len(node), -1))[:-1].decode("ascii")
                return "[" * node.ndim + text.replace("\n", "," if node.ndim == 1 else "],[") + "]" * node.ndim
            if node.ndim == 1:
                return "[" + ",".join(map(str, node.tolist())) + "]"
        if isinstance(node, dict):
            items = (f"{json.dumps(str(k))}:{render(node[k])}" for k in sorted(node))
            return "{" + ",".join(items) + "}"
        if isinstance(node, (list, tuple)) or isinstance(node, np.ndarray):
            return "[" + ",".join(render(v) for v in list(node)) + "]"
        if isinstance(node, bool) or isinstance(node, np.bool_):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return _format_float(float(node))
        if node is None:
            return "null"
        if isinstance(node, str):
            return json.dumps(node)
        raise TypeError(f"cannot serialize {type(node)!r}")

    return render(obj) + "\n"


def _parse_row(row) -> list:
    return [float(cell.strip()) for cell in row]


def ingest_csv(path: str) -> CsvBatch:
    """Read a UTF-8 CSV of observations, one row per observation.

    The file is read once, so a pipe works too, and the returned batch
    carries the SHA-256 of exactly those bytes.

    A leading byte-order mark is dropped.  A single non-numeric first row is
    treated as a header.  Ragged rows, non-numeric (or non-finite) cells, and
    inputs without data rows are rejected with distinct exit codes; text
    the csv module cannot split (a field past its size limit) is non-numeric.
    The values are the ones ``float`` gives each cell, read in one of two
    tiers.  Unquoted decimal cells, spaced or signed, with blank rows or
    none, are read from the bytes as integers and placed exactly
    (``_codec.parse_rows``).  Any other text, quoted or not ASCII, or one
    the codec declines, goes through csv.reader, which names the first bad
    row.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise IngestError(EXIT_UNREADABLE, f"cannot read {path}: {exc}") from exc
    import hashlib

    sha256 = hashlib.sha256(raw).hexdigest()
    from . import _codec

    data = _codec.parse_rows(raw)
    if data is not None:
        return CsvBatch(data, sha256)
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(EXIT_UNREADABLE, f"cannot read {path}: {exc}") from exc
    del raw  # the parser needs only the text; freeing the bytes lowers the peak memory
    import csv
    import itertools

    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise IngestError(EXIT_NON_NUMERIC, f"{path}: {exc}") from exc
    # Drop blank rows: those whose joined cells are all whitespace.
    rows = list(itertools.compress(rows, map(str.strip, map("".join, rows))))
    if not rows:
        raise IngestError(EXIT_EMPTY, f"{path} contains no data rows")

    start = 0
    try:
        _parse_row(rows[0])
    except ValueError:
        start = 1
    if start == len(rows):
        raise IngestError(EXIT_EMPTY, f"{path} contains a header but no data rows")

    body = rows[start:]
    width = len(body[0])
    if set(map(len, body)) == {width}:
        cells = map(str.strip, itertools.chain.from_iterable(body))
        try:
            data = np.fromiter(map(float, cells), dtype=float, count=len(body) * width)
        except ValueError:
            data = None
        if data is not None and np.isfinite(data).all():
            return CsvBatch(data.reshape(len(body), width), sha256)
    raise _row_error(path, body, start, width)


def _row_error(path: str, body: list, start: int, width: int) -> IngestError:
    """The error for the first bad row of ``body``, numbered among the non-blank rows."""
    for idx, row in enumerate(body, start=start + 1):
        if len(row) != width:
            return IngestError(EXIT_RAGGED, f"{path}: row {idx} has {len(row)} cells, expected {width}")
        try:
            values = _parse_row(row)
        except ValueError as exc:
            return IngestError(EXIT_NON_NUMERIC, f"{path}: row {idx}: {exc}")
        if not all(math.isfinite(v) for v in values):
            return IngestError(EXIT_NON_NUMERIC, f"{path}: row {idx} has a non-finite value")
    raise AssertionError("bulk parse rejected rows that parse one by one")


def _emit(data: bytes, output_path: str):
    """Write every byte of ``data`` to the output path, or to stdout for "-"; OutputError if a write fails.

    Under ``PYTHONUNBUFFERED=1`` stdout's binary layer is a raw stream, whose
    write may take only part of the bytes, so the rest is written until none
    is left.
    """
    try:
        if output_path != "-":
            with open(output_path, "wb") as handle:
                handle.write(data)
        else:
            if sys.stdout is None:  # the process started with stdout closed
                raise OSError(errno.EBADF, "stdout is closed")
            sys.stdout.flush()
            view = memoryview(data)
            while view:
                view = view[sys.stdout.buffer.write(view):]
    except OSError as exc:
        raise OutputError(output_path, exc) from None


def _report(args: argparse.Namespace, batch: CsvBatch | None = None, **fields) -> int:
    """Emit ``fields`` as the command's JSON report and return EXIT_OK.

    The report gains the schema version, the command's name and, for a
    command that read ``batch`` from --input, its provenance: the digest of
    the bytes read, the library version and the seed.
    """
    from . import __version__

    fields.update(schema_version=SCHEMA_VERSION, command=args.command)
    if batch is not None:
        fields["provenance"] = {"input_sha256": batch.sha256, "library_version": __version__, "seed": args.seed}
    _emit(dumps_report(fields).encode("utf-8"), args.output)
    return EXIT_OK


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",")], dtype=float)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    if len({len(row) for row in rows}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return np.array(rows, dtype=float)


def _parse_handle(spec: str):
    kind, _, rest = spec.partition(":")
    args = [float(tok) for tok in rest.split(",")] if rest else []
    if kind == "normal" and len(args) == 2:
        return divergence.Gaussian(args[0], args[1])
    if kind == "bernoulli" and len(args) == 1:
        return divergence.bernoulli(args[0])
    if kind == "t" and len(args) == 3:
        return make_student_t(args[0], args[1], args[2])
    raise ValueError(
        f"cannot parse distribution {spec!r}; use normal:MU,VAR | bernoulli:P | t:ALPHA,MU,VAR"
    )


def _cmd_estimate(args: argparse.Namespace) -> int:
    batch = ingest_csv(args.input)
    est = estimators.estimate_student_t(batch, args.alpha)
    residual_norm = None
    if not est.singular:
        desc = studentt.decompose(est.params)
        stats = estimators.sufficient_stats(batch, desc, args.alpha)
        pop = estimators.student_t_population_moments(est.params)
        theta = pack_theta(est.mu_hat, est.params.sigma_inv)
        residual_norm = estimators.residual_regular_malpha(desc, theta, stats, pop).norm
    return _report(args, batch, alpha=args.alpha, n=batch.n, d=batch.dim, mu_hat=est.mu_hat,
                   sigma_hat=est.sigma_hat, singular_flag=est.singular, residual_norm=residual_norm)


def _cmd_compact_fit(args: argparse.Namespace) -> int:
    batch = ingest_csv(args.input)
    result = compact.maximize_l2(batch)
    table = result.candidates
    candidates = {"active_start": table.start, "active_stop": table.stop, "hi": table.hi, "lo": table.lo,
                  "maximizer": table.maximizer, "objective_over_n2": table.objective,
                  "unconstrained_max": table.unconstrained_max}
    return _report(args, batch, alpha=2.0, n=batch.n, mu_hat=result.mu_hat, objective_over_n2=result.objective_over_n2,
                   sample_mean=float(batch.scalars().mean()), ties=list(result.ties), candidates=candidates)


def _cmd_divergence(args: argparse.Namespace) -> int:
    p = _parse_handle(args.p)
    q = _parse_handle(args.q)
    return _report(args, alpha=args.alpha, p=args.p, q=args.q, i_alpha=divergence.i_alpha(p, q, args.alpha),
                   kl=divergence.kl(p, q))


def _cmd_loglik(args: argparse.Namespace) -> int:
    batch = ingest_csv(args.input)
    params = make_student_t(args.alpha, _parse_vector(args.mu), _parse_matrix(args.sigma))
    return _report(args, batch, alpha=args.alpha, n=batch.n, mu=params.mu, sigma=params.sigma,
                   value=divergence.generalized_log_likelihood(params, batch))


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = make_student_t(args.alpha, _parse_vector(args.mu), _parse_matrix(args.sigma))
    batch = studentt.sample(params, args.n, args.seed)
    if args.format == "csv":
        from . import _codec

        # SampleBatch guarantees finite draws, where "%.17g" and _format_float agree.
        _emit(_codec.format_rows(batch.data), args.output)
        return EXIT_OK
    return _report(args, alpha=args.alpha, seed=args.seed, draws=batch.data)


def _cmd_verify(args: argparse.Namespace) -> int:
    out = io.StringIO()
    code = verify_reference_example(out)
    _emit(out.getvalue().encode("utf-8"), "-")
    return code


def verify_reference_example(out) -> int:
    """Run the built-in reference sample end to end and check every table.

    Writes the full candidate table and one PASS/FAIL line per check to the
    text stream ``out``; returns 0 when all checks pass, 1 otherwise.
    """
    batch = SampleBatch(np.array(compact.REFERENCE_SAMPLE))
    result = compact.maximize_l2(batch)
    checks = []

    checks.append(
        ("mu_hat = 8.46 +- 0.01", abs(result.mu_hat - _VERIFY_MU_HAT) <= 0.01, result.mu_hat)
    )
    checks.append(
        (
            "objective/N2 = 6.42 +- 0.05",
            abs(result.objective_over_n2 - _VERIFY_OBJECTIVE) <= 0.05,
            result.objective_over_n2,
        )
    )
    mean = float(batch.scalars().mean())
    checks.append(
        (
            "mu_hat differs from the sample mean 7.45",
            abs(result.mu_hat - _VERIFY_SAMPLE_MEAN) > 0.01 and abs(mean - _VERIFY_SAMPLE_MEAN) <= 1e-12,
            result.mu_hat - mean,
        )
    )

    maximizers = [c.maximizer for c in result.candidates]
    count_ok = len(maximizers) == len(_VERIFY_MAXIMIZERS)
    checks.append(("segment count = 19", count_ok, len(maximizers)))
    if count_ok:
        worst = max(abs(m - e) for m, e in zip(maximizers, _VERIFY_MAXIMIZERS))
        checks.append(("per-segment maximizers +- 0.01", worst <= 0.01, worst))
        got = sorted(c.objective for c in result.candidates)
        expected = sorted(_VERIFY_OBJECTIVES)
        worst_obj = max(abs(g - e) for g, e in zip(got, expected))
        checks.append(("objective multiset +- 0.05", worst_obj <= 0.05, worst_obj))

    out.write("segment candidates (values in N2 units):\n")
    header = f"{'lo':>10} {'hi':>10} {'active':>8} {'maximizer':>11} {'objective':>11}\n"
    out.write(header)
    for cand in result.candidates:
        out.write(
            f"{cand.lo:>10.4f} {cand.hi:>10.4f} {len(cand.active_set):>8d} "
            f"{cand.maximizer:>11.4f} {cand.objective:>11.4f}\n"
        )

    all_ok = True
    for label, ok, value in checks:
        all_ok &= ok
        out.write(f"{'PASS' if ok else 'FAIL'}  {label}  (got {value})\n")
    out.write("PASS\n" if all_ok else "FAIL\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphafam",
        description="Parameter estimation for alpha-power-law families (Student-t centered).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alpha = dict(type=float, required=True, help="family/divergence order")
    data = dict(required=True, help="input CSV path")
    output = dict(default="-", help="output path or '-' for stdout")
    seed = dict(type=int, default=0, help="seed recorded in the report (nonnegative integer)")
    mu = dict(required=True, help="location, comma-separated")
    sigma = dict(required=True, help="covariance, rows ';'-separated, cells ','-separated")

    p = sub.add_parser("estimate", help="closed-form mean/covariance estimate (alpha < 1)")
    p.set_defaults(handler=_cmd_estimate)
    p.add_argument("--alpha", **alpha)
    p.add_argument("--input", **data)
    p.add_argument("--output", **output)
    p.add_argument("--seed", **seed)

    p = sub.add_parser("compact-fit", help="exact maximizer for alpha = 2, sigma = 1, d = 1")
    p.set_defaults(handler=_cmd_compact_fit)
    p.add_argument("--input", **data)
    p.add_argument("--output", **output)
    p.add_argument("--seed", **seed)

    p = sub.add_parser("divergence", help="order-alpha and KL divergence of two distributions")
    p.set_defaults(handler=_cmd_divergence)
    p.add_argument("--alpha", **alpha)
    p.add_argument("--p", required=True,
                   help="first distribution: normal:MU,VAR | bernoulli:P | t:ALPHA,MU,VAR")
    p.add_argument("--q", required=True, help="second distribution (same syntax)")
    p.add_argument("--output", **output)

    p = sub.add_parser("loglik", help="generalized log-likelihood of a batch")
    p.set_defaults(handler=_cmd_loglik)
    p.add_argument("--alpha", **alpha)
    p.add_argument("--mu", **mu)
    p.add_argument("--sigma", **sigma)
    p.add_argument("--input", **data)
    p.add_argument("--output", **output)
    p.add_argument("--seed", **seed)

    p = sub.add_parser("simulate", help="seeded draws, written as CSV")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--alpha", **alpha)
    p.add_argument("--mu", **mu)
    p.add_argument("--sigma", **sigma)
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (nonnegative integer)")
    p.add_argument("--output", **output)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser(
        "verify-paper-example",
        help="run the built-in reference sample and check the expected tables",
    )
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command line in-process; returns its exit code and leaves the garbage collector as it was."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be >= 0")
        if getattr(args, "n", 1) < 1:
            raise ValueError("simulate requires --n >= 1")
        return args.handler(args)
    except (IngestError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except NumericalError as exc:
        print(f"numerical failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParameterError, DimensionMismatchError, InvalidDistributionError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


def console(argv=None) -> int:
    """The process entry: ``main``, a flush of stdout, and ``gc.freeze()``; returns the exit code.

    A flush that fails exits 14 as a failed write in ``main`` does, and
    stdout is then pointed at the null device, so that the bytes still
    buffered cannot fail the interpreter's own flush at exit.  The freeze
    moves every object then alive, most of them left by numpy's import, to
    the collector's permanent generation, which the full collections of the
    interpreter's shutdown skip.  The process still exits normally: atexit
    handlers run, and a profiler such as ``python -m cProfile`` still prints.
    """
    code = main(argv)
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code != EXIT_OUTPUT:  # else main has reported the failed write
                print(f"error: {OutputError('-', exc)}", file=sys.stderr)
                code = EXIT_OUTPUT
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    gc.freeze()
    gc.enable()
    sys.exit(console())
