"""Command-line front end: ingestion, estimation, divergences, simulation,
and a one-command verification of the built-in reference example.

Reports are JSON with sorted keys and floats fixed at 17 significant digits,
so identical config + input + seed produce byte-identical output.  Draws are
emitted as CSV at the same precision.  Exit codes: 0 success, 1 verification
failure, 2 invalid config, 10 unreadable input, 11 ragged rows, 12
non-numeric cells, 13 empty input, 20 numerical failure.  Each subcommand takes only the flags it reads; a
missing, unknown or malformed flag is a usage error and exits 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
import warnings

import numpy as np

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


def _lazy(name: str):
    """The module ``name``, which runs on its first attribute access unless it already has.

    A module not yet imported is placed in ``sys.modules`` and bound on its
    package as an ``importlib.util.LazyLoader`` module, so a later import
    finds it and a command runs only the modules it uses.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


compact, divergence, estimators, studentt = (_lazy(f"{__package__}.{name}")
                                             for name in ("compact", "divergence", "estimators", "studentt"))
csv = _lazy("csv")  # read only by ingest_csv's last tier

SCHEMA_VERSION = "3"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_CONFIG = 2
EXIT_UNREADABLE = 10
EXIT_RAGGED = 11
EXIT_NON_NUMERIC = 12
EXIT_EMPTY = 13
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


@record
class CsvBatch(SampleBatch):
    """A ``SampleBatch`` read by ``ingest_csv``, with the SHA-256 of the bytes it read."""

    sha256: str


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return format(value, ".17g")


def dumps_report(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    A finite 1-D numpy array of floats or integers renders as a JSON array
    in one pass over all its values (floats through ``_codec.format_rows``);
    its bytes equal those of the same values as a list.  That is how
    ``compact-fit`` writes its candidate columns.
    """

    def render(node) -> str:
        if isinstance(node, np.ndarray) and node.ndim == 1 and node.dtype.kind in "fiu" and np.isfinite(node).all():
            if node.dtype.kind != "f":
                return "[" + ",".join(map(str, node.tolist())) + "]"
            from . import _codec

            # Finite values, where "%.17g" and _format_float agree.
            return "[" + _codec.format_rows(node[:, None]).replace(b"\n", b",")[:-1].decode("ascii") + "]"
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
    inputs without data rows are rejected with distinct exit codes.  The
    values are the ones ``float`` gives each cell, read in one of three
    tiers.  Plain decimal cells, as ``simulate`` writes them, are read from
    the bytes as integers and placed exactly (``_codec.parse_rows``).  Any
    other ASCII text without quotes is decoded and goes to numpy's C reader
    (``_parse_unquoted``).  Any other text, or one that reader cannot
    decide, goes through csv.reader, which names the first bad row.
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
    del raw  # the parsers need only the text; freeing the bytes lowers the peak memory

    data = _parse_unquoted(text)
    if data is not None:
        return CsvBatch(data, sha256)

    import io
    import itertools

    rows = list(csv.reader(io.StringIO(text, newline="")))
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


def _parse_unquoted(text: str) -> np.ndarray | None:
    """The data rows of an ASCII text without quotes, by numpy's C reader; None where it cannot decide.

    Accepts only what the csv.reader path accepts, with the same values:
    without quotes, both split rows at line ends and cells at commas, strip
    ASCII whitespace around cells, and parse them with Python's correctly
    rounded strtod.  Everything else returns None, so that the csv.reader
    path decides the result and any error: a quote, a non-ASCII character,
    a lone CR, a row of only whitespace or commas after the first row
    (numpy skips only empty ones), ragged rows, cells that float() takes
    and numpy does not (such as "1_0"), non-finite values, and a body with
    no rows.
    """
    if not text.isascii() or '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    # Skip blank rows to the first row, and past it if it is a header.
    start = next((i for i, line in enumerate(lines) if line.replace(",", "").strip()), None)
    if start is None:
        return None
    try:
        _parse_row(lines[start].split(","))
    except ValueError:
        start += 1
    with warnings.catch_warnings():
        # The csv.reader path reports an empty body.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(lines[start:], delimiter=",", comments=None, quotechar=None, ndmin=2)
        except ValueError:
            return None
    if data.size == 0 or not np.isfinite(data).all():
        return None
    return data


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
    """Write ``data`` as it is to the output path, or to stdout for "-"."""
    if output_path != "-":
        with open(output_path, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


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
        params = make_student_t(args.alpha, est.mu_hat, est.sigma_hat)
        desc = studentt.decompose(params)
        stats = estimators.sufficient_stats(batch, desc, args.alpha)
        pop = estimators.student_t_population_moments(params)
        theta = pack_theta(est.mu_hat, params.sigma_inv)
        residual_norm = estimators.residual_regular_malpha(desc, theta, stats, pop).norm
    return _report(args, batch, alpha=args.alpha, n=batch.n, d=batch.dim, mu_hat=est.mu_hat.tolist(),
                   sigma_hat=est.sigma_hat.tolist(), singular_flag=est.singular, residual_norm=residual_norm)


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
    return _report(args, batch, alpha=args.alpha, n=batch.n, mu=params.mu.tolist(), sigma=params.sigma.tolist(),
                   value=divergence.generalized_log_likelihood(params, batch))


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = make_student_t(args.alpha, _parse_vector(args.mu), _parse_matrix(args.sigma))
    batch = studentt.sample(params, args.n, args.seed)
    if args.format == "csv":
        from . import _codec

        # SampleBatch guarantees finite draws, where "%.17g" and _format_float agree.
        _emit(_codec.format_rows(batch.data), args.output)
        return EXIT_OK
    return _report(args, alpha=args.alpha, seed=args.seed, draws=batch.data.tolist())


def verify_reference_example(out=None) -> int:
    """Run the built-in reference sample end to end and check every table.

    Prints one PASS/FAIL line per check plus the full candidate table;
    returns 0 when all checks pass, 1 otherwise.
    """
    out = out or sys.stdout
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


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit code."""
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be >= 0")
        if getattr(args, "n", 1) < 1:
            raise ValueError("simulate requires --n >= 1")
        return args.handler(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except NumericalError as exc:
        print(f"numerical failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        ParameterError,
        DimensionMismatchError,
        InvalidDistributionError,
        ValueError,
    ) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


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
    p.set_defaults(handler=lambda _: verify_reference_example())
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
