"""Run one alphafam command in-process with a span around each layer call.

    python -X importtime perfbench/traced_op.py SPANS_JSON -- COMMAND ARGS...

The spans wrap the layers' public functions at the name where their caller
looks them up: the CLI binds ``ingest_csv``, ``dumps_report`` and
``make_student_t`` in its own namespace and ``divergence`` binds scipy's
``quad``, so those names are replaced there, not only in the defining
module.  Each span keeps its name, start, end and parent in memory; the
list, with per-span counts, is written to SPANS_JSON when the command ends.
The command's exit code is this process's exit code.

Only the standard library is imported before ``alphafam.cli``, so that
``-X importtime`` charges numpy and scipy to the package.
"""

import os
import sys
import time

# (module, attribute, span name, counts(args, kwargs, result) -> dict)
TARGETS = (
    ("alphafam.cli", "ingest_csv", "cli.ingest_csv",
     lambda a, k, r: {"rows": r.n, "bytes": os.path.getsize(a[0])}),
    ("alphafam.cli", "dumps_report", "cli.dumps_report", lambda a, k, r: {"bytes": len(r)}),
    ("alphafam.cli", "make_student_t", "core.make_student_t", None),
    ("alphafam.core", "make_student_t", "core.make_student_t", None),
    ("alphafam.estimators", "sufficient_stats", "estimators.sufficient_stats",
     lambda a, k, r: {"rows": a[0].n}),
    ("alphafam.estimators", "estimate_student_t", "estimators.estimate_student_t", None),
    ("alphafam.estimators", "residual_regular_malpha", "estimators.residual_regular_malpha", None),
    ("alphafam.studentt", "sample", "studentt.sample", lambda a, k, r: {"rows": r.n}),
    ("alphafam.studentt", "density_batch", "studentt.density_batch", None),
    ("alphafam.studentt", "decompose", "studentt.decompose", None),
    ("alphafam.compact", "maximize_l2", "compact.maximize_l2",
     lambda a, k, r: {
         "segments": len(r.candidates),
         "active_entries": sum(len(c.active_set) for c in r.candidates),
         "ties": len(r.ties),
     }),
    ("alphafam.divergence", "i_alpha", "divergence.i_alpha", None),
    ("alphafam.divergence", "kl", "divergence.kl", None),
    ("alphafam.divergence", "generalized_log_likelihood", "divergence.generalized_log_likelihood", None),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, counts or None]
        self.pending = []  # (span index, counts fn, args, kwargs, result), counted at dump
        self.stack = []

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                self.pending.append((index, counts, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_quad(self, quad):
        """Span around scipy quad that counts integrand evaluations and failures."""

        def counted_quad(func, *args, **kwargs):
            tally = {"evals": 0, "failed": 0}

            def integrand(*xs):
                tally["evals"] += 1
                return func(*xs)

            self.spans[self.stack[-1]][4] = tally  # the span the wrapper below opened
            try:
                return quad(integrand, *args, **kwargs)
            except BaseException:
                tally["failed"] = 1
                raise

        return self.wrap("divergence.quad", counted_quad)

    def install(self):
        """Replace every target name; missing names are reported and skipped."""
        for module_name, attr, name, counts in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                print(f"traced_op: {module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            setattr(module, attr, self.wrap(name, getattr(module, attr), counts))
        divergence = sys.modules["alphafam.divergence"]
        if hasattr(divergence, "quad"):
            divergence.quad = self.wrap_quad(divergence.quad)

    def dump(self, path):
        import json

        for index, counts, args, kwargs, result in self.pending:
            self.spans[index][4] = counts(args, kwargs, result)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "counts": c or {}}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    import alphafam.cli as cli

    tracer = Tracer()
    tracer.install()
    run = tracer.wrap("cli.run", cli.main)
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
