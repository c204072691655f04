"""The ops of each workload: alphafam command lines with their oracles.

One pass of a workload runs its ops in order, each as its own process.
``Op.check(exit_code, stdout_text, ctx)`` returns None for a right output or
a reason; ``ctx`` is a per-pass cache of data the oracles load.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import gen
import oracles

WORKLOADS = ("fit-large", "compact-sweep", "cold-small")


@dataclass(frozen=True)
class Op:
    """One CLI call; ``metric`` names its per-command wall time."""

    metric: str
    args: tuple
    rows: int  # rows the command reads plus rows it writes
    check: Callable
    writes: Optional[str] = None  # file written besides stdout
    # Exit code of a documented defect: the op stays in the pass and is
    # timed, but that exit is reported as the known defect, not as a failure.
    known_exit: Optional[int] = None
    known_reason: str = ""


def _data(ctx: dict, path: str):
    if path not in ctx:
        ctx[path] = oracles.load_csv(path)
    return ctx[path]


def fit_large(inputs: dict, workdir: str) -> list:
    draws = os.path.join(workdir, "draws.csv")
    alpha, n = gen.FIT_ALPHA, gen.FIT_N
    mu, sigma = oracles.parse_vector(gen.FIT_MU), oracles.parse_matrix(gen.FIT_SIGMA)
    model = ("--alpha", str(alpha), "--mu", gen.FIT_MU, "--sigma", gen.FIT_SIGMA)

    def check_simulate(code, _, ctx):
        ctx.pop(draws, None)
        return oracles.check_simulate(code, _data(ctx, draws) if code == 0 else None, n, mu, sigma)

    return [
        Op("simulate_s",
           ("simulate", *model, "--n", str(n), "--seed", str(inputs["simulate_seed"]), "--output", draws),
           n, check_simulate, writes=draws),
        Op("estimate_s", ("estimate", "--alpha", str(alpha), "--input", draws), n,
           lambda code, out, ctx: oracles.check_estimate(code, out, _data(ctx, draws))),
        Op("loglik_s", ("loglik", *model, "--input", draws), n,
           lambda code, out, ctx: oracles.check_loglik(code, out, _data(ctx, draws), alpha, mu, sigma)),
    ]


def compact_sweep(inputs: dict, workdir: str) -> list:
    ops = []
    for layout in ("clustered", "spread"):
        path = inputs[layout]
        xs = oracles.load_csv(path).ravel()
        ops.append(Op(f"compact_fit_{layout}_s", ("compact-fit", "--input", path), len(xs),
                      lambda code, out, ctx, xs=xs: oracles.check_compact(code, out, xs)))
    return ops


# (p, q, alpha, oracle) for cold-small's divergence calls.
def _divergence_cases() -> list:
    t, normal = oracles.t_handle, oracles.normal_handle
    return [
        ("normal:0,1", "normal:0.5,2", 0.999, oracles.normal_divergences(0, 1, 0.5, 2, 0.999)),
        ("normal:0,1", "normal:0.5,2", 1.5, oracles.normal_divergences(0, 1, 0.5, 2, 1.5)),
        ("t:0.8,0,1", "t:0.8,0.5,2", 0.8,
         (oracles.quadrature_i_alpha(t(0.8, 0, 1), t(0.8, 0.5, 2), 0.8), oracles.quadrature_kl(t(0.8, 0, 1), t(0.8, 0.5, 2)))),
        ("t:2,0,1", "t:2,0.5,1", 2.0,
         (oracles.quadrature_i_alpha(t(2.0, 0, 1), t(2.0, 0.5, 1), 2.0), oracles.quadrature_kl(t(2.0, 0, 1), t(2.0, 0.5, 1)))),
        ("bernoulli:0.3", "bernoulli:0.6", 0.5, oracles.bernoulli_divergences(0.3, 0.6, 0.5)),
    ]


def cold_small(inputs: dict, workdir: str) -> list:
    small = inputs["small"]
    alpha = gen.SMALL_ALPHA
    mu, sigma = oracles.parse_vector("0"), oracles.parse_matrix("1")
    ops = [Op("verify_s", ("verify-paper-example",), 0, lambda code, out, ctx: oracles.check_verify(code, out))]
    for p, q, order, want in _divergence_cases():
        ops.append(Op("divergence_s", ("divergence", "--alpha", str(order), "--p", p, "--q", q), 0,
                      lambda code, out, ctx, want=want: oracles.check_divergence(code, out, want, 1e-6)))
    # The cross term of a t against a normal at alpha < 1 diverges, so the
    # right answer is i_alpha = +inf; the program exits 20 instead.
    t_vs_normal = (math.inf, oracles.quadrature_kl(oracles.t_handle(0.8, 0, 1), oracles.normal_handle(0.5, 1)))
    ops.append(Op("divergence_s", ("divergence", "--alpha", "0.8", "--p", "t:0.8,0,1", "--q", "normal:0.5,1"), 0,
                  lambda code, out, ctx: oracles.check_divergence(code, out, t_vs_normal, 1e-6),
                  known_exit=20, known_reason="divergent cross term reported as a numerical failure, not i_alpha = +inf"))
    ops.append(Op("estimate_s", ("estimate", "--alpha", str(alpha), "--input", small), gen.SMALL_N,
                  lambda code, out, ctx: oracles.check_estimate(code, out, _data(ctx, small))))
    ops.append(Op("loglik_s", ("loglik", "--alpha", str(alpha), "--mu", "0", "--sigma", "1", "--input", small),
                  gen.SMALL_N,
                  lambda code, out, ctx: oracles.check_loglik(code, out, _data(ctx, small), alpha, mu, sigma)))
    return ops


def build(workload: str, seed: int, workdir: str) -> list:
    """Generate the workload's inputs under ``workdir`` and return its ops."""
    inputs = gen.generate(workload, seed, workdir)
    return {"fit-large": fit_large, "compact-sweep": compact_sweep, "cold-small": cold_small}[workload](
        inputs, workdir
    )
