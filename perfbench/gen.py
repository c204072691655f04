"""Seeded input generator: every file a workload reads, made with numpy alone.

``generate(workload, seed, outdir)`` writes the workload's CSVs into
``outdir`` and returns their paths plus any seeded command argument (the
``simulate --seed`` of fit-large).  The same seed gives byte-identical files.
"""

from __future__ import annotations

import math
import os

import numpy as np

# fit-large: the heavy-tailed member simulate draws and estimate/loglik read.
FIT_ALPHA = 0.8
FIT_MU = "1,-2"
FIT_SIGMA = "2,0.6;0.6,1"
FIT_N = 200_000

# compact-sweep: two layouts of an n = 1000 sample.  At n = 2000 one
# clustered call takes 6-9 s, too few calls per run to average out the
# host's speed swings.
COMPACT_N = 1000

# cold-small: a 1000 x 1 heavy-tailed sample for estimate and loglik.
SMALL_ALPHA = 0.8
SMALL_N = 1000

# Streams of one seed, so that adding a file never shifts another's draws.
_STREAMS = {"fit-large": 0, "clustered": 1, "spread": 2, "small": 3}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def write_csv(path: str, data: np.ndarray) -> str:
    """One observation per row at 17 significant digits (float64 round trip)."""
    np.savetxt(path, np.asarray(data, dtype=float).reshape(len(data), -1), fmt="%.17g", delimiter=",")
    return path


def clustered_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws from the alpha = 2, unit-variance parabola density around a seeded mu.

    2*Beta(2,2) - 1 has density 3/4 (1 - u^2) on [-1, 1]; scaled by sqrt(5) it
    is the order-2 member with variance 1, so every point lies within
    2*sqrt(5) of every other and each segment's active set holds about n points.
    """
    mu = rng.uniform(-10.0, 10.0)
    return mu + math.sqrt(5.0) * (2.0 * rng.beta(2.0, 2.0, size=n) - 1.0)


def spread_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform on [0, n]: each active set holds about 2 sqrt(5) = 4.5 points."""
    return rng.uniform(0.0, float(n), size=n)


def small_sample(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """Student-t member of order alpha in d = 1, mean 0 and variance 1."""
    nu = 2.0 / (1.0 - alpha) - 1.0
    return rng.standard_t(nu, size=n) * math.sqrt((nu - 2.0) / nu)


def generate(workload: str, seed: int, outdir: str) -> dict:
    """Write the inputs of one workload; returns name -> path (or seeded value)."""
    os.makedirs(outdir, exist_ok=True)
    if workload == "fit-large":
        return {"simulate_seed": int(_rng(seed, "fit-large").integers(0, 2**31 - 1))}
    if workload == "compact-sweep":
        return {
            "clustered": write_csv(
                os.path.join(outdir, "clustered.csv"), clustered_sample(_rng(seed, "clustered"), COMPACT_N)
            ),
            "spread": write_csv(os.path.join(outdir, "spread.csv"), spread_sample(_rng(seed, "spread"), COMPACT_N)),
        }
    if workload == "cold-small":
        return {
            "small": write_csv(
                os.path.join(outdir, "small.csv"), small_sample(_rng(seed, "small"), SMALL_N, SMALL_ALPHA)
            )
        }
    raise ValueError(f"unknown workload {workload!r}")
