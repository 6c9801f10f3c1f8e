"""Monte Carlo estimation of voting power and split gain, sweeps, and
distributional diagnostics (KDE, QQ).

Runs are partitioned into fixed-size chunks, each on its own derived random
stream, sampled by the block kernel `sampler.greedy_runs` in forked workers of
two or more chunks each and merged in chunk order: a seed reproduces an
estimate bit for bit at any CPU count within one layout (`STREAM_LAYOUT`).
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, SamplingError
from .weights import (
    IDENTITY,
    SamplingDistribution,
    SplitSpec,
    WeightDistribution,
    WeightFunction,
    ZipfParams,
    _check_count,
    _check_k,
    _check_node,
    apply_split,
    sampling_distribution,
    zipf_weights,
)
from .sampler import (RngStream, _alias_table, as_stream, chunk_stream, greedy_runs,
                      retained_stream, sweep_stream)

CHUNK_RUNS = 10_000
RETAINED_CAP = 1_000_000
_CI_Z = 1.96  # normal approximation, level 0.95

# sweep axis -> the GainExperiment field it sets and that field's type
SWEEP_AXES = {
    "network_size": ("n_nodes", int),
    "sample_k": ("k", int),
    "split_r": ("split_r", int),
    "zipf_s": ("zipf_s", float),
}


@dataclass(eq=False)
class GainEstimate:
    """Mean/spread summary of per-run gains (or voting-power shares)."""

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    n_runs: int
    retained_samples: np.ndarray | None = None


@dataclass(eq=False)
class SweepResult:
    points: list  # [(axis_value, GainEstimate), ...]


def _chunks(n_runs: int, rng: RngStream) -> list:
    """The chunk plan: (stream, run count) per fixed-size chunk, in order.
    One run has no sample variance, so it would claim a zero-width interval."""
    n_runs = _check_count(n_runs, "n_runs")
    if n_runs < 2:
        raise InvalidParameterError("n_runs must be >= 2: one run gives no standard error")
    return [(chunk_stream(rng, ci), min(CHUNK_RUNS, n_runs - start))
            for ci, start in enumerate(range(0, n_runs, CHUNK_RUNS))]


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def _map_chunks(fn, chunks: list) -> list:
    """fn(stream, count) of every chunk, in chunk order.  The chunks are cut
    into min(_cpus(), len(chunks) // 2) contiguous slices; the caller runs the
    first, and a child forked for each other pipes back its results and its
    streams' end states.  Every child is reaped before an error is raised.  If
    a fork is refused, the caller runs that slice and the rest after merging."""
    n = max(1, min(_cpus(), len(chunks) // 2))
    parts = [chunks[len(chunks) * j // n:len(chunks) * (j + 1) // n] for j in range(n)]
    children, replies = [], []
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            with open(w, "wb") as pipe:  # the caller's end closes even if the fork fails
                try:
                    pid = os.fork()
                except OSError:  # out of processes or memory: no further forks
                    os.close(r)
                    break
                if pid == 0:  # leaves by os._exit: no stdio flush, no hooks
                    try:
                        out = [(fn(s, c), s.generator.bit_generator.state) for s, c in part]
                    except BaseException as exc:
                        out = exc
                    try:
                        pipe.write(pickle.dumps(out))
                        pipe.flush()
                    finally:
                        os._exit(0)
            children.append((pid, r))
        results = [fn(s, c) for s, c in parts[0]]
    finally:
        for pid, r in children:
            with open(r, "rb") as pipe:
                reply = pipe.read()
            replies.append(reply if os.waitpid(pid, 0)[1] == 0 else b"")  # 0 unless killed
    for part, reply in zip(parts[1:], replies):  # the first error in chunk order
        out = pickle.loads(reply) if reply else SamplingError("a chunk worker sent no result")
        if isinstance(out, BaseException):
            raise out
        for (stream, _), (result, state) in zip(part, out):
            results.append(result)
            stream.generator.bit_generator.state = state
    return results + [fn(s, c) for part in parts[1 + len(replies):] for s, c in part]


def _per_run(p: SamplingDistribution, k: int, chunks: list, track, split=None) -> np.ndarray:
    """Per run, chunk by chunk: the share of its draws that hit the tracked
    nodes, or with a split the coupled post-split run's share less that."""
    def chunk(chunk_rng: RngStream, count: int) -> np.ndarray:
        runs = greedy_runs(p, k, chunk_rng, count, track=track, split=split)
        share = runs.y / runs.v
        return share if split is None else runs.y_post / runs.v_post - share

    _alias_table(p)  # built before the fork, so the workers share it
    return np.concatenate(_map_chunks(chunk, chunks))


def _summarize(values: np.ndarray, rng: RngStream) -> GainEstimate:
    n = int(values.size)
    mean = float(values.sum() / n)
    se = (float(np.sum((values - mean) ** 2) / (n - 1)) / n) ** 0.5
    retained = values
    if n > RETAINED_CAP:
        keep = retained_stream(rng).generator.choice(n, RETAINED_CAP, replace=False)
        retained = values[np.sort(keep)]
    return GainEstimate(mean=mean, std_error=se, ci_low=mean - _CI_Z * se,
                        ci_high=mean + _CI_Z * se, n_runs=n, retained_samples=retained)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_voting_power(p: SamplingDistribution, k: int, i: int, n_runs: int,
                          seed) -> GainEstimate:
    """Average occupancy share of node i over independent greedy samples."""
    rng = as_stream(seed)
    return _summarize(_per_run(p, k, _chunks(n_runs, rng), i), rng)


def estimate_split_gain(w: WeightDistribution, f: WeightFunction, k: int,
                        split: SplitSpec, n_runs: int, seed, coupled: bool = True
                        ) -> GainEstimate:
    """Estimate the voting power gained by splitting one node.

    Coupled mode drives the pre- and post-split runs from a shared draw
    stream (variance reduction; identity f, alpha = 1, only).  Independent
    mode samples the two networks separately and works for any weight
    function, at the price of a noisier estimate.  It runs every chunk's
    pre-split runs first, drops the pre-split distribution and its alias
    table, and then samples the post-split network on the same chunk
    streams, each going on where its pre-split runs stopped: the draws of
    stream layout 3, with one network's table in memory at a time.
    """
    rng = as_stream(seed)
    chunks = _chunks(n_runs, rng)
    if coupled:  # greedy_runs refuses a split unless f is m ** 1
        values = _per_run(sampling_distribution(w, f), k, chunks, split.node, split)
    else:
        split.check(w.weights)  # a bad split is refused before any draw
        pre = _per_run(sampling_distribution(w, f), k, chunks, split.node)
        p_hat = sampling_distribution(apply_split(w, split)[0], f)
        del w  # a sweep's point weights go before the post-split table is built
        values = _per_run(p_hat, k, chunks, split.parts) - pre
    return _summarize(values, rng)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GainExperiment:
    """Base configuration for gain sweeps: a Zipf network whose heaviest node
    (by default) splits into equal parts."""

    zipf_s: float = 1.0
    n_nodes: int = 1000
    k: int = 20
    node: int = 0
    split_r: int = 2
    n_runs: int = 100_000
    coupled: bool = True
    f: WeightFunction = IDENTITY


def sweep_values(axis: str, values) -> list:
    """values as the type of the field that `axis` sets: a count axis reads
    them by the count rule, which refuses a fraction rather than cutting it."""
    if axis not in SWEEP_AXES:
        raise InvalidParameterError(
            f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    if SWEEP_AXES[axis][1] is float:
        return [float(value) for value in values]
    return [_check_count(value, f"sweep axis {axis}") for value in values]


def _support(zipf: ZipfParams, f: WeightFunction) -> int:
    """The support size of a Zipf network under f.  Every weight is at least
    N^-s / N and its image at least (N^-s / N)^alpha / N; while both are normal
    floats (>= 2^-1022) no probability rounds to 0, and alpha = 0 maps every
    node to 1, so the support is N.  Past that the network is built and counted."""
    log_n = math.log(zipf.n)
    log_w = -(zipf.s + 1.0) * log_n
    if f.alpha == 0 or min(log_w, f.alpha * log_w - log_n) >= -1022 * math.log(2):
        return zipf.n
    return sampling_distribution(zipf_weights(zipf), f).support_size


def _plan(cfg: GainExperiment) -> tuple:
    """A sweep point's Zipf parameters and split, refused if the point cannot
    run: bad Zipf parameters or split, a split node beyond the network's
    nodes, weights too large to allocate (np.empty touches no page, so a
    network past the address space fails at once), or k beyond the support
    (`_support`, which builds no network where a bound settles it)."""
    zipf = ZipfParams(s=cfg.zipf_s, n=cfg.n_nodes)
    split = SplitSpec.equal(cfg.node, cfg.split_r)
    _check_node(split.node, zipf.n, "split node")
    np.empty(zipf.n)
    _check_k(cfg.k, _support(zipf, cfg.f))
    return zipf, split


def sweep_gain(base: GainExperiment, axis: str, values, seed) -> SweepResult:
    """One gain estimate per axis value, all derived from a single master seed.

    Every point is planned before the first one runs, so a refused point
    costs no estimate, and each runs from its plan.  Point j runs on stream
    id offset j, so a one-point sweep reproduces a plain estimate_split_gain
    call bit for bit.
    """
    vals = sweep_values(axis, list(values))
    if not vals:
        raise InvalidParameterError("sweep needs at least one axis value")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise InvalidParameterError("axis values must be strictly increasing")
    configs = [replace(base, **{SWEEP_AXES[axis][0]: value}) for value in vals]
    plans = [_plan(cfg) for cfg in configs]
    master = as_stream(seed)
    points = []
    for j, (value, cfg, (zipf, split)) in enumerate(zip(vals, configs, plans)):
        est = estimate_split_gain(zipf_weights(zipf), cfg.f, cfg.k, split, cfg.n_runs,
                                  sweep_stream(master, j), coupled=cfg.coupled)
        points.append((value, est))
    return SweepResult(points=points)


# ---------------------------------------------------------------------------
# distributional diagnostics
# ---------------------------------------------------------------------------

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd * n**(-1/5) for a Gaussian kernel."""
    n = samples.size
    sd = float(samples.std(ddof=1)) if n > 1 else 0.0
    return 1.06 * sd * n ** (-0.2)


def check_kde_args(bandwidth, points: int):
    """The bandwidth as a float (None kept: Silverman's rule), refused unless
    finite and > 0 with a finite kernel peak 1 / (h sqrt(2 pi)), which bounds
    every density, and the grid size, a count refused below 1 point."""
    if _check_count(points, "grid points") < 1:
        raise InvalidParameterError(f"the density grid needs at least 1 point, not {points}")
    h = None if bandwidth is None else float(bandwidth)
    if h is not None and not (0 < h < np.inf and 1.0 / (h * _SQRT_2PI) < np.inf):
        raise InvalidParameterError(f"bandwidth must be finite and > 0 with a finite kernel "
                                    f"peak 1 / (h sqrt(2 pi)), not {h}")
    return h


def kde_density(samples, bandwidth=None, points: int = 512) -> np.ndarray:
    """Gaussian kernel density estimate, returned as (x, density) rows on
    `points` points spanning the sample range widened by five bandwidths on
    each side, which keeps the trapezoid integral within about 1e-3 of 1.
    """
    h = check_kde_args(bandwidth, points)
    x = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if x.size == 0:
        raise InvalidParameterError("cannot estimate a density from no samples")
    if h is None:
        h = silverman_bandwidth(x)
        if not h > 0:
            raise InvalidParameterError("samples have zero variance; pass an explicit bandwidth")
    grid = np.linspace(float(x.min()) - 5.0 * h, float(x.max()) + 5.0 * h, _check_count(points))
    density = np.empty(grid.size)
    norm = 1.0 / (x.size * h * _SQRT_2PI)
    step = max(1, int(4_000_000 // max(1, x.size)))  # bound the outer-product size
    for start in range(0, grid.size, step):
        block = grid[start:start + step, None]
        z = (block - x[None, :]) / h
        density[start:start + step] = np.exp(-0.5 * z * z).sum(axis=1) * norm
    return np.column_stack([grid, density])


def qq_points(samples) -> np.ndarray:
    """Standard-normal QQ pairs (theoretical_quantile, sample_quantile).

    Samples are standardized first, so any affine rescaling of the input
    leaves the points unchanged.
    """
    from scipy.special import ndtri  # deferred: importing it dominates CLI start-up

    x = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if x.size < 2:
        raise InvalidParameterError("QQ plot needs at least two samples")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise InvalidParameterError("samples have zero variance")
    standardized = np.sort((x - x.mean()) / sd)
    n = x.size
    theo = ndtri((np.arange(1, n + 1) - 0.5) / n)
    return np.column_stack([theo, standardized])
