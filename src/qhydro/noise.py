"""Spatially correlated, time-white Gaussian noise fields.

The equal-time spatial covariance is

    G(lambda) = A exp[-(lambda/lambda_c)^2],   A = mu 8 m (k_B Theta)^2 / (pi^3 hbar^2),

sampled exactly by circulant embedding: the stationary kernel is
diagonalized by the FFT on the periodic extension of the grid, so each
draw has the target covariance without factorizing a dense matrix.  The
kernel is real and symmetric, so a real-input FFT pair applies it: each
real white row of the embedding length M goes through rfft, is scaled by
the filter sqrt(eig) at the M // 2 + 1 non-negative frequencies, and
comes back through irfft; its first n_points entries are the field.  M
is the smallest 2^a 3^b 5^c >= 2 (n_points - 1): every length from there
on holds the kernel at each grid lag exactly, and the FFT is fastest on
a 5-smooth length (the default 801-point grid uses 1,600, while 2 x 801
= 1,602 has the prime factor 89, which slows every transform).  The
filter is computed once per (model, grid) and kept in a small cache.  A
batch is drawn in fixed row chunks into one output array: the caller's
thread draws every chunk's white noise from the generator in order, and
up to two threads filter the chunks (rfft, filter, irfft, projection)
into disjoint rows.  Each row's transform depends on that row alone, so
the bits are those of a one-shot batch whatever the chunking or the
thread that filtered it; a one-chunk batch is filtered inline, with no
thread.  Peak memory is the output array plus a few chunk buffers.  A
caller that needs only a summary of each field (noise-audit's lag means)
passes ``reduce``: each chunk is reduced on the thread that filtered it,
and the output holds the summaries, so a batch of any size costs the
chunk buffers plus the summaries.  The delta(tau) time factor is the
integrator's contract (fields are scaled by sqrt(dt) there); the sampler
produces unit-time-density fields.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
import math
import os

import numpy as np

from .constants import HBAR, K_B
from .errors import UnderResolvedKernelError, ValidationError
from .grids import Grid


@dataclass(frozen=True)
class RandomStream:
    """Seeded RNG wrapper: identical seeds give identical sample sequences."""

    seed: int

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def noise_amplitude(mass: float, theta: float, mobility_mu: float) -> float:
    """A = mu 8 m (k_B Theta)^2 / (pi^3 hbar^2), the covariance at zero lag."""
    if mass <= 0:
        raise ValidationError("mass must be positive")
    if theta < 0:
        raise ValidationError("theta must be >= 0")
    if mobility_mu <= 0:
        raise ValidationError("mobility_mu must be positive")
    return mobility_mu * 8.0 * mass * (K_B * theta) ** 2 / (math.pi**3 * HBAR**2)


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian-kernel noise: amplitude from (mass, Theta, mu), length lambda_c."""

    theta: float                 # K
    lambda_c: float              # m
    mass: float                  # kg, enters the amplitude prefactor
    mobility_mu: float = 1.0
    conserving: bool = True      # project each sample to zero spatial integral

    def __post_init__(self):
        # validates parameter signs as a side effect
        noise_amplitude(self.mass, self.theta, self.mobility_mu)
        if self.lambda_c <= 0:
            raise ValidationError("lambda_c must be positive")

    @property
    def amplitude(self) -> float:
        return noise_amplitude(self.mass, self.theta, self.mobility_mu)


def covariance(model: NoiseModel, separation: float) -> float:
    """Equal-time spatial covariance density at the given separation."""
    return model.amplitude * math.exp(-((separation / model.lambda_c) ** 2))


# rows per chunk in sample_fields: the working set beyond the output is, per
# chunk in flight, a real (CHUNK_ROWS, M) white buffer and a complex
# (CHUNK_ROWS, M // 2 + 1) spectrum buffer, M the embedding length,
# whatever the sample count
CHUNK_ROWS = 32


@lru_cache(maxsize=8)
def _embedding_length(n_points: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2 (n_points - 1), the circulant length M.

    For every grid lag d <= n_points - 1, M - d >= d, so the row's
    distance min(d, M - d) is d itself and the embedding holds G(d h)
    exactly; the cache spares each sample_fields call the search.
    """
    target = 2 * (n_points - 1)
    best = 1 << (target - 1).bit_length()        # a power of two >= target
    odd = 1
    while odd < best:                            # odd = 5^c
        length = odd
        while length < best:                     # length = 3^b 5^c
            smooth = length
            while smooth < target:
                smooth *= 2
            best = min(best, smooth)
            length *= 3
        odd *= 5
    return best


def _kernel_row(model: NoiseModel, grid: Grid) -> np.ndarray:
    """First row of the circulant extension of the kernel.

    Its length is ``_embedding_length(n_points)``, and its first n_points
    entries are G at lags 0, h, ..., (n_points - 1) h.
    """
    m = _embedding_length(grid.n_points)
    j = np.arange(m)
    dist = np.minimum(j, m - j) * grid.spacing
    return model.amplitude * np.exp(-((dist / model.lambda_c) ** 2))


@lru_cache(maxsize=8)
def _spectral_filter(model: NoiseModel, grid: Grid) -> np.ndarray:
    """sqrt of the circulant kernel's eigenvalues, read-only.

    Only the M // 2 + 1 non-negative frequencies are kept: the kernel
    row is real and symmetric, so its eigenvalues are real and even in
    frequency, and irfft supplies the other half.
    """
    eig = np.fft.rfft(_kernel_row(model, grid)).real
    # the embedding is positive definite for the Gaussian kernel up to
    # roundoff; clip stray negative eigenvalues at zero
    filt = np.sqrt(np.clip(eig, 0.0, None))
    filt.flags.writeable = False
    return filt


def _filter_threads() -> int:
    """Threads that filter a multi-chunk batch: two, or one on a single CPU.

    The caller's serial draw of the white noise and the memory bound (one
    output array plus a buffer pair per chunk in flight) both argue
    against more.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _filter_chunk(white: np.ndarray, spectrum: np.ndarray, rows: np.ndarray,
                  filt: np.ndarray, model: NoiseModel, grid: Grid) -> None:
    """Filter the white rows in ``white`` into ``rows``, via ``spectrum``.

    y = F^-1 sqrt(eig) F xi is a real symmetric circulant acting on white
    noise, so cov(y) is exactly the circulant kernel.  Both buffers are
    overwritten: ``spectrum`` holds the rfft, and ``white`` the irfft.
    numpy's FFTs release the GIL, so chunks filter in parallel on
    separate threads.
    """
    np.fft.rfft(white, axis=1, out=spectrum)
    spectrum *= filt
    np.fft.irfft(spectrum, n=white.shape[1], axis=1, out=white)
    rows[:] = white[:, :rows.shape[1]]
    if model.conserving:
        rows -= (np.trapezoid(rows, dx=grid.spacing, axis=1)
                 / grid.length)[:, None]


def sample_fields(model: NoiseModel, grid: Grid, stream: RandomStream,
                  count: int, rng: np.random.Generator | None = None, *,
                  reduce: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> np.ndarray:
    """``count`` independent samples, shape (count, n_points).

    Pass ``rng`` to draw a sequence of batches from one stream; otherwise a
    fresh generator is built from the stream seed (deterministic per call).

    Pass ``reduce`` to keep a summary of each sample instead of the sample:
    each filtered chunk ``rows`` of shape (k, n_points) is replaced by
    ``reduce(rows)``, of shape (k, m), on the thread that filtered it, and
    the call returns shape (count, m), sized from the first reduced chunk.
    No (count, n_points) array is held, so peak memory is the chunk buffers
    in flight plus the result.  ``reduce`` must treat rows independently
    and keep no reference to ``rows``, whose buffer is reused; then the
    result is ``reduce`` of the unreduced batch, bit for bit, whatever the
    chunking.
    """
    if grid.spacing >= model.lambda_c / 2.0:
        raise UnderResolvedKernelError(
            f"under-resolved kernel: spacing {grid.spacing:.3e} m must be "
            f"below lambda_c/2 = {model.lambda_c / 2.0:.3e} m")
    n = grid.n_points
    if model.amplitude == 0.0 or count == 0:
        # nothing to draw: every row is zero, or there is no row
        zero = np.zeros((1, n))
        return np.repeat(zero if reduce is None else reduce(zero), count,
                         axis=0)
    filt = _spectral_filter(model, grid)
    if rng is None:
        rng = stream.generator()
    samples = np.empty((count, n)) if reduce is None else None
    starts = range(0, count, CHUNK_ROWS)
    # a multi-chunk batch runs on a pool: its threads filter up to
    # `threads` chunks while the caller draws the next into a free slot
    threads = _filter_threads() if len(starts) > 1 else 0
    # one (white, spectrum) buffer pair per chunk in flight, plus the rows
    # to reduce when there is no output array to filter into; the
    # transforms write their results into it instead of allocating them
    chunk = min(count, CHUNK_ROWS)
    slots = [(np.empty((chunk, _embedding_length(n))),
              np.empty((chunk, filt.size), dtype=complex),
              None if reduce is None else np.empty((chunk, n)))
             for _ in range(threads + 1)]

    def draw(index: int, start: int) -> tuple:
        """(white, spectrum, rows) of one chunk, its noise drawn in order."""
        white, spectrum, rows = slots[index % len(slots)]
        k = min(CHUNK_ROWS, count - start)
        rng.standard_normal(out=white[:k])
        rows = samples[start:start + k] if rows is None else rows[:k]
        return white[:k], spectrum[:k], rows

    def filtered(white: np.ndarray, spectrum: np.ndarray,
                 rows: np.ndarray) -> np.ndarray | None:
        """Filter one chunk into ``rows``; its reduction, if there is one."""
        _filter_chunk(white, spectrum, rows, filt, model, grid)
        return None if reduce is None else reduce(rows)

    def store(start: int, reduced: np.ndarray | None) -> None:
        nonlocal samples
        if reduced is None:         # filtered straight into the output
            return
        if samples is None:
            samples = np.empty((count, *reduced.shape[1:]), reduced.dtype)
        samples[start:start + CHUNK_ROWS] = reduced

    if not threads:
        for index, start in enumerate(starts):
            store(start, filtered(*draw(index, start)))
        return samples
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads) as pool:
        in_flight = deque()
        for index, start in enumerate(starts):
            if len(in_flight) == len(slots):
                # the oldest chunk holds the slot drawn into next; results
                # are awaited in order, so a worker's error re-raises here
                at, future = in_flight.popleft()
                store(at, future.result())
            in_flight.append((start, pool.submit(filtered,
                                                 *draw(index, start))))
        for at, future in in_flight:
            store(at, future.result())
    return samples


def sampled_covariance(model: NoiseModel, grid: Grid, lag: int) -> float:
    """Expected mean of x_i x_(i+lag) along the grid for ``sample_fields`` rows.

    Without the conserving projection this is G(lag h).  The projection
    y = x - (w.x / L) 1, with w the trapezoid weights and C the kernel
    matrix, gives cov(y)_ij = C_ij - a_i - a_j + b with a = Cw/L and
    b = w.Cw/L^2, so the mean along the lag is
    G(lag h) - mean(a[:n-lag]) - mean(a[lag:]) + b.
    """
    target = covariance(model, lag * grid.spacing)
    if not model.conserving:
        return target
    n = grid.n_points
    g = _kernel_row(model, grid)[:n]
    weights = np.full(n, grid.spacing)
    weights[[0, -1]] = grid.spacing / 2.0
    # C is the symmetric Toeplitz matrix of g, so Cw is a convolution
    a = np.convolve(np.concatenate((g[:0:-1], g)), weights,
                    mode="valid") / grid.length
    b = float(weights @ a) / grid.length
    return target - float(np.mean(a[:n - lag])) - float(np.mean(a[lag:])) + b
