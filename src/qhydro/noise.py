"""Spatially correlated, time-white Gaussian noise fields.

The equal-time spatial covariance is

    G(lambda) = A exp[-(lambda/lambda_c)^2],   A = mu 8 m (k_B Theta)^2 / (pi^3 hbar^2),

written once, as ``covariance``; a ``NoiseModel`` computes and checks A
once, when it is built.  Fields are sampled exactly by circulant
embedding (Wood & Chan 1994; Dietrich & Newsam 1997): the stationary
kernel, extended periodically to length M, is diagonalized by the FFT,
so a field with that covariance is the inverse transform of a Hermitian
spectrum whose mode j is complex normal with variance set by the
kernel's eigenvalue eig_j.  The kernel's reach r is the smallest grid
lag at which G has fallen to 2^-53 G(0), a float's resolution; past it
G is negligible.  M (``_embedding_length``) holds G at every grid lag it
must and wraps only negligible ones, and the FFT is fastest on its
5-smooth length.  On a periodic grid the field is periodic, so M is
n_points and the kernel is taken at the wrapped lag.  The spectrum of a
Gaussian kernel is itself a Gaussian, so past a few lambda_c-dependent
modes the eigenvalues are rounding noise; only the J modes before
``SPECTRUM_FLOOR`` are drawn.  Each field takes a fixed block of 2J - 1
normals from the generator, the real parts of modes 0..J-1 and the
imaginary parts of modes 1..J-1, goes through one irfft, and its first
n_points entries are the field.  The filter is computed once per (model,
grid) and kept in a small cache.  A batch is drawn on the caller's
thread in chunks of ``CHUNK_ROWS`` rows into one output array; each
row's bits depend on its own normals alone, so they are those of a
one-shot batch whatever the chunking, and a caller that needs only a
summary of each field passes ``reduce`` (``sample_fields``).  A
conserving model projects each field to zero ``grids.integral`` on the
grid it is drawn on, over the grid's ``length``.  The delta(tau) time
factor is the integrator's contract (fields are scaled by sqrt(dt)
there); the sampler produces unit-time-density fields, on a grid that
``params.check_length`` finds resolves lambda_c: h < lambda_c / 2.

The default audit is the worked example the docstrings below refer to:
801 points with lambda_c = 65.8 h give the reach r = 399 and M = 1,200,
whose spectrum keeps 32 of the 601 modes, so a field takes 63 normals,
and the 64-row chunk buffers take 32 kB + 615 kB + 614 kB = 1.26 MB.
The same grid, periodic, uses M = 801.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, lru_cache
import math

import numpy as np

from .constants import HBAR, K_B
from .errors import ValidationError
from .grids import integral, quadrature_weights
from .params import Grid, Record, check_length


class RandomStream(Record):
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
    try:
        amplitude = (mobility_mu * 8.0 * mass * (K_B * theta) ** 2
                     / (math.pi**3 * HBAR**2))
    except OverflowError:            # float ** raises where * gives inf
        amplitude = math.inf
    if not math.isfinite(amplitude):
        raise ValidationError(
            f"noise amplitude overflows at theta = {theta:g} K and "
            f"mobility_mu = {mobility_mu:g}")
    return amplitude


class NoiseModel(Record):
    """Gaussian-kernel noise: amplitude from (mass, Theta, mu), length lambda_c."""

    theta: float                 # K
    lambda_c: float              # m
    mass: float                  # kg, enters the amplitude prefactor
    mobility_mu: float = 1.0
    conserving: bool = True      # project each sample to zero spatial integral

    def __post_init__(self):
        self.amplitude                   # computed and checked here, once
        if self.lambda_c <= 0:
            raise ValidationError("lambda_c must be positive")

    @cached_property
    def amplitude(self) -> float:
        return noise_amplitude(self.mass, self.theta, self.mobility_mu)


def covariance(model: NoiseModel, separation: float | np.ndarray
               ) -> float | np.ndarray:
    """G, the equal-time spatial covariance density, at each separation."""
    return model.amplitude * np.exp(-((separation / model.lambda_c) ** 2))


# rows per chunk in sample_fields: the working set beyond the output is a
# (CHUNK_ROWS, 2J - 1) normals buffer, a complex (CHUNK_ROWS, M // 2 + 1)
# spectrum and a real (CHUNK_ROWS, M) field buffer, M the embedding length
# and J the modes drawn, whatever the sample count (the default audit's
# size is in the module docstring); 64 rows halve the per-chunk calls of
# 32 (the audit's reduction among them), and 128 rows were no faster
CHUNK_ROWS = 64

# modes from the first eigenvalue at or below this fraction of eig[0] on
# are not drawn: the Gaussian's spectrum has fallen into roundoff there,
# and the kept modes hold G to within 1.5e-14 G(0) at every grid lag of
# the audit's kernel (tests/test_noise.py bounds it at 1e-13 G(0))
SPECTRUM_FLOOR = 1e-13

# G is negligible (module docstring) from REACH_LAMBDA_C lambda_c on, about
# 6.06 lambda_c
REACH_LAMBDA_C = math.sqrt(53 * math.log(2))


@lru_cache(maxsize=8)
def _smooth_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target; the cache spares each draw the search."""
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


def _embedding_length(model: NoiseModel, grid: Grid) -> int:
    """The circulant length M: n_points on a periodic grid, and between
    walls the smallest 2^a 3^b 5^c >= (n - 1) + min(n - 1, r).

    A periodic grid's field is periodic itself, so the circulant is the
    grid: M = n.  Between walls, n is n_points and r = ceil((lambda_c / h)
    REACH_LAMBDA_C) the kernel's reach.  Each grid lag d <= M / 2 is held
    exactly.  A lag d > M / 2 wraps to M - d >= min(n - 1, r); a reach
    below n - 1 makes both G(d h) and the held G((M - d) h) negligible,
    and a reach of n - 1 or more gives M >= 2 (n - 1), so no grid lag
    wraps.
    """
    if grid.periodic:
        return grid.n_points
    edge = grid.n_points - 1
    reach = model.lambda_c / grid.spacing * REACH_LAMBDA_C
    # capped before ceil, which a ratio that overflows to inf would fail
    return _smooth_length(edge + math.ceil(min(reach, edge)))


def _kernel_row(model: NoiseModel, grid: Grid) -> np.ndarray:
    """First row of the circulant extension of the kernel.

    Entry j of its ``_embedding_length`` M entries is G(min(j, M - j) h).
    Between walls that is G(d h) itself at every grid lag d <= M / 2, and
    negligible at the grid lags past it, as G(d h) is there.  On a
    periodic grid (M = n) it is G at the wrapped lag, which is the
    periodized kernel sum_m G((j - m n) h) but for negligible terms while
    the reach is under n / 2.
    """
    m = _embedding_length(model, grid)
    j = np.arange(m)
    return covariance(model, np.minimum(j, m - j) * grid.spacing)


@lru_cache(maxsize=8)
def _spectral_filter(model: NoiseModel, grid: Grid) -> np.ndarray:
    """Standard deviations of the drawn modes' real and imaginary parts.

    The kernel row is real and symmetric, so its eigenvalues eig_j are
    real and even in frequency, and irfft supplies the negative
    frequencies.  irfft(c, n=M) has the circulant covariance when c_j has
    real and imaginary parts of variance eig_j M / 2, except that modes 0
    and M / 2 (for even M) are real and carry eig_j M.  Only the prefix
    of modes before the first eig_j <= SPECTRUM_FLOOR eig_0 is kept, so
    every kept eigenvalue is positive.  An amplitude near overflow can
    overflow the transform or eig_j M; such a filter is rejected by name.
    Read-only.
    """
    m = _embedding_length(model, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        eig = np.fft.rfft(_kernel_row(model, grid)).real
        below = np.flatnonzero(eig[1:] <= SPECTRUM_FLOOR * eig[0])
        kept = 1 + below[0] if below.size else eig.size
        weight = np.full(kept, m / 2)
        weight[0] = m
        if kept == m // 2 + 1 and m % 2 == 0:
            weight[-1] = m                   # the Nyquist mode
        filt = np.sqrt(eig[:kept] * weight)
    if not np.isfinite(filt).all():
        raise ValidationError(
            f"noise spectrum overflows at amplitude {model.amplitude:.3e} on "
            f"the {grid.n_points}-point grid of spacing {grid.spacing:.3e} m")
    filt.flags.writeable = False
    return filt


def _filter_chunk(normals: np.ndarray, spectrum: np.ndarray,
                  field: np.ndarray, filt: np.ndarray, model: NoiseModel,
                  grid: Grid) -> None:
    """Turn each row of ``normals`` into a field in that row of ``field``.

    The field is the first n_points entries of the row, projected in
    place when the model conserves: its integral on the grid over the
    grid's ``length`` is subtracted from every point.  ``spectrum`` holds
    the scaled modes, zero past the kept ones and in the imaginary part of
    mode 0, and ``field`` the irfft; both are overwritten.  The imaginary
    part of a kept Nyquist mode is drawn but irfft ignores it, so the block
    per row stays 2J - 1 normals.
    """
    kept = filt.size
    np.multiply(normals[:, :kept], filt, out=spectrum.real[:, :kept])
    np.multiply(normals[:, kept:], filt[1:], out=spectrum.imag[:, 1:kept])
    np.fft.irfft(spectrum, n=field.shape[1], axis=1, out=field)
    if model.conserving:
        rows = field[:, :grid.n_points]
        rows -= (integral(rows, grid) / grid.length)[:, None]


def sample_fields(model: NoiseModel, grid: Grid, stream: RandomStream,
                  count: int, rng: np.random.Generator | None = None, *,
                  reduce: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> np.ndarray:
    """``count`` independent samples, shape (count, n_points).

    Pass ``rng`` to draw a sequence of batches from one stream; otherwise a
    fresh generator is built from the stream seed (deterministic per call).
    A conserving model's projection zeroes each sample's integral on ``grid``.

    Each chunk's ``rows``, shape (k, n_points) and zero for a silent
    model, go into one result array sized from the first chunk.  Pass
    ``reduce`` to keep a summary of each sample instead: ``reduce(rows)``,
    of shape (k, m), goes in, and the call returns shape (count, m).  No
    (count, n_points) array is held, so peak memory is the chunk buffers
    plus the result.  ``reduce`` must treat rows independently and keep no
    reference to ``rows``, a view of the transform's buffer, which is
    reused; then the result is ``reduce`` of the unreduced batch, bit for
    bit, whatever the chunking.
    """
    check_length("lambda_c", model.lambda_c, grid, what="kernel")
    n = grid.n_points
    # one set of chunk buffers, reused by every chunk; the transform writes
    # into them instead of allocating, and the spectrum's zeros stay put
    chunk = min(count, CHUNK_ROWS)
    draw = model.amplitude != 0.0 and count > 0
    if draw:
        filt = _spectral_filter(model, grid)
        if rng is None:
            rng = stream.generator()
        m = _embedding_length(model, grid)
        normals = np.empty((chunk, 2 * filt.size - 1))
        spectrum = np.zeros((chunk, m // 2 + 1), dtype=complex)
    # with nothing to draw every row is zero, or there is no row
    field = np.empty((chunk, m)) if draw else np.zeros((chunk, n))
    samples = None
    # one chunk at least, so that no rows still size the result from one
    for start in range(0, max(count, 1), CHUNK_ROWS):
        k = min(CHUNK_ROWS, count - start)
        if draw:
            rng.standard_normal(out=normals[:k])
            _filter_chunk(normals[:k], spectrum[:k], field[:k], filt, model,
                          grid)
        rows = field[:k, :n]
        kept = rows if reduce is None else reduce(rows)
        if samples is None:
            samples = np.empty((count, *kept.shape[1:]), kept.dtype)
        samples[start:start + k] = kept
    return samples


def sampled_covariance(model: NoiseModel, grid: Grid, lag: int) -> float:
    """Expected mean of x_i x_(i+lag) along the grid for ``sample_fields`` rows
    drawn on ``grid``.

    Without the conserving projection this is G(lag h), at the wrapped lag
    min(lag, n - lag) on a periodic grid.  The projection
    y = x - (w.x / L) 1, with w the grid's ``grids.quadrature_weights``,
    L its ``length`` and C the kernel matrix, gives
    cov(y)_ij = C_ij - a_i - a_j + b with a = Cw/L and b = w.Cw/L^2, so
    the mean along the lag is
    G(lag h) - mean(a[:n-lag]) - mean(a[lag:]) + b.  C is built from G at
    the grid lags 0..n-1 itself, not from the kernel row, which holds G
    only up to lag M / 2.  On a periodic grid C is the circulant of the
    kernel row, G at the same wrapped lags.
    """
    n = grid.n_points
    lags, wrapped = np.arange(n), lag
    if grid.periodic:
        lags, wrapped = np.minimum(lags, n - lags), min(lag, n - lag)
    target = float(covariance(model, wrapped * grid.spacing))
    if not model.conserving:
        return target
    g = covariance(model, lags * grid.spacing)
    weights = quadrature_weights(grid)
    # C is the symmetric Toeplitz matrix of g, so Cw is a convolution
    a = np.convolve(np.concatenate((g[:0:-1], g)), weights,
                    mode="valid") / grid.length
    b = float(weights @ a) / grid.length
    return target - float(np.mean(a[:n - lag])) - float(np.mean(a[lag:])) + b
