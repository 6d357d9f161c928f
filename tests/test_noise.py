import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import tracemalloc

from qhydro.constants import HBAR, K_B
from qhydro.errors import UnderResolvedError, ValidationError
from qhydro.grids import Grid
from qhydro import noise
from qhydro.noise import (
    CHUNK_ROWS,
    NoiseModel,
    RandomStream,
    covariance,
    noise_amplitude,
    sample_fields,
    sampled_covariance,
)


def make_model(theta=1.0, lambda_c=1.0, mass=1.0, mu=1.0, conserving=False):
    return NoiseModel(theta=theta, lambda_c=lambda_c, mass=mass,
                      mobility_mu=mu, conserving=conserving)


def test_amplitude_closed_form():
    model = make_model(theta=2.17, mass=6.6465e-27, mu=3.0)
    expected = 3.0 * 8 * 6.6465e-27 * (K_B * 2.17) ** 2 / (math.pi**3 * HBAR**2)
    assert model.amplitude == pytest.approx(expected, rel=1e-12)


def test_covariance_zero_lag_is_amplitude():
    model = make_model()
    assert covariance(model, 0.0) == pytest.approx(model.amplitude)


def test_covariance_one_lambda_c():
    model = make_model()
    assert covariance(model, model.lambda_c) == pytest.approx(
        model.amplitude / math.e)


def test_zero_theta_is_silent():
    model = make_model(theta=0.0)
    assert model.amplitude == 0.0
    grid = Grid(0.0, 10.0, 64)
    f = sample_fields(model, grid, RandomStream(1), 1)[0]
    assert np.all(f == 0.0)


def test_amplitude_theta_squared_scaling():
    assert noise_amplitude(1.0, 2.0, 1.0) == pytest.approx(
        4.0 * noise_amplitude(1.0, 1.0, 1.0), rel=1e-12)


def test_validation():
    with pytest.raises(ValidationError):
        make_model(theta=-1.0)
    with pytest.raises(ValidationError):
        make_model(lambda_c=0.0)
    with pytest.raises(ValidationError):
        make_model(mu=-1.0)


def test_same_seed_identical_fields():
    model = make_model()
    grid = Grid(0.0, 50.0, 256)
    a = sample_fields(model, grid, RandomStream(42), 1)[0]
    b = sample_fields(model, grid, RandomStream(42), 1)[0]
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    model = make_model()
    grid = Grid(0.0, 50.0, 256)
    a = sample_fields(model, grid, RandomStream(1), 1)[0]
    b = sample_fields(model, grid, RandomStream(2), 1)[0]
    assert not np.array_equal(a, b)


def test_under_resolved_kernel_rejected():
    model = make_model(lambda_c=0.1)
    grid = Grid(0.0, 50.0, 256)   # spacing ~0.2 > lambda_c / 2
    with pytest.raises(UnderResolvedError):
        sample_fields(model, grid, RandomStream(0), 1)


def test_conserving_projection_zero_integral():
    model = make_model(conserving=True)
    grid = Grid(0.0, 100.0, 512)
    samples = sample_fields(model, grid, RandomStream(7), 20)
    rms = np.sqrt(np.mean(samples**2))
    integrals = np.trapezoid(samples, dx=grid.spacing, axis=1)
    assert np.max(np.abs(integrals)) < 1e-12 * rms
    # on a periodic grid the projection zeroes the cell sum, the integral
    # the integrator's observables take there; the trapezoid rule's
    # projection left up to 3e-3 of sum |eta| h in it
    grid = Grid(0.0, 100.0, 801, periodic=True)
    samples = sample_fields(model, grid, RandomStream(7), 200)
    cell_sums = np.sum(samples, axis=1) * grid.spacing
    scale = np.sum(np.abs(samples), axis=1) * grid.spacing
    assert np.max(np.abs(cell_sums) / scale) < 1e-14


def test_empirical_covariance_moderate():
    # quick version of the covariance audit; tight 5% bands are exercised
    # by the acceptance suite with many more samples
    model = make_model()
    grid = Grid(0.0, 100.0, 512)
    samples = sample_fields(model, grid, RandomStream(12345), 4000)
    h = grid.spacing
    for lag_factor in (0.0, 1.0):
        k = int(round(lag_factor * model.lambda_c / h))
        if k == 0:
            empirical = float(np.mean(samples**2))
        else:
            empirical = float(np.mean(samples[:, :-k] * samples[:, k:]))
        target = covariance(model, k * h)
        assert empirical == pytest.approx(target, rel=0.10)


def test_empirical_covariance_symmetric_and_decreasing():
    model = make_model()
    grid = Grid(0.0, 100.0, 512)
    samples = sample_fields(model, grid, RandomStream(99), 4000)
    h = grid.spacing
    values = []
    for k in (0, 3, 7, 14):
        if k == 0:
            values.append(float(np.mean(samples**2)))
        else:
            forward = np.mean(samples[:, :-k] * samples[:, k:])
            values.append(float(forward))
    assert values == sorted(values, reverse=True)


def test_conserving_changes_kernel_only_slightly():
    # on a domain much longer than lambda_c the projection perturbs the
    # empirical kernel at the lambda_c / length level
    grid = Grid(0.0, 200.0, 1024)
    raw = sample_fields(make_model(conserving=False), grid, RandomStream(5), 3000)
    proj = sample_fields(make_model(conserving=True), grid, RandomStream(5), 3000)
    var_raw = float(np.mean(raw**2))
    var_proj = float(np.mean(proj**2))
    assert var_proj == pytest.approx(var_raw, rel=5 * 1.0 / 200.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_sample_mean_is_small(seed):
    model = make_model()
    grid = Grid(0.0, 100.0, 512)
    samples = sample_fields(model, grid, RandomStream(seed), 200)
    rms = np.sqrt(np.mean(samples**2))
    assert abs(np.mean(samples)) < 0.1 * rms


def is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def reach(lambda_over_h):
    """The smallest grid lag d with exp(-(d h / lambda_c)^2) <= 2^-53."""
    d = 1
    while math.exp(-((d / lambda_over_h) ** 2)) > 2.0**-53:
        d += 1
    return d


def test_embedding_length_is_the_smallest_5_smooth_past_the_reach():
    smooth = sorted(m for m in range(1, 8001) if is_5_smooth(m))
    # lambda_c / h from just resolved to a kernel whose reach spans the grid
    for lambda_over_h in (2.1, 4.0, 6.8, 65.8, 130.0, 400.0):
        model = make_model(lambda_c=lambda_over_h)
        r = reach(lambda_over_h)
        for n in range(8, 4001):
            grid = Grid(0.0, n - 1.0, n)     # h = 1
            m = noise._embedding_length(model, grid)
            assert m == next(s for s in smooth
                             if s >= n - 1 + min(n - 1, r)), (lambda_over_h, n)
            # a kernel whose reach spans the grid keeps 2 (n - 1)
            if r >= n - 1:
                assert m == next(s for s in smooth if s >= 2 * (n - 1)), n


@pytest.mark.parametrize("n_points", [64, 200, 201, 602, 801])
def test_kernel_row_holds_the_kernel_at_every_grid_lag(n_points):
    model = make_model()
    grid = Grid(0.0, 50.0, n_points)
    row = noise._kernel_row(model, grid)
    m = noise._embedding_length(model, grid)
    assert row.shape == (m,)

    def g(d):
        return covariance(model, d * grid.spacing)

    j = np.arange(m)
    assert np.array_equal(row, g(np.minimum(j, m - j)))
    lags = np.arange(n_points)
    held = lags <= m / 2
    assert np.array_equal(row[lags[held]], g(lags[held]))
    # past M / 2 neither the wrapped entry nor G itself exceeds 2^-53 G(0)
    floor = 2.0**-53 * model.amplitude
    assert np.all(row[lags[~held]] <= floor)
    assert np.all(g(lags[~held]) <= floor)
    # symmetric, so its eigenvalues are real
    assert np.array_equal(row[1:], row[:0:-1])


@pytest.mark.parametrize("q_max, n_points", [(1.5e-9, 201), (1.5e-9, 601),
                                             (2e-9, 801), (1.5e-9, 2001)])
def test_embedding_is_positive_semidefinite_at_benchmark_grids(q_max,
                                                               n_points):
    # on the noise audit's lambda_c: any negative eigenvalue is round-off
    model = NoiseModel(theta=2.17, lambda_c=3.289826e-10, mass=6.6465e-27)
    row = noise._kernel_row(model, Grid(-q_max, q_max, n_points))
    eig = np.fft.rfft(row).real
    assert np.min(eig) >= -1e-12 * np.max(eig)


class BasisNormals:
    """A stand-in generator that yields the unit vectors as its rows.

    The fields drawn from them are the columns of the sampler's linear
    map, so their products give the draw's exact covariance.
    """

    def __init__(self):
        self.drawn = 0

    def standard_normal(self, out):
        rows = np.arange(out.shape[0])
        out[:] = 0.0
        out[rows, self.drawn + rows] = 1.0
        self.drawn += out.shape[0]


@pytest.mark.parametrize("lambda_c, n_points", [
    # the audit's kernel, whose reach of 6.06 lambda_c is shorter than the
    # grid: at N = 801 the embedding length is 1,200 where 2 (N - 1) is 1,600
    *((3.289826e-10, n) for n in (64, 201, 602, 801, 8001)),
    # 2.1 h on this grid: barely resolved, so no mode is dropped and the
    # Nyquist mode is kept
    (1.05e-11, 801),
    # a reach of 813 lags, past the grid's 800, keeps the length 1,600
    (6.7e-10, 801)])
def test_drawn_modes_hold_the_kernel_at_every_grid_lag(lambda_c, n_points):
    model = NoiseModel(theta=2.17, lambda_c=lambda_c, mass=6.6465e-27,
                       conserving=False)
    grid = Grid(-2e-9, 2e-9, n_points)
    n, m = n_points, noise._embedding_length(model, grid)
    filt = noise._spectral_filter(model, grid)
    kept = filt.size
    assert (kept == m // 2 + 1) == (lambda_c < 3 * grid.spacing)
    tolerance = 1e-13 * model.amplitude
    target = covariance(model, np.arange(n) * grid.spacing)
    # the kept eigenvalues: each part of a mode has variance eig M / 2,
    # the real modes 0 and M / 2 variance eig M
    weight = np.full(m // 2 + 1, m / 2)
    weight[0] = m
    if m % 2 == 0:
        weight[-1] = m
    eig = np.zeros(m // 2 + 1)
    eig[:kept] = filt**2 / weight[:kept]
    assert np.max(np.abs(np.fft.irfft(eig, n=m)[:n] - target)) <= tolerance
    # the draw's own covariance with three reference points
    fields = sample_fields(model, grid, RandomStream(0), 2 * kept - 1,
                           BasisNormals())
    for i in (0, n // 2, n - 1):
        lagged = target[np.abs(np.arange(n) - i)]
        assert np.max(np.abs(fields[:, i] @ fields - lagged)) <= tolerance


def project(samples, grid):
    """Subtract each row's trapezoid mean, as the conserving model does."""
    mean_density = np.trapezoid(samples, dx=grid.spacing, axis=1) / grid.length
    return samples - mean_density[:, None]


def spectral_reference(model, grid, rng, count):
    """The whole batch in one draw, one spectrum, one irfft, one projection.

    Row i takes normals [i (2J - 1), (i + 1)(2J - 1)) of the generator: the
    real parts of modes 0..J-1, then the imaginary parts of modes 1..J-1.
    """
    n, m = grid.n_points, noise._embedding_length(model, grid)
    filt = noise._spectral_filter(model, grid)
    kept = filt.size
    normals = rng.standard_normal((count, 2 * kept - 1))
    spectrum = np.zeros((count, m // 2 + 1), dtype=complex)
    spectrum.real[:, :kept] = normals[:, :kept] * filt
    spectrum.imag[:, 1:kept] = normals[:, kept:] * filt[1:]
    samples = np.fft.irfft(spectrum, n=m, axis=1)[:, :n]
    return project(samples, grid) if model.conserving else samples


# one chunk, batches on each side of one and two chunk boundaries, and
# batches of four and seven chunks
CHUNKED_COUNTS = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                  2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 1,
                  3 * CHUNK_ROWS + 5, 6 * CHUNK_ROWS + 5]


@pytest.mark.parametrize("conserving", [False, True])
# odd embedding lengths: 225 at N = 200 (>= 199 + 25) and at N = 201
# (>= 200 + 25), and 675 at N = 602 (>= 601 + 73)
@pytest.mark.parametrize("count, n_points", [
    pytest.param(count, n_points,
                 id=str(count) if n_points == 200 else f"{count}-n{n_points}")
    for n_points in (200, 201, 602) for count in CHUNKED_COUNTS])
def test_chunked_draws_match_one_shot_batch(conserving, count, n_points):
    model = make_model(conserving=conserving)
    grid = Grid(0.0, 50.0, n_points)
    chunked = sample_fields(model, grid, RandomStream(3), count)
    reference = spectral_reference(model, grid, np.random.default_rng(3), count)
    assert chunked.shape == (count, grid.n_points)
    assert np.array_equal(chunked, reference)
    # j rows then k rows from one generator are the first j + k rows
    j = count // 2 + 1
    rng = np.random.default_rng(11)
    split = np.vstack([sample_fields(model, grid, RandomStream(0), j, rng),
                       sample_fields(model, grid, RandomStream(0), count, rng)])
    joined = sample_fields(model, grid, RandomStream(0), j + count,
                           np.random.default_rng(11))
    assert np.array_equal(split, joined)


@pytest.mark.parametrize("conserving", [False, True])
def test_real_fft_filter_matches_complex_fft_filter(conserving):
    # each row's spectrum, extended to all M frequencies by conjugate
    # symmetry, through the complex inverse FFT: its real part is the field
    model = NoiseModel(theta=2.17, lambda_c=3.289826e-10, mass=6.6465e-27,
                       conserving=conserving)
    grid = Grid(-2e-9, 2e-9, 801)
    count = 3 * CHUNK_ROWS + 5
    fields = sample_fields(model, grid, RandomStream(4), count)
    n, m = grid.n_points, noise._embedding_length(model, grid)
    filt = noise._spectral_filter(model, grid)
    kept = filt.size
    normals = np.random.default_rng(4).standard_normal((count, 2 * kept - 1))
    modes = normals[:, :kept] * filt + 0j
    modes[:, 1:] += 1j * (normals[:, kept:] * filt[1:])
    spectrum = np.zeros((count, m), dtype=complex)
    spectrum[:, :kept] = modes
    spectrum[:, m - kept + 1:] = np.conj(modes[:, :0:-1])
    reference = np.fft.ifft(spectrum, axis=1).real[:, :n]
    if conserving:
        reference = project(reference, grid)
    assert (np.max(np.abs(fields - reference))
            <= 1e-12 * np.max(np.abs(reference)))


def record_filter_threads(monkeypatch):
    """Names of the threads that ran each chunk's filter, in call order."""
    names = []
    real = noise._filter_chunk

    def recording(*args):
        names.append(threading.current_thread().name)
        real(*args)

    monkeypatch.setattr(noise, "_filter_chunk", recording)
    return names


def test_one_chunk_batch_filters_inline(monkeypatch):
    names = record_filter_threads(monkeypatch)
    sample_fields(make_model(), Grid(0.0, 50.0, 200), RandomStream(0),
                  CHUNK_ROWS)
    assert names == [threading.current_thread().name]


def test_batch_leaves_no_thread_behind(monkeypatch):
    names = record_filter_threads(monkeypatch)
    before = threading.active_count()
    sample_fields(make_model(), Grid(0.0, 50.0, 200), RandomStream(0),
                  5 * CHUNK_ROWS + 1)
    assert threading.active_count() == before
    assert names == [threading.current_thread().name] * 6


@pytest.mark.parametrize("failing_call", [3, 10])
def test_worker_error_reraises_in_caller(monkeypatch, failing_call):
    # an error in a middle chunk and in the last one
    calls = itertools.count(1)
    real = noise._filter_chunk

    def failing(*args):
        if next(calls) == failing_call:
            raise RuntimeError(f"chunk {failing_call} failed")
        real(*args)

    monkeypatch.setattr(noise, "_filter_chunk", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"chunk {failing_call} failed"):
        sample_fields(make_model(), Grid(0.0, 50.0, 200), RandomStream(0),
                      10 * CHUNK_ROWS)
    assert threading.active_count() == before


@pytest.mark.parametrize("conserving", [False, True])
def test_batch_peak_memory_is_about_the_output(conserving):
    model = make_model(conserving=conserving)
    grid = Grid(0.0, 200.0, 801)
    sample_fields(model, grid, RandomStream(0), 1)     # filter and FFT plan
    tracemalloc.start()
    try:
        samples = sample_fields(model, grid, RandomStream(0), 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * samples.nbytes + 4 * 2**20


def row_summary(rows):
    """A per-row reduction: each row's sum, and its product at two points."""
    return np.stack([rows.sum(axis=1), rows[:, 3] * rows[:, -5]], axis=1)


@pytest.mark.parametrize("conserving", [False, True])
# no row, one chunk, and batches whose last chunk has 1, 1 and 4 rows
@pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS,
                                   CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1, 100])
def test_reduced_batch_matches_reduce_of_batch(conserving, count):
    model = make_model(conserving=conserving)
    grid = Grid(0.0, 50.0, 200)
    reduced = sample_fields(model, grid, RandomStream(6), count,
                            reduce=row_summary)
    expected = row_summary(sample_fields(model, grid, RandomStream(6), count))
    assert reduced.shape == (count, 2)
    assert np.array_equal(reduced, expected)
    # a reduced batch advances a shared generator as the unreduced one does
    rng = np.random.default_rng(2)
    sample_fields(model, grid, RandomStream(0), count, rng, reduce=row_summary)
    ref_rng = np.random.default_rng(2)
    sample_fields(model, grid, RandomStream(0), count, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_reduced_silent_noise_is_reduce_of_zero_rows():
    grid = Grid(0.0, 50.0, 200)
    reduced = sample_fields(make_model(theta=0.0), grid, RandomStream(0),
                            CHUNK_ROWS + 1, reduce=row_summary)
    assert np.array_equal(reduced, np.zeros((CHUNK_ROWS + 1, 2)))


def test_reduced_batch_leaves_no_thread_behind(monkeypatch):
    names = record_filter_threads(monkeypatch)
    before = threading.active_count()
    sample_fields(make_model(), Grid(0.0, 50.0, 200), RandomStream(0),
                  5 * CHUNK_ROWS + 1, reduce=row_summary)
    assert threading.active_count() == before
    assert names == [threading.current_thread().name] * 6


@pytest.mark.parametrize("failing_call", [3, 10])
def test_reduce_error_reraises_in_caller(failing_call):
    calls = itertools.count(1)

    def failing(rows):
        if next(calls) == failing_call:
            raise RuntimeError(f"reduce {failing_call} failed")
        return row_summary(rows)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"reduce {failing_call} failed"):
        sample_fields(make_model(), Grid(0.0, 50.0, 200), RandomStream(0),
                      10 * CHUNK_ROWS, reduce=failing)
    assert threading.active_count() == before


@pytest.mark.parametrize("conserving", [False, True])
def test_reduced_batch_peak_memory_is_the_chunk_buffers(conserving):
    model = make_model(conserving=conserving)
    grid = Grid(0.0, 200.0, 801)
    sample_fields(model, grid, RandomStream(0), 1)     # filter and FFT plan
    tracemalloc.start()
    try:
        sample_fields(model, grid, RandomStream(0), 2000, reduce=row_summary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one set of normals, spectrum and field buffers, 32 rows each, reduced
    # in place: 0.8 MB, against 12.8 MB for the unreduced batch
    assert peak < 4 * 2**20


def test_spectral_filter_cached_read_only_and_keyed():
    model = make_model()
    grid = Grid(0.0, 50.0, 256)
    filt = noise._spectral_filter(model, grid)
    assert noise._spectral_filter(make_model(), Grid(0.0, 50.0, 256)) is filt
    # the modes before the first eigenvalue at or below the floor, fewer
    # than the 145 non-negative frequencies of the length 288
    eig = np.fft.rfft(noise._kernel_row(model, grid)).real
    kept = filt.size
    assert kept < noise._embedding_length(model, grid) // 2 + 1
    assert np.all(eig[1:kept] > noise.SPECTRUM_FLOOR * eig[0])
    assert eig[kept] <= noise.SPECTRUM_FLOOR * eig[0]
    assert not filt.flags.writeable
    with pytest.raises(ValueError):
        filt[0] = 0.0
    other_lambda = noise._spectral_filter(make_model(lambda_c=2.0), grid)
    other_grid = noise._spectral_filter(model, Grid(0.0, 40.0, 256))
    assert not np.array_equal(other_lambda, filt)
    assert not np.array_equal(other_grid, filt)


def test_under_resolved_kernel_rejected_on_cache_hit():
    model = make_model(lambda_c=0.1)
    grid = Grid(0.0, 50.0, 256)   # spacing ~0.2 > lambda_c / 2
    noise._spectral_filter(model, grid)
    for _ in range(2):
        with pytest.raises(UnderResolvedError):
            sample_fields(model, grid, RandomStream(0), 1)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("conserving", [False, True])
def test_sampled_covariance_matches_dense_projection(conserving, periodic):
    # reference: cov(P x) = P C P^T with P = I - 1 w^T / L, averaged along
    # each lag diagonal; w and L are the trapezoid rule's weights and
    # q_max - q_min between walls, h on every point and N h on a
    # periodic grid
    model = make_model(conserving=conserving)
    grid = Grid(0.0, 6.0, 61, periodic=periodic)
    q = grid.points
    kernel = model.amplitude * np.exp(-(((q[:, None] - q[None, :])
                                         / model.lambda_c) ** 2))
    if conserving:
        w = np.full(grid.n_points, grid.spacing)
        measure = grid.n_points * grid.spacing
        if not periodic:
            w[[0, -1]] = grid.spacing / 2.0
            measure = grid.q_max - grid.q_min
        proj = np.eye(grid.n_points) - np.outer(np.ones(grid.n_points), w) / measure
        kernel = proj @ kernel @ proj.T
    for k in (0, 1, 10, 20, 60):
        expected = float(np.mean(np.diagonal(kernel, k)))
        assert sampled_covariance(model, grid, k) == pytest.approx(
            expected, rel=1e-9, abs=1e-12 * model.amplitude)


def test_conserving_empirical_covariance_matches_projected_target():
    # on a domain a few lambda_c long the projection drives the lag-2
    # covariance negative; the projected target follows it
    model = make_model(conserving=True)
    grid = Grid(0.0, 6.0, 121)
    samples = sample_fields(model, grid, RandomStream(21), 4000)
    for k in (0, 20, 40):
        empirical = float(np.mean(samples[:, :grid.n_points - k] * samples[:, k:]))
        target = sampled_covariance(model, grid, k)
        assert abs(empirical - target) < 0.06 * model.amplitude
    assert sampled_covariance(model, grid, 40) < 0.0
    assert abs(sampled_covariance(model, grid, 40)
               - covariance(model, 40 * grid.spacing)) > 0.2 * model.amplitude
