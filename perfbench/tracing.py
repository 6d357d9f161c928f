"""The traced run: per-layer metrics from spans recorded around qhydro's
public functions, an import profile, and a grid-size sweep.

Every span is recorded from the benchmark's side: the public functions
listed in ``TARGETS`` are replaced, for the length of a traced unit, by
wrappers that record (name, start, end, parent, unit).  The replacement
covers every module namespace that holds the function, so copies made by
``from .x import f`` (``qhydro.dynamics.sample_fields``,
``qhydro.cli.square_well_solve``, ...) are traced too.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its children, which never overlap (one thread).
"""

from contextlib import contextmanager
import json
import os
from pathlib import Path
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from qhydro import dynamics, grids
from qhydro.noise import NoiseModel, RandomStream, sample_fields

import references as ref
import workloads

# (module, attribute, span name)
TARGETS = (
    ("qhydro.cli", "main", "cli.main"),
    ("qhydro.config", "load_config", "config.load_config"),
    ("qhydro.config", "apply_overrides", "config.apply_overrides"),
    ("qhydro.cases", "lindemann", "cases.lindemann"),
    ("qhydro.cases", "helium_lambda", "cases.helium_lambda"),
    ("qhydro.cases", "helium_state_check", "cases.helium_state_check"),
    ("qhydro.potentials", "square_well_solve", "potentials.square_well_solve"),
    ("qhydro.potentials", "pseudo_gaussian_log_density",
     "potentials.pseudo_gaussian_log_density"),
    ("qhydro.qpotential", "quantum_force", "qpotential.quantum_force"),
    ("qhydro.qpotential", "quantum_force_from_log",
     "qpotential.quantum_force_from_log"),
    ("qhydro.qpotential", "growth_exponent", "qpotential.growth_exponent"),
    ("qhydro.scales", "correlation_length", "scales.correlation_length"),
    ("qhydro.scales", "nonlocality_length", "scales.nonlocality_length"),
    ("qhydro.scales", "classify_regime", "scales.classify_regime"),
    ("qhydro.dynamics", "run", "dynamics.run"),
    ("qhydro.dynamics", "step_deterministic", "dynamics.step_deterministic"),
    ("qhydro.dynamics", "step_stochastic", "dynamics.step_stochastic"),
    ("qhydro.dynamics", "check_cfl", "dynamics.check_cfl"),
    ("qhydro.dynamics", "observables", "dynamics.observables"),
    ("qhydro.grids", "stencil_derivative", "grids.derivative"),
    ("qhydro.noise", "sample_fields", "noise.sample_fields"),
    ("qhydro.noise", "covariance", "noise.covariance"),
    ("qhydro.output", "write_csv", "output.write_csv"),
    ("qhydro.output", "write_summary", "output.write_summary"),
)
FIELD_SPAN = "grids.Field"       # Field construction (its __post_init__)
STEP_SPANS = ("dynamics.step_deterministic", "dynamics.step_stochastic")
# spans whose peak traced allocation is recorded (tracemalloc is started
# only for batch calls, so the per-step draws keep their timing)
MEMORY_SPAN = "noise.sample_fields"

SWEEP_SIZES = (201, 601, 1024, 2001, 8001)
CLI_CYCLES = 5
IMPORT_PROBES = 3


class Tracer:
    """Span recorder: spans are tuples (name, start_ns, end_ns, parent, unit)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.unit = -1
        self.units: dict[int, str] = {}
        self.memory_peaks: list[int] = []

    def begin_unit(self, label: str) -> None:
        self.unit = len(self.units)
        self.units[self.unit] = label

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit)

        if name != MEMORY_SPAN:
            return traced

        def traced_memory(*args, **kwargs):
            count = args[3] if len(args) > 3 else kwargs.get("count", 1)
            if count == 1:
                return traced(*args, **kwargs)
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                self.memory_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced_memory

    @contextmanager
    def installed(self):
        """Replace every traced function, in every qhydro namespace, then restore."""
        restore = []
        modules = [m for name, m in sys.modules.items()
                   if name == "qhydro" or name.startswith("qhydro.")]
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, value))
                        setattr(module, key, wrapper)
        post_init = grids.Field.__post_init__
        grids.Field.__post_init__ = self.wrap(FIELD_SPAN, post_init)
        try:
            yield self
        finally:
            grids.Field.__post_init__ = post_init
            for module, key, value in reversed(restore):
                setattr(module, key, value)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("# " + json.dumps(header, sort_keys=True) + "\n")
            out.write("# units " + json.dumps(self.units, sort_keys=True) + "\n")
            out.write("unit\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name, start, end, parent, unit) in enumerate(self.spans):
                out.write(f"{unit}\t{index}\t{parent}\t{name}\t{start}\t{end}\n")


class Analysis:
    """Durations, self times and ancestors of a finished span list."""

    def __init__(self, spans: list[tuple]):
        self.name = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.unit = [s[4] for s in spans]
        self.dur = [(s[2] - s[1]) * 1e-9 for s in spans]
        self.self_time = list(self.dur)
        # parents are allocated before their children, so one forward pass
        # gives every span its nearest step ancestor
        self.step = [-1] * len(spans)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]
                self.step[i] = self.step[parent]
            if self.name[i] in STEP_SPANS:
                self.step[i] = i

    def select(self, name: str, units) -> list[int]:
        return [i for i, n in enumerate(self.name)
                if n == name and self.unit[i] in units]

    def total(self, name: str, units, self_time: bool = False) -> float:
        values = self.self_time if self_time else self.dur
        return sum(values[i] for i in self.select(name, units))

    def under_step(self, name: str, units) -> list[int]:
        return [i for i in self.select(name, units) if self.step[i] >= 0]


def import_profile(src: Path) -> dict:
    """``python -X importtime``: modules and time of ``import qhydro.cli``.

    Modules a bare interpreter imports at start-up are subtracted; the
    time is the sum of the remaining modules' self times.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)

    def profile(code: str) -> dict[str, int]:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=env, capture_output=True, text=True, check=True)
        selfs = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            selfs[name.strip()] = int(own)
        return selfs

    baseline = profile("pass")
    runs = []
    for _ in range(IMPORT_PROBES):
        found = profile("import qhydro.cli")
        runs.append({k: v for k, v in found.items() if k not in baseline})
    counts = {len(r) for r in runs}
    if len(counts) != 1:
        raise RuntimeError(f"import module count varies between probes: {counts}")
    return {
        "import.cli_s": statistics.median(sum(r.values()) for r in runs) * 1e-6,
        "import.scipy_s": statistics.median(
            sum(v for k, v in r.items() if k == "scipy" or k.startswith("scipy."))
            for r in runs) * 1e-6,
        "import.modules": counts.pop(),
    }


def _time_calls(fn, reps: int) -> float:
    """Median wall time of ``reps`` calls, in microseconds."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def grid_sweep(seed: int) -> dict:
    """Untraced per-call timings of the step, noise and observables layers.

    The sizes are the ROADMAP's plus N = 1024: the circulant FFT length is
    2N, and 601, 2001 and 8001 all carry a large prime factor, while 2048
    is a power of two.
    """
    metrics = {}
    mass = ref.HE4_MASS
    lam_c = ref.AUDIT_LAMBDA_C
    model = NoiseModel(theta=ref.AUDIT_THETA, lambda_c=lam_c, mass=mass,
                       mobility_mu=1e22)
    for n_points in SWEEP_SIZES:
        grid = grids.Grid(-1.5e-9, 1.5e-9, n_points)
        q = grid.points
        n = np.exp(-(q**2) / (2.0 * ref.SIGMA0**2))
        n /= np.trapezoid(n, dx=grid.spacing)
        state = dynamics.initial_state(grids.Field(grid, n, "1/m"))
        potential = grids.Field(grid, np.zeros(n_points), "J")
        dt = 0.98 * dynamics.cfl_limit(mass, grid.spacing)
        det = dynamics.IntegratorConfig(dt=dt)
        sto = dynamics.IntegratorConfig(dt=dt, scheme=dynamics.STOCHASTIC_QUANTUM)
        stream = RandomStream(seed)
        rng = stream.generator()
        reps = max(15, 120_000 // n_points)
        metrics[f"dynamics.step_us.n{n_points}"] = _time_calls(
            lambda: dynamics.step_deterministic(state, potential, mass, det), reps)
        metrics[f"dynamics.stoch_step_us.n{n_points}"] = _time_calls(
            lambda: dynamics.step_stochastic(state, potential, mass, model,
                                             stream, sto, rng), reps)
        metrics[f"noise.sample_us.n{n_points}"] = _time_calls(
            lambda: sample_fields(model, grid, stream, 1, rng), reps)
        metrics[f"dynamics.observables_us.n{n_points}"] = _time_calls(
            lambda: dynamics.observables(state, potential, mass, det), reps)
    return metrics


def _layer_metrics(tracer: Tracer, a: Analysis, cli_units: list[list[int]],
                   free_unit: int, free_workload, stoch_unit: int,
                   audit_unit: int) -> dict:
    m = {}

    def per_cycle(name: str, self_time: bool = False) -> float:
        return statistics.median(a.total(name, cycle, self_time)
                                 for cycle in cli_units)

    m["config.load_s"] = (per_cycle("config.load_config")
                          + per_cycle("config.apply_overrides"))
    m["cli.main_self_s"] = per_cycle("cli.main", self_time=True)
    m["cases.lindemann_s"] = per_cycle("cases.lindemann")
    m["cases.helium_state_check_s"] = per_cycle("cases.helium_state_check")
    m["potentials.square_well_solve_s"] = per_cycle("potentials.square_well_solve")
    all_cli = [u for cycle in cli_units for u in cycle]
    m["potentials.square_well_solve_calls"] = (
        len(a.select("potentials.square_well_solve", all_cli)) // len(cli_units))
    m["qpotential.quantum_force_from_log_s"] = per_cycle(
        "qpotential.quantum_force_from_log")
    m["qpotential.growth_exponent_s"] = per_cycle("qpotential.growth_exponent")
    m["scales.nonlocality_length_s"] = per_cycle("scales.nonlocality_length")

    free = [free_unit]
    steps = a.select("dynamics.step_deterministic", free)
    step_us = np.array([a.dur[i] for i in steps]) * 1e6
    run_s = a.total("dynamics.run", free)
    m["dynamics.steps"] = len(steps)
    m["dynamics.step_p50_us"] = float(np.percentile(step_us, 50))
    m["dynamics.step_p99_us"] = float(np.percentile(step_us, 99))
    m["dynamics.check_cfl_calls"] = len(a.select("dynamics.check_cfl", free))
    m["dynamics.observables_s"] = a.total("dynamics.observables", free)
    m["dynamics.cell_updates_per_s"] = (
        len(steps) * free_workload.grid.n_points / run_s)
    m["grids.derivative_calls_per_step"] = (
        len(a.under_step("grids.derivative", free)) / len(steps))
    m["grids.field_constructions_per_step"] = (
        len(a.under_step(FIELD_SPAN, free)) / len(steps))
    m["grids.derivative_self_s"] = a.total("grids.derivative", free,
                                           self_time=True)

    stoch = [stoch_unit]
    samples = a.select("noise.sample_fields", stoch)
    m["noise.sample_calls"] = len(samples)
    m["noise.sample_us"] = statistics.median(a.dur[i] for i in samples) * 1e6
    m["noise.step_share"] = (
        sum(a.dur[i] for i in a.under_step("noise.sample_fields", stoch))
        / a.total("dynamics.step_stochastic", stoch))
    m["output.write_csv_s"] = a.total("output.write_csv", stoch)
    m["output.write_summary_s"] = a.total("output.write_summary", stoch)

    batch = a.select("noise.sample_fields", [audit_unit])
    m["noise.fields_per_s"] = ref.AUDIT_SAMPLES / a.dur[batch[0]]
    m["noise.batch_alloc_peak_mb"] = tracer.memory_peaks[-1] / 2**20
    return m


def traced_run(name: str, seed: int, seconds: float, workdir: Path, src: Path,
               spans_path: Path, header: dict) -> tuple[dict, list]:
    """Every per-layer metric, plus the tracing overhead on workload ``name``.

    Returns (metrics, unit results).  The layer units are one traced unit of
    each workload (five in-process cycles for cli_cold); the overhead loop
    then alternates untraced and traced units of ``name`` for ``seconds``.
    """
    results = []
    metrics = import_profile(src)
    built = {w: workloads.build(w, seed, workdir, src) for w in workloads.NAMES}
    built["stochastic_run"].prepare()

    tracer = Tracer()
    cold = built["cli_cold"]
    cli_units = []
    with tracer.installed():
        for cycle in range(CLI_CYCLES):
            units = []
            for k in range(cold.group):
                i = cycle * cold.group + k
                tracer.begin_unit(f"cli_cold:{cold.command(i)}")
                units.append(tracer.unit)
                results.append(cold.in_process_unit(i))
            cli_units.append(units)
        tracer.begin_unit("free_packet:0")
        free_unit = tracer.unit
        results.append(built["free_packet"].unit(0))
        stoch = built["stochastic_run"]
        tracer.begin_unit("stochastic_run:0")
        stoch_unit = tracer.unit
        results.append(stoch.unit(0))
        bytes_written = sum(p.stat().st_size for p in stoch.paths(0))
        stoch.discard(0)
        tracer.begin_unit("noise_audit:0")
        audit_unit = tracer.unit
        results.append(built["noise_audit"].unit(0))
    tracer.write(spans_path, header)

    metrics.update(_layer_metrics(tracer, Analysis(tracer.spans), cli_units,
                                  free_unit, built["free_packet"], stoch_unit,
                                  audit_unit))
    metrics["output.bytes_written"] = bytes_written
    metrics.update(grid_sweep(seed))

    overhead, overhead_results = tracing_overhead(built[name], seconds)
    metrics["trace.overhead_frac"] = overhead
    return metrics, results + overhead_results


def tracing_overhead(workload, seconds: float) -> tuple[float, list]:
    """Median traced unit time over median untraced unit time, minus 1.

    Untraced and traced units alternate; for stochastic_run each pair
    shares a seed, so the pair check also proves that tracing leaves the
    output unchanged.  cli_cold is compared on in-process cycles.
    """
    cold = isinstance(workload, workloads.CliCold)

    def one(i: int) -> tuple[float, list]:
        if not cold:
            result = workload.unit(i)
            return result.seconds, [result]
        batch = [workload.in_process_unit(i * workload.group + k)
                 for k in range(workload.group)]
        return sum(r.seconds for r in batch), batch

    plain, traced, results = [], [], []
    start = time.perf_counter()
    i = 2 * CLI_CYCLES if cold else 2
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        wall, batch = one(i)
        plain.append(wall)
        results += batch
        with Tracer().installed():
            wall, batch = one(i + 1)
        traced.append(wall)
        results += batch
        i += 2
    return statistics.median(traced) / statistics.median(plain) - 1.0, results
