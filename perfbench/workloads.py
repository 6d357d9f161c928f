"""The four benchmark workloads: inputs made from a seed, one unit of work,
and the check of that unit's output against an independent reference.

A workload is driven by one client in a closed loop: the next unit starts
only after the previous one has finished.  Each ``unit(i)`` call runs unit
``i``, times only the work the user waits for, and then checks the output.

    cli_cold        cold ``python -m qhydro.cli`` subprocesses over the
                    README's scalar commands (import dominates)
    free_packet     criterion-4 free Gaussian to width doubling through
                    ``dynamics.run`` (time to a fixed accuracy)
    stochastic_run  in-process ``cli.main(["simulate", ...])`` with the
                    stochastic scheme at a noise level that moves the result
    noise_audit     in-process ``cli.main(["noise-audit", ...])``: one batch
                    of 10,000 noise fields
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
import io
import json
import math
import os
from pathlib import Path
import random
import resource
import subprocess
import sys
import time

import numpy as np

from qhydro import cli, dynamics
from qhydro.grids import Field, Grid

import references as ref

@dataclass(frozen=True)
class UnitResult:
    seconds: float               # wall time of the work the user waits for
    error: float                 # deviation from the reference, workload-specific
    failure: str | None = None   # why the unit failed; None when it passed

    @property
    def ok(self) -> bool:
        return self.failure is None


def _failed(seconds: float, why: str) -> UnitResult:
    return UnitResult(seconds, math.inf, why)


def run_cli_in_process(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- cli_cold

class CliCold:
    """Cold CLI calls cycling through the README's scalar commands.

    The seed fixes the order of the commands inside each cycle.  Units are
    grouped in whole cycles so every run weighs each command equally.
    """

    name = "cli_cold"
    group = len(ref.SCALAR_COMMANDS)

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
        self.order: list[str] = []
        self.child_peak_kb = 0

    def command(self, i: int) -> str:
        while len(self.order) <= i:
            cycle = list(ref.SCALAR_COMMANDS)
            self.rng.shuffle(cycle)
            self.order.extend(cycle)
        return self.order[i]

    def unit(self, i: int) -> UnitResult:
        key = self.command(i)
        argv = [sys.executable, "-m", "qhydro.cli", *ref.SCALAR_COMMANDS[key]]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        with proc.stdout:
            text = proc.stdout.read().decode()
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return check_scalar(key, proc.returncode, text, seconds)

    def in_process_unit(self, i: int) -> UnitResult:
        """The same command through ``cli.main`` in this process (traced runs)."""
        key = self.command(i)
        t0 = time.perf_counter()
        code, text = run_cli_in_process(list(ref.SCALAR_COMMANDS[key]))
        return check_scalar(key, code, text, time.perf_counter() - t0)

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024.0


def check_scalar(key: str, code: int, text: str, seconds: float) -> UnitResult:
    """Compare one scalar command's printed line with its references."""
    if code != 0:
        return _failed(seconds, f"{key}: exit code {code}: {text.strip()!r}")
    match = ref.SCALAR_PATTERNS[key].search(text)
    if match is None:
        return _failed(seconds, f"{key}: unexpected output {text.strip()!r}")
    worst = 0.0
    for field, expected in ref.SCALAR_REFERENCES[key].items():
        got = match.group(field)
        if isinstance(expected, str):
            if got != expected:
                return _failed(seconds, f"{key}: {field} = {got!r}, "
                                        f"expected {expected!r}")
            continue
        value, tolerance = expected
        dev = abs(float(got) - value) / abs(value)
        worst = max(worst, dev)
        if not dev <= tolerance:
            return _failed(seconds, f"{key}: {field} = {got}, reference "
                                    f"{value} (relative deviation {dev:.2e} "
                                    f"> {tolerance:.0e})")
    return UnitResult(seconds, worst)


# ------------------------------------------------------------- free_packet

class FreePacket:
    """Criterion 4: a free He-4 Gaussian spread until its width doubles.

    The seed shifts the packet centre by a whole number of grid cells, so
    every unit is the same accuracy target on a different input.
    """

    name = "free_packet"
    group = 1
    pool = 8
    max_shift_cells = 10
    output_stride = 100

    def __init__(self, seed: int, workdir: Path, src: Path):
        rng = random.Random(seed)
        mass = ref.HE4_MASS
        self.grid = Grid(-1.5e-9, 1.5e-9, 601)
        self.tau = 2.0 * mass * ref.SIGMA0**2 / ref.HBAR
        self.t_end = math.sqrt(3.0) * self.tau
        dt = 0.98 * dynamics.cfl_limit(mass, self.grid.spacing)
        self.steps = int(round(self.t_end / dt))
        self.cfg = dynamics.IntegratorConfig(
            dt=dt, scheme=dynamics.DETERMINISTIC_QUANTUM)
        self.potential = Field(self.grid, np.zeros(self.grid.n_points), "J")
        q = self.grid.points
        self.states = []
        for _ in range(self.pool):
            shift = rng.randint(-self.max_shift_cells, self.max_shift_cells)
            center = shift * self.grid.spacing
            n = np.exp(-((q - center) ** 2) / (2.0 * ref.SIGMA0**2))
            n /= np.trapezoid(n, dx=self.grid.spacing)
            self.states.append(dynamics.initial_state(Field(self.grid, n, "1/m")))

    def unit(self, i: int) -> UnitResult:
        t0 = time.perf_counter()
        traj = dynamics.run(self.states[i % self.pool], self.potential,
                            ref.HE4_MASS, None, self.cfg, self.t_end,
                            self.output_stride)
        seconds = time.perf_counter() - t0
        return self.check(traj, seconds)

    def check(self, traj, seconds: float) -> UnitResult:
        if not traj.completed:
            return _failed(seconds, f"free_packet: run aborted: {traj.failure}")
        last = traj.snapshots[-1]
        if abs(last.time - self.steps * self.cfg.dt) > 1e-9 * self.t_end:
            return _failed(seconds, f"free_packet: stopped at t = {last.time:.6e} s")
        worst = ref.width_law_error(traj.snapshots, self.tau)
        if not worst <= ref.WIDTH_LAW_TOLERANCE:
            return _failed(seconds, f"free_packet: width law off by {worst:.3e}")
        drift = abs(last.norm - traj.snapshots[0].norm)
        if not drift <= ref.NORM_TOLERANCE:
            return _failed(seconds, f"free_packet: norm drifted by {drift:.3e}")
        return UnitResult(seconds, worst)

    peak_rss_mb = staticmethod(self_peak_rss_mb)


# ---------------------------------------------------------- stochastic_run

class StochasticRun:
    """``qhydro simulate`` with the stochastic scheme at mu = 1e22.

    Units come in same-seed pairs: the second unit of a pair must write a
    CSV byte-identical to the first.  The seed draws one noise seed per pair.
    """

    name = "stochastic_run"
    group = 2

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.pair_seeds: list[int] = []
        self.noiseless_variance: float | None = None

    def noise_seed(self, i: int) -> int:
        while len(self.pair_seeds) <= i // 2:
            self.pair_seeds.append(self.rng.randrange(1, 2**31))
        return self.pair_seeds[i // 2]

    def paths(self, i: int) -> tuple[Path, Path]:
        return (self.workdir / f"stochastic-{i}.csv",
                self.workdir / f"stochastic-{i}.json")

    def argv(self, i: int) -> list[str]:
        csv_path, json_path = self.paths(i)
        return [*ref.STOCHASTIC_ARGS, "--seed", str(self.noise_seed(i)),
                "--csv", str(csv_path), "--json", str(json_path)]

    def prepare(self) -> None:
        """The noiseless variance the noisy runs must differ from (untimed)."""
        json_path = self.workdir / "noiseless.json"
        argv = [*ref.STOCHASTIC_ARGS,
                "--set", "integrator.scheme=deterministic_quantum",
                "--json", str(json_path)]
        code, text = run_cli_in_process(argv)
        if code != 0:
            raise RuntimeError(f"noiseless reference run failed: {text.strip()}")
        record = json.loads(json_path.read_text())
        json_path.unlink()
        self.noiseless_variance = record["results"]["final_variance_m2"]

    def unit(self, i: int) -> UnitResult:
        if self.noiseless_variance is None:
            self.prepare()
        argv = self.argv(i)
        t0 = time.perf_counter()
        code, text = run_cli_in_process(argv)
        seconds = time.perf_counter() - t0
        result = self.check(i, code, text, seconds)
        if i % 2 == 1 or not result.ok:
            self.discard(i - 1 if i % 2 == 1 else i)
            self.discard(i)
        return result

    def discard(self, i: int) -> None:
        for path in self.paths(i):
            path.unlink(missing_ok=True)

    def check(self, i: int, code: int, text: str, seconds: float) -> UnitResult:
        if code != 0:
            return _failed(seconds, f"stochastic_run: exit code {code}: "
                                    f"{text.strip()!r}")
        csv_path, json_path = self.paths(i)
        try:
            record = json.loads(json_path.read_text())
            csv_bytes = csv_path.read_bytes()
        except (OSError, ValueError) as exc:
            return _failed(seconds, f"stochastic_run: unreadable output: {exc}")
        why = ref.check_stochastic(record, csv_bytes, self.noiseless_variance,
                                   self.noise_seed(i))
        if why is not None:
            return _failed(seconds, f"stochastic_run: {why}")
        if i % 2 == 1:
            first = self.paths(i - 1)[0]
            if not first.exists() or first.read_bytes() != csv_bytes:
                return _failed(seconds, "stochastic_run: same-seed repeat "
                                        "wrote a different CSV")
        return UnitResult(seconds, abs(record["results"]["final_norm"] - 1.0))

    peak_rss_mb = staticmethod(self_peak_rss_mb)


# ------------------------------------------------------------- noise_audit

class NoiseAudit:
    """``qhydro noise-audit`` at its defaults: 10,000 fields at N = 801.

    The seed draws the audit seed of every unit.  The check turns each
    covariance error into a z-score against the exact sampling standard
    error of the estimator (see ``references.covariance_standard_error``).
    """

    name = "noise_audit"
    group = 1

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.seeds: list[int] = []

    def audit_seed(self, i: int) -> int:
        while len(self.seeds) <= i:
            self.seeds.append(self.rng.randrange(1, 2**31))
        return self.seeds[i]

    def unit(self, i: int) -> UnitResult:
        json_path = self.workdir / f"audit-{i}.json"
        argv = [*ref.AUDIT_ARGS, "--seed", str(self.audit_seed(i)),
                "--json", str(json_path)]
        t0 = time.perf_counter()
        code, text = run_cli_in_process(argv)
        seconds = time.perf_counter() - t0
        if code != 0:
            return _failed(seconds, f"noise_audit: exit code {code}: "
                                    f"{text.strip()!r}")
        try:
            record = json.loads(json_path.read_text())
        except (OSError, ValueError) as exc:
            return _failed(seconds, f"noise_audit: unreadable output: {exc}")
        finally:
            json_path.unlink(missing_ok=True)
        worst_z, why = ref.check_audit(record)
        if why is not None:
            return _failed(seconds, f"noise_audit: {why}")
        return UnitResult(seconds, worst_z)

    peak_rss_mb = staticmethod(self_peak_rss_mb)


WORKLOADS = {cls.name: cls for cls in (CliCold, FreePacket, StochasticRun,
                                         NoiseAudit)}
NAMES = tuple(WORKLOADS)


def build(name: str, seed: int, workdir: Path, src: Path):
    """Build a workload's inputs; everything a unit needs except its own work."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, src)
