#!/usr/bin/env python3
"""qhydro benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` one workload runs in a closed loop (one
client) for S seconds and the end-to-end metrics of BENCHMARK.json are
reported:

    wall_cal_p50_s  median unit wall time, each unit scaled to the
                    calibration kernel timed around it (see CAL_REFERENCE_S)
    setup_s         median over fresh interpreters of ``import qhydro.cli``
                    plus building the workload's inputs, scaled the same way
    peak_rss_mb     peak resident memory of the workload process (of the
                    CLI child processes for cli_cold)

The human-readable line before the result also gives the raw median wall
time, result_err (each unit's deviation from its reference) and
failed_frac.  With ``--trace 1`` the traced run reports every per-layer
metric; perfbench/layers.json says what each one measures and which
end-to-end metric and workload it should move.  Provenance comes first;
the last line of stdout is one JSON object {correct, attempted, failed,
metrics}.  Scratch files and the span trace go to .perfbench_work/ in the
checkout.
"""

import os

# pin BLAS/OpenMP pools before numpy loads; child processes inherit them
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
from importlib import metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5                 # fresh interpreters timed per run (median)
MAX_FAILURES_SHOWN = 10

# A shared host runs the same unit up to ~1.45x slower while a neighbour
# loads the machine, and switches between the two speeds every few seconds.
# A fixed kernel, independent of qhydro, is timed before and after every
# unit and set-up probe; wall_cal_p50_s and setup_s scale each by
# CAL_REFERENCE_S over the kernel's mean time around it, so runs compare
# the program, not the neighbour.
CAL_REFERENCE_S = 0.010          # the kernel's time on the unloaded host


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or why there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = git / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qhydro").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV},
        "thread_env_inherited_by_children": True,
    }


def setup_seconds(name: str, seed: int, workdir: Path) -> tuple[list, list]:
    """``import qhydro.cli`` plus input building, in fresh interpreters.

    One untimed probe first, so every timed probe finds compiled bytecode.
    Returns the probe times as measured and scaled to the calibration kernel.
    """
    times, calibrated = [], []
    before = calibration_seconds()
    for k in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed),
             str(workdir / f"probe-{k}"), str(SRC)],
            capture_output=True, text=True, check=True)
        after = calibration_seconds()
        if k:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
            calibrated.append(times[-1] * CAL_REFERENCE_S
                              / (0.5 * (before + after)))
        before = after
    return times, calibrated


def calibration_seconds() -> float:
    """Wall time of a fixed mix of interpreter, allocation and small-array work."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    table = {str(i): i for i in range(15_000)}
    base = np.linspace(0.0, 1.0, 801)
    x = base
    for _ in range(900):
        x = np.sqrt(x * x + 1.0) - 1.0 + base
    del table, x
    return time.perf_counter() - start


def closed_loop(workload, seconds: float) -> tuple[list, list[float]]:
    """Units back to back until ``seconds`` have passed, ending on a whole group.

    Returns the unit results and each unit's wall time scaled to the
    calibration kernel timed before and after it.
    """
    results, calibrated = [], []
    before = calibration_seconds()
    start = time.perf_counter()
    while True:
        result = workload.unit(len(results))
        after = calibration_seconds()
        results.append(result)
        calibrated.append(result.seconds * CAL_REFERENCE_S
                          / (0.5 * (before + after)))
        before = after
        if (len(results) % workload.group == 0
                and time.perf_counter() - start >= seconds):
            return results, calibrated


def spec_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = spec_metrics(bool(args.trace))

    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            import tracing
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
            values, results = tracing.traced_run(
                args.workload, args.seed, args.seconds, workdir, SRC, spans, prov)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            setups, setups_cal = setup_seconds(args.workload, args.seed, workdir)
            workload = workloads.build(args.workload, args.seed, workdir, SRC)
            results, calibrated = closed_loop(workload, args.seconds)
            wall_p50 = statistics.median(r.seconds for r in results)
            values = {
                "setup_s": statistics.median(setups_cal),
                "wall_cal_p50_s": statistics.median(calibrated),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r.failure for r in results if not r.ok]
    for why in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {why}")
    if not args.trace:
        errors = [r.error for r in results]
        print(f"{args.workload}: {len(results)} units; "
              f"wall_p50_s {wall_p50:.6f} s and wall_cal_p50_s "
              f"{values['wall_cal_p50_s']:.6f} s over {len(results)} units; "
              f"setup {statistics.median(setups):.6f} s and setup_s "
              f"{values['setup_s']:.6f} s (median of {len(setups)} fresh "
              f"interpreters, calibrated); peak_rss_mb {values['peak_rss_mb']:.1f} MB; "
              f"result_err {max(errors):.6g} (worst unit); "
              f"failed_frac {len(failures) / len(results):.4f} "
              f"({len(failures)}/{len(results)})")
    else:
        for key in sorted(values):
            print(f"  {key} = {values[key]!r} {units.get(key, '?')}")

    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "qhydro" / "__init__.py").is_file():
        print(f"error: no qhydro sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
