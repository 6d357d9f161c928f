"""Self-tests of the benchmark: its checks catch wrong output, its inputs
follow the seed, and the metric names it prints are those of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import references as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


# ------------------------------------------------------------ output checks

@pytest.mark.parametrize("key", sorted(ref.SCALAR_COMMANDS))
def test_scalar_check_rejects_perturbed_reference_and_output(key, monkeypatch):
    code, text = workloads.run_cli_in_process(list(ref.SCALAR_COMMANDS[key]))
    assert workloads.check_scalar(key, code, text, 0.0).ok

    field, expected = next(iter(ref.SCALAR_REFERENCES[key].items()))
    if isinstance(expected, str):
        perturbed = expected + "_x"
        corrupted = text.replace(expected, "local_stochastic")
    else:
        value, tolerance = expected
        perturbed = (value * (1.0 + 3.0 * tolerance), tolerance)
        printed = ref.SCALAR_PATTERNS[key].search(text).group(field)
        corrupted = text.replace(printed, repr(float(printed) * 1.01), 1)
    assert not workloads.check_scalar(key, code, corrupted, 0.0).ok
    assert not workloads.check_scalar(key, 1, text, 0.0).ok
    monkeypatch.setitem(ref.SCALAR_REFERENCES[key], field, perturbed)
    assert not workloads.check_scalar(key, code, text, 0.0).ok


def test_free_packet_check_rejects_a_tighter_width_law(workdir, monkeypatch):
    packet = workloads.build("free_packet", 3, workdir, ROOT / "src")
    result = packet.unit(0)
    assert result.ok and result.error < ref.WIDTH_LAW_TOLERANCE
    monkeypatch.setattr(ref, "WIDTH_LAW_TOLERANCE", result.error / 2.0)
    assert not packet.unit(0).ok


def test_stochastic_checks_and_same_seed_bytes(workdir):
    run = workloads.build("stochastic_run", 5, workdir, ROOT / "src")
    first = run.unit(0)
    assert first.ok, first.failure
    csv_path, json_path = run.paths(0)
    record = json.loads(json_path.read_text())
    csv_bytes = csv_path.read_bytes()
    seed = run.noise_seed(0)
    noiseless = run.noiseless_variance
    assert ref.check_stochastic(record, csv_bytes, noiseless, seed) is None

    variance = record["results"]["final_variance_m2"]
    assert ref.check_stochastic(record, csv_bytes, variance, seed) is not None
    assert ref.check_stochastic(record, csv_bytes, noiseless, seed + 1) is not None
    assert ref.check_stochastic(record, csv_bytes[:-40], noiseless, seed) is not None
    bad = json.loads(json.dumps(record))
    bad["results"]["final_norm"] = 1.0 + 1e-6
    assert ref.check_stochastic(bad, csv_bytes, noiseless, seed) is not None

    # the second unit of a pair reuses the seed and must match byte for byte
    assert run.noise_seed(1) == seed
    assert run.unit(1).ok
    assert run.unit(2).ok
    first_csv = run.paths(2)[0]
    first_csv.write_bytes(first_csv.read_bytes().replace(b"\n1", b"\n2", 1))
    assert not run.unit(3).ok


def test_audit_check_uses_standard_errors(workdir):
    audit = workloads.build("noise_audit", 7, workdir, ROOT / "src")
    result = audit.unit(0)
    assert result.ok, result.failure
    assert 0.0 < result.error < ref.AUDIT_Z_LIMIT

    json_path = workdir / "audit.json"
    code, _ = workloads.run_cli_in_process(
        [*ref.AUDIT_ARGS, "--seed", "11", "--json", str(json_path)])
    assert code == 0
    record = json.loads(json_path.read_text())
    assert ref.check_audit(record)[1] is None

    grid = record["config"]["grid"]
    h = (grid["q_max"] - grid["q_min"]) / (grid["n_points"] - 1)
    row = record["results"]["covariance"][2]
    se = ref.covariance_standard_error(
        record["results"]["amplitude"], record["results"]["lambda_c_m"], h,
        grid["n_points"], int(round(row["lag_m"] / h)), ref.AUDIT_SAMPLES)
    bad = json.loads(json.dumps(record))
    bad["results"]["covariance"][2]["empirical"] = row["target"] + 6.0 * se
    assert ref.check_audit(bad)[1] is not None
    bad = json.loads(json.dumps(record))
    bad["results"]["covariance"][2]["target"] *= 1.01
    assert ref.check_audit(bad)[1] is not None
    bad = json.loads(json.dumps(record))
    bad["results"]["amplitude"] *= 1.0 + 1e-6
    assert ref.check_audit(bad)[1] is not None


# ------------------------------------------------------------ seeds

def test_seed_changes_inputs_and_same_seed_repeats(workdir):
    src = ROOT / "src"

    def stochastic_argv(seed):
        return workloads.build("stochastic_run", seed, workdir, src).argv(0)

    assert stochastic_argv(1) == stochastic_argv(1)
    assert stochastic_argv(1) != stochastic_argv(2)

    def audit_seeds(seed):
        audit = workloads.build("noise_audit", seed, workdir, src)
        return [audit.audit_seed(i) for i in range(4)]

    assert audit_seeds(1) == audit_seeds(1) != audit_seeds(2)

    def orders(seed):
        cold = workloads.build("cli_cold", seed, workdir, src)
        return [cold.command(i) for i in range(15)]

    assert orders(1) == orders(1) != orders(2)

    def centers(seed):
        packet = workloads.build("free_packet", seed, workdir, src)
        return [float(s.density.values.argmax()) for s in packet.states]

    assert centers(1) == centers(1) != centers(2)


# ------------------------------------------------------------ metric names

def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(layers["metrics"]) == names
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert workload_names == set(workloads.NAMES)
    for entry in layers["metrics"].values():
        for move in entry["moves"]:
            assert move["metric"] in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace, section, workload",
                         [(0, "end_to_end", "free_packet"),
                          (1, "per_layer", "free_packet")])
def test_printed_metric_names_equal_benchmark_json(trace, section, workload):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("provenance ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert metric["value"] > 0 or trace


def test_fails_without_the_program(workdir):
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = _bench("--workload", "cli_cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
