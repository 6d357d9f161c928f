#!/usr/bin/env python3
"""Write tests/golden.json, the table of results a change must keep.

Each row is one result that defines "the same results": the README
scalar commands, the square-well abort, the seeded simulate CSVs (the
criterion-8 run and the mu = 1e22 run, conserving and not), the
classical-limit and periodic-boundary simulate CSVs, the seeded
noise audit and a small matrix of ``sample_fields`` hashes on each side
of a chunk boundary.  Rows that draw noise are marked stochastic.  The
table records the numpy version and the machine that wrote it, because
FFT bits can differ between numpy builds; tests/test_golden.py says how
each row is compared.

A change that means to change results rewrites the table with this
script and lists every row it reports as changed, old -> new.  Run it
from the repository root:

    PYTHONPATH=src python scripts/golden.py
"""

from contextlib import redirect_stderr, redirect_stdout
import hashlib
import io
import json
import os
from pathlib import Path
import platform
import tempfile

import numpy as np

from qhydro.cli import main
from qhydro.grids import Grid
from qhydro.noise import CHUNK_ROWS, NoiseModel, RandomStream, sample_fields
from qhydro.params import helium_preset
from qhydro.scales import correlation_length

TABLE = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

STOCHASTIC = ["simulate", "--set", "integrator.scheme=stochastic_quantum",
              "--set", "noise.theta=2.17 K"]
MU_1E22 = [*STOCHASTIC, "--set", "noise.mobility_mu=1e22", "--seed", "7"]
# counts on each side of a chunk boundary: the current one, and 32 rows,
# the boundary the table was first written at, whose hashes are kept
# because the chunking must not move a row's bits
FIELD_COUNTS = (31, 32, 33, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1)
FIELD_THETA = 2.17               # K
FIELD_MASS = helium_preset().mass

# name -> (kind, spec, stochastic).  "text" keeps stdout, stderr and the
# exit code; "csv" and "audit" add the CSV's sha256 or the JSON results;
# "fields" is (n_points, conserving, seed), one hash per FIELD_COUNTS.
ROWS = {
    "lambda-c": ("text", ["lambda-c", "--theta", "2.17 K"], False),
    "lambda-q": ("text", ["lambda-q", "--set", "experiment.family=power_f",
                          "--set", "experiment.family_g=1.4",
                          "--set", "grid.q_max=3e6 m",
                          "--set", "grid.n_points=120001",
                          "--set", "noise.lambda_c=2.0 m"], False),
    "classify": ("text", ["classify", "--theta", "2.17 K", "--delta-L", "2e-11",
                          "--lambda-q", "inf"], False),
    "case-lindemann": ("text", ["case", "lindemann"], False),
    "case-helium": ("text", ["case", "helium"], False),
    "square-well-abort": ("text", ["simulate",
                                   "--set", "experiment.potential=square_well",
                                   "--set", "experiment.initial=ground"],
                          False),
    "criterion-8-csv": ("csv", [*STOCHASTIC, "--set", "grid.n_points=201",
                                "--set", "integrator.t_end=2e-15",
                                "--set", "noise.mobility_mu=1e22",
                                "--seed", "2024"], True),
    "mu-1e22-conserving-csv": ("csv", MU_1E22, True),
    "mu-1e22-nonconserving-csv": ("csv", [*MU_1E22,
                                          "--set", "noise.conserving=false"],
                                  True),
    "classical-harmonic-csv": ("csv", [
        "simulate", "--set", "integrator.scheme=classical_limit",
        "--set", "experiment.potential=harmonic",
        "--set", "experiment.initial=ground"], False),
    "periodic-boost-csv": ("csv", ["simulate",
                                   "--set", "grid.periodic=true",
                                   "--set", "experiment.initial_velocity=50"],
                           False),
    "audit-seed-11": ("audit", ["noise-audit", "--theta", "2.17 K",
                                "--set", "noise.conserving=false",
                                "--seed", "11"], True),
}
ROWS.update({
    f"fields-n{n}-{'conserving' if conserving else 'raw'}-seed{seed}":
        ("fields", (n, conserving, seed), True)
    for n in (64, 801) for conserving in (False, True) for seed in (3, 11)})


def environment() -> dict:
    """What the bits of an FFT-filtered row depend on, besides the code."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def measure(name: str) -> dict:
    """The current value of one row."""
    kind, spec, _ = ROWS[name]
    if kind == "text":
        return _cli(spec)
    if kind == "fields":
        n_points, conserving, seed = spec
        model = NoiseModel(theta=FIELD_THETA, mass=FIELD_MASS,
                           lambda_c=correlation_length(FIELD_MASS, FIELD_THETA),
                           conserving=conserving)
        grid = Grid(-2e-9, 2e-9, n_points)
        return {str(count): _sha256(sample_fields(
                    model, grid, RandomStream(seed), count).tobytes())
                for count in FIELD_COUNTS}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        row = _cli([*spec, "--csv" if kind == "csv" else "--json", path])
        data = Path(path).read_bytes()
    if kind == "csv":
        row["sha256"] = _sha256(data)
    else:
        row["results"] = json.loads(data)["results"]
    return row


def write_table() -> None:
    rows = {name: measure(name) for name in ROWS}
    if TABLE.exists():
        old = json.loads(TABLE.read_text())
        for name, row in rows.items():
            if old["rows"].get(name) != row:
                print(f"changed: {name}: {old['rows'].get(name)} -> {row}")
    TABLE.write_text(json.dumps({"environment": environment(), "rows": rows},
                                indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {TABLE}")


if __name__ == "__main__":
    write_table()
