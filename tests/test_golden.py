"""Every row of the golden results table, tests/golden.json.

scripts/golden.py writes the table and defines its rows.  Where the numpy
version and machine are those that wrote the table, each row must match
it byte for byte.  Elsewhere FFT bits may differ between numpy builds:
a deterministic row (no noise) must then keep its exit code and its text
but for the numbers, and each number may move by at most one unit in the
last digit printed in the table; a stochastic row is skipped, because a
one-ulp difference in one noise draw grows over a run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden",
                                               ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TABLE = json.loads((ROOT / "tests" / "golden.json").read_text())
SAME_ENVIRONMENT = golden.on_table_environment()


def test_table_has_every_row():
    assert list(TABLE["rows"]) == list(golden.ROWS)


@pytest.mark.parametrize("name", list(golden.ROWS))
def test_golden_row(name):
    expected = TABLE["rows"][name]
    stochastic = golden.ROWS[name][2]
    if not SAME_ENVIRONMENT and stochastic:
        pytest.skip(f"noisy row written on {TABLE['environment']}, "
                    f"running on {golden.environment()}")
    actual = golden.measure(name)
    if SAME_ENVIRONMENT:
        assert actual == expected
    else:
        assert actual["exit"] == expected["exit"]
        for stream in ("stdout", "stderr"):
            assert golden.text_matches_to_printed_digit(expected[stream],
                                                        actual[stream])
