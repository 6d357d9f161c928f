"""Result serialization: CSV time series and JSON summary records.

CSV: comma separated, header mandatory, LF endings, one row per snapshot,
columns time, norm, mean_q, variance, E_kin, E_pot, E_qu.  All numbers
use shortest round-trip representation, so a run with the same config
and seed writes the same bytes.  JSON summaries carry the keys
{config, results, provenance}.  The config block is the command and the
config keys it reads, {section: {key: value}}, so it re-runs as that
command with one --set per key; the provenance block records the
constants, package, numpy and Python versions, the platform, the seed
of a command that reads one, and a config hash.  numpy's version is that
of the module the command ran on, recorded for the commands that read
[grid] keys, which sample the grid on numpy, and null for the others
(lambda-c, classify, case), whose results do not depend on it.  The
platform is os.uname()'s system, release and machine where it exists
(sys.platform elsewhere): the ``platform`` module would cost a cold
record its import and a read of the interpreter binary for the libc
version.
The hash is the first 16 hex digits of the SHA-256 of the record's own
config block with its [output] paths set to null, as canonical JSON
(sorted keys, "," and ":" separators).  A record is strict JSON: a
non-finite number is written as its text ("inf", "-inf"), which float()
and the converters read back, an unbounded length among them.
Files are written whole at the end of a run: a failed run leaves no
partial summary behind, and a path that cannot be written is a
ValidationError naming it, as an unreadable config is.
"""

from __future__ import annotations

import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .constants import ATOMIC_MASS_UNIT, BOHR, HBAR, K_B
from .config import ExperimentConfig
from .errors import ValidationError

if TYPE_CHECKING:
    from .dynamics import Trajectory

CSV_COLUMNS = ("time", "norm", "mean_q", "variance", "E_kin", "E_pot", "E_qu")


def _fmt(x: float) -> str:
    return repr(float(x))


def trajectory_csv(trajectory: Trajectory) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for snap in trajectory.snapshots:
        lines.append(",".join(_fmt(v) for v in (
            snap.time, snap.norm, snap.mean_q, snap.variance,
            snap.e_kin, snap.e_pot, snap.e_qu)))
    return "\n".join(lines) + "\n"


def write_csv(trajectory: Trajectory, path: str) -> None:
    _write_text(path, trajectory_csv(trajectory))


def _strict(value):
    """``value`` with each non-finite float replaced by its text."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else str(float(value))


def config_hash(config: dict) -> str:
    """Hash of a config block without its output paths, so the same run
    written to two paths hashes the same (the block keeps them)."""
    import hashlib
    import json

    unplaced = {**config, "output": dict.fromkeys(config["output"])}
    text = json.dumps(unplaced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summary_record(cfg: ExperimentConfig, command: str, keys,
                   results: dict) -> dict:
    """The summary of ``command``, whose config block holds ``keys``."""
    config = {"command": command}
    for section, _, key in (dotted.partition(".") for dotted in keys):
        config.setdefault(section, {})[key] = getattr(getattr(cfg, section), key)
    config = _strict(config)
    provenance = {
        "package": "qhydro",
        "version": __version__,
        "numpy": (sys.modules["numpy"].__version__
                  if any(key.startswith("grid.") for key in keys) else None),
        # the version token of sys.version, as platform.python_version()
        "python": sys.version.split()[0],
        "platform": ("{0.sysname}-{0.release}-{0.machine}".format(os.uname())
                     if hasattr(os, "uname") else sys.platform),
        "constants": {
            "hbar_Js": HBAR,
            "k_B_J_per_K": K_B,
            "bohr_m": BOHR,
            "atomic_mass_unit_kg": ATOMIC_MASS_UNIT,
        },
        "config_sha256_16": config_hash(config),
    }
    if "experiment.seed" in keys:
        provenance["seed"] = cfg.experiment.seed
    return {"config": config, "results": _strict(results),
            "provenance": provenance}


def write_summary(record: dict, path: str) -> None:
    import json

    _write_text(path, json.dumps(record, indent=2, sort_keys=True,
                                 allow_nan=False) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc
