"""Result serialization: CSV time series and JSON summary records.

CSV: comma separated, header mandatory, LF endings, one row per snapshot,
columns time, norm, mean_q, variance, E_kin, E_pot, E_qu.  All numbers
use shortest round-trip representation.  JSON summaries carry the keys
{config, results, provenance}.  The config block is the command and the
config keys it reads, {section: {key: value}}, so it re-runs as that
command with one --set per key; the provenance block records the
constants, package, numpy and Python versions, the platform, the seed of
a command that reads one, and a config hash.  The hash is the first 16
hex digits of the SHA-256 of the record's own config block with its
[output] paths set to null, as canonical JSON (sorted keys, "," and ":"
separators).  A record is strict JSON: a non-finite number is written as
its text ("inf", "-inf"), which float() and the converters read back.
Files are written whole at the end of a run: a failed run leaves no
partial summary behind, and a path that cannot be written is a
ValidationError naming it, as an unreadable config is.
"""

from __future__ import annotations

import math
import os
import platform
from typing import TYPE_CHECKING

import numpy as np

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
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
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
