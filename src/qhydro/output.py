"""Result serialization: CSV time series and JSON summary records.

CSV: comma separated, header mandatory, LF endings, one row per snapshot,
columns time, norm, mean_q, variance, E_kin, E_pot, E_qu.  All numbers
use shortest round-trip representation.  JSON summaries carry the keys
{config, results, provenance}; the provenance block records the constants,
package, numpy and Python versions, the platform, seed and a config hash
so result tables stay auditable and comparable across machines.  The hash
is the first 16 hex digits of the SHA-256 of the record's own config block
with both [output] paths set to null, as canonical JSON (sorted keys, ","
and ":" separators), so a reader can recompute it from the record alone.
Files are written whole at the end of a run: a failed run leaves no
partial summary behind, and a path that cannot be written is a
ValidationError naming it, as an unreadable config is.
"""

from __future__ import annotations

from dataclasses import asdict, replace
import os
import platform
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .constants import ATOMIC_MASS_UNIT, BOHR, HBAR, K_B
from .config import ExperimentConfig, OutputSection
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


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the config without its output paths, so the same run written
    to two paths hashes the same (the record's config block keeps them)."""
    import hashlib
    import json

    unplaced = asdict(replace(cfg, output=OutputSection()))
    text = json.dumps(unplaced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def provenance_block(cfg: ExperimentConfig) -> dict:
    return {
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
        "seed": cfg.experiment.seed,
        "config_sha256_16": config_hash(cfg),
    }


def summary_record(cfg: ExperimentConfig, results: dict) -> dict:
    return {
        "config": asdict(cfg),
        "results": results,
        "provenance": provenance_block(cfg),
    }


def write_summary(record: dict, path: str) -> None:
    import json

    _write_text(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc
