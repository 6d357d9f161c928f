from dataclasses import asdict, fields
import math
from pathlib import Path
import re

import pytest

from qhydro.config import (
    _CONVERTERS,
    _KEY_CONVERTERS,
    SCHEMES,
    ExperimentConfig,
    IntegratorConfig,
    apply_overrides,
    parse_config,
)
from qhydro.constants import UNIT_FACTORS, parse_quantity
from qhydro.errors import ValidationError
from qhydro.grids import Grid
from qhydro.cli import COMMAND_KEYS
from qhydro.output import config_hash, summary_record
from qhydro.potentials import helium_preset, square_well_solve


def test_parse_quantity_units():
    assert parse_quantity("4.0026 u") == pytest.approx(6.6465e-27, rel=1e-4)
    assert parse_quantity("7.9 Bohr") == pytest.approx(4.1805e-10, rel=1e-4)
    assert parse_quantity("10.9 kB") == pytest.approx(1.5049e-22, rel=1e-4)
    assert parse_quantity("2.17K") == pytest.approx(2.17)
    assert parse_quantity("1e-22") == pytest.approx(1e-22)
    assert parse_quantity("1.5 eV") == pytest.approx(2.403e-19, rel=1e-3)


def test_readme_unit_suffixes_are_unit_factors():
    # the README's sentence lists every suffix, each in backticks; the
    # empty suffix is a bare number
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("accept unit suffixes:", 1)[1].split(". ", 1)[0]
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(UNIT_FACTORS) - {""}


def test_parse_quantity_rejects_unknown_unit():
    with pytest.raises(ValueError, match="unknown unit"):
        parse_quantity("3.0 furlongs")


@pytest.mark.parametrize("text", ["abc", "K", "kB", "", "  "])
def test_parse_quantity_rejects_missing_number(text):
    with pytest.raises(ValueError, match=re.escape(
            f"malformed number in {text!r}")):
        parse_quantity(text)


def test_parse_quantity_reads_bare_non_finite_token_as_number():
    assert math.isinf(parse_quantity("inf"))
    assert parse_quantity("-inf") == -math.inf
    assert math.isnan(parse_quantity("nan"))


def test_mass_with_unit_suffix():
    cfg = parse_config("[material]\nmass = 4.0026 u\n")
    assert cfg.material.mass == pytest.approx(6.6465e-27, rel=1e-4)


def test_empty_document_gets_defaults():
    cfg = parse_config("")
    assert cfg.experiment.seed == 12345
    assert cfg.material.mass == pytest.approx(6.6465e-27)
    assert cfg.noise.conserving is True


def test_unknown_key_named_in_error():
    with pytest.raises(ValidationError, match="wibble"):
        parse_config("[grid]\nwibble = 3\n")


def test_removed_kind_key_named_in_error():
    # dispatch follows the subcommand, so there is no experiment.kind key;
    # configs that still set it get an error naming the key
    with pytest.raises(ValidationError, match="'kind'"):
        parse_config("[experiment]\nkind = simulate\n")


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="mystery"):
        parse_config("[mystery]\nx = 1\n")


def test_negative_theta_rejected():
    with pytest.raises(ValidationError, match="theta"):
        parse_config("[noise]\ntheta = -1 K\n")


def test_malformed_value_names_key():
    with pytest.raises(ValidationError, match="n_points"):
        parse_config("[grid]\nn_points = lots\n")


def test_preset_material():
    # He-4 is defined once, and it is the default material
    assert ExperimentConfig().material == helium_preset()


def test_unknown_preset_rejected():
    # He-4 is the default, so there is no preset key; --set names it
    with pytest.raises(ValidationError, match=re.escape(
            "unknown key 'preset' in section [material]")):
        apply_overrides(ExperimentConfig(), {"material.preset": "he4"})


def test_half_width_moves_the_wall():
    # sigma is unset, so the square well's wall follows r_0 - half_width
    cfg = apply_overrides(ExperimentConfig(),
                          {"material.half_width": "1.6e-10 m"})
    assert square_well_solve(cfg.material).sigma == cfg.material.r_0 - 1.6e-10
    assert (square_well_solve(ExperimentConfig().material).sigma
            == cfg.material.r_0 - 1.54e-10)


def test_ini_text_parses_as_its_overrides():
    text = """
[experiment]
initial = harmonic_ground
seed = 7
[material]
mass = 4.0026 u
[noise]
theta = 2.17 K
"""
    overrides = {"experiment.initial": "harmonic_ground",
                 "experiment.seed": "7", "material.mass": "4.0026 u",
                 "noise.theta": "2.17 K"}
    cfg = parse_config(text)
    assert cfg == apply_overrides(ExperimentConfig(), overrides)
    assert cfg != ExperimentConfig()


def test_overrides_win():
    cfg = parse_config("[noise]\ntheta = 1.0 K\n")
    out = apply_overrides(cfg, {"noise.theta": "3.5 K"})
    assert out.noise.theta == pytest.approx(3.5)


def test_override_unknown_key_rejected():
    with pytest.raises(ValidationError,
                       match=r"unknown key 'volume' in section \[noise\]"):
        apply_overrides(ExperimentConfig(), {"noise.volume": "11"})


def test_lambda_q_override_accepts_inf():
    for raw in ("inf", "infinite"):
        cfg = apply_overrides(ExperimentConfig(),
                              {"experiment.lambda_q_override": raw})
        assert math.isinf(cfg.experiment.lambda_q_override)


# quantity keys take a unit, so a non-finite value is tried with one,
# bare, and out of float range; a bare "inf" is a legal lambda_q_override
NON_FINITE = [
    *((key, raw) for key in ("noise.theta", "noise.lambda_c", "integrator.t_end",
                             "experiment.lambda_q_override")
      for raw in ("nan K", "-inf K", "1e999", "nan")),
    *((key, "inf") for key in ("noise.theta", "noise.lambda_c",
                               "integrator.t_end")),
    *((key, raw) for key in ("noise.mobility_mu", "experiment.decay_h",
                             "material.depth_factor")
      for raw in ("nan", "inf", "-inf", "1e999")),
]


@pytest.mark.parametrize("dotted, raw", NON_FINITE)
def test_non_finite_value_rejected(dotted, raw):
    with pytest.raises(ValidationError, match=re.escape(
            f"bad value for {dotted}: {raw!r} is not finite")):
        apply_overrides(ExperimentConfig(), {dotted: raw})


def test_converters_match_dataclass_fields():
    # every field is settable, every converter sets a field, and every key
    # the per-key table names is a field
    cfg = ExperimentConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)}
    assert set(_CONVERTERS) == set(sections)
    for name, section in sections.items():
        assert set(_CONVERTERS[name]) == {f.name for f in fields(section)}
    for dotted in _KEY_CONVERTERS:
        section, key = dotted.split(".")
        assert key in _CONVERTERS[section]


PLAIN_NUMBERS = ("experiment.decay_h", "experiment.family_g", "experiment.family_h",
                 "material.depth_factor", "noise.mobility_mu")
QUANTITIES = [
    f"{section.name}.{key.name}"
    for section in fields(ExperimentConfig) for key in fields(section.type)
    if key.type in (float, float | None)
    and f"{section.name}.{key.name}" not in PLAIN_NUMBERS]


@pytest.mark.parametrize("dotted", QUANTITIES)
def test_float_key_takes_a_unit_suffix(dotted):
    section, key = dotted.split(".")
    assert _CONVERTERS[section][key]("2 nm") == 2e-9


@pytest.mark.parametrize("dotted", PLAIN_NUMBERS)
def test_plain_number_key_rejects_a_unit_suffix(dotted):
    with pytest.raises(ValidationError, match=re.escape(f"bad value for {dotted}")):
        apply_overrides(ExperimentConfig(), {dotted: "2 K"})


def test_default_config_is_pinned():
    # the grid is a grids.Grid and the integrator section extends the
    # dynamics settings, with the keys and order of the flat sections they
    # replaced, less the density floor, which is a qpotential constant, and
    # the CFL safety, a constant of the bound; the boundary is the grid's
    # periodic key; the material is the He-4 MaterialParams, to the last bit
    record = asdict(ExperimentConfig())
    assert list(record["material"].items()) == [
        ("mass", 6.6465e-27), ("well_depth", 1.50490741e-22),
        ("r_0", 4.1804999661337003e-10), ("sigma", None),
        ("half_width", 1.54e-10), ("depth_factor", 0.82)]
    assert list(record["grid"].items()) == [
        ("q_min", -2e-09), ("q_max", 2e-09), ("n_points", 801),
        ("periodic", False)]
    assert list(record["integrator"].items()) == [
        ("dt", 1e-16), ("scheme", "deterministic_quantum"),
        ("t_end", 1e-13), ("output_stride", 10)]
    record = summary_record(ExperimentConfig(), "simulate",
                            COMMAND_KEYS["simulate"], {})
    assert record["provenance"]["config_sha256_16"] == "7f817fe2994c8651"


def test_sections_are_the_objects_the_code_runs_on():
    from qhydro import dynamics

    cfg = ExperimentConfig()
    assert cfg.grid == Grid(-2e-9, 2e-9, 801)
    assert dynamics.IntegratorConfig is IntegratorConfig
    assert isinstance(cfg.integrator, IntegratorConfig)
    assert dynamics.SCHEMES is SCHEMES


NON_DEFAULT = {
    "experiment.seed": "7",
    "experiment.initial": "harmonic_ground",
    "experiment.lambda_q_override": "inf",
    "experiment.decay_h": "1.2",
    "experiment.samples": "64",
    "material.mass": "4.0026 u",
    "material.sigma": "2.6e-10 m",
    "grid.n_points": "401",
    "grid.q_max": "1.5 nm",
    "grid.periodic": "yes",
    "integrator.dt": "0.5 fs",
    "noise.theta": "2.17 K",
    "noise.conserving": "false",
    "output.csv": "run.csv",
}


def _ini(pairs: dict[str, str]) -> str:
    sections: dict[str, list[str]] = {}
    for dotted, raw in pairs.items():
        section, key = dotted.split(".", 1)
        sections.setdefault(section, []).append(f"{key} = {raw}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


def test_ini_and_overrides_give_equal_configs():
    from_ini = parse_config(_ini(NON_DEFAULT))
    assert from_ini == apply_overrides(ExperimentConfig(), NON_DEFAULT)
    assert from_ini != ExperimentConfig()


ALSO_SET = {"experiment.family_h": {"experiment.family": "log_f"}}


@pytest.mark.parametrize("dotted, raw, message", [
    ("mystery.x", "1", "unknown config section [mystery]"),
    ("experiment.kind", "simulate", "unknown key 'kind' in section [experiment]"),
    ("experiment.seed", "abc", "bad value for experiment.seed"),
    ("experiment.decay_h", "abc", "bad value for experiment.decay_h"),
    ("integrator.scheme", "bogus", "integrator.scheme must be one of"),
    ("grid.n_points", "3", "n_points must be at least 8"),
    # the checks each section, and the whole config, make when built
    ("experiment.initial", "bogus", "experiment.initial must be one of"),
    ("experiment.potential", "bogus", "experiment.potential must be one of"),
    ("experiment.family", "bogus", "experiment.family must be one of"),
    ("experiment.initial_width", "0", "experiment.initial_width must be positive"),
    ("experiment.samples", "0", "experiment.samples must be >= 2"),
    ("noise.lambda_c", "-1e-10", "noise.lambda_c must be positive"),
    ("integrator.t_end", "-1e-15", "integrator.t_end must be >= 0"),
    # half a step past ten steps, and less than the default 0.1 fs step
    *(("integrator.t_end", raw,
       "integrator.t_end must be a whole number of integrator.dt steps")
      for raw in ("1.05 fs", "0.05 fs")),
    ("integrator.output_stride", "0", "integrator.output_stride must be >= 1"),
    ("noise.mobility_mu", "0", "mobility_mu must be positive"),
    ("material.mass", "0", "material.mass must be positive"),
    ("material.well_depth", "-1", "material.well_depth must be positive"),
    ("material.r_0", "0", "material.r_0 must be positive"),
    ("material.half_width", "-1e-10", "half_width must be positive"),
    ("material.depth_factor", "2", "material.depth_factor must lie in (0, 1]"),
    ("experiment.tail_scale", "5",
     "experiment.tail_scale^2 must be >= 100 experiment.core_width^2"),
    ("experiment.core_width", "1e-170", "experiment.core_width^2 underflows to 0"),
    ("experiment.family_g", "5",
     "experiment.family_g must lie in (0, 2] for power_f"),
    ("experiment.family_h", "0",
     "experiment.family_h must be positive for log_f"),
    ("experiment.delta_l", "-1", "experiment.delta_l must be positive"),
    ("experiment.lambda_q_override", "-1e-9",
     "experiment.lambda_q_override must be >= 0"),
    ("experiment.decay_h", "0", "experiment.decay_h must be positive"),
])
def test_file_and_override_errors_agree(dotted, raw, message):
    # a family exponent is checked for the family that reads it
    pairs = {**ALSO_SET.get(dotted, {}), dotted: raw}
    with pytest.raises(ValidationError, match=re.escape(message)) as from_file:
        parse_config(_ini(pairs))
    with pytest.raises(ValidationError) as from_override:
        apply_overrides(ExperimentConfig(), pairs)
    assert str(from_file.value) == str(from_override.value)


# no steps, and 7 and 1,000 steps of the default dt; 0.1 fs is not a
# float, and 7 dt rounds to one ulp below 7e-16
@pytest.mark.parametrize("t_end", ["0", repr(7 * 1e-16), "7e-16", "1e-13"])
def test_whole_step_t_end_accepted(t_end):
    cfg = apply_overrides(ExperimentConfig(), {"integrator.t_end": t_end})
    assert cfg.integrator.t_end == float(t_end)
