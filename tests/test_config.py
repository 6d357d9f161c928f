import math

import pytest

from qhydro.config import (
    ExperimentConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from qhydro.constants import parse_quantity
from qhydro.errors import ValidationError


def test_parse_quantity_units():
    assert parse_quantity("4.0026 u") == pytest.approx(6.6465e-27, rel=1e-4)
    assert parse_quantity("7.9 Bohr") == pytest.approx(4.1805e-10, rel=1e-4)
    assert parse_quantity("10.9 kB") == pytest.approx(1.5049e-22, rel=1e-4)
    assert parse_quantity("2.17K") == pytest.approx(2.17)
    assert parse_quantity("1e-22") == pytest.approx(1e-22)
    assert parse_quantity("1.5 eV") == pytest.approx(2.403e-19, rel=1e-3)


def test_parse_quantity_rejects_unknown_unit():
    with pytest.raises(ValueError, match="unknown unit"):
        parse_quantity("3.0 furlongs")


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
    cfg = parse_config("[material]\npreset = he4\n")
    params = cfg.material_params()
    assert params.mass == pytest.approx(6.6465e-27)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError, match="preset"):
        parse_config("[material]\npreset = unobtanium\n").material_params()


def test_parse_serialize_parse_idempotent():
    text = """
[experiment]
initial = harmonic_ground
seed = 7
[material]
mass = 4.0026 u
[noise]
theta = 2.17 K
"""
    cfg1 = parse_config(text)
    cfg2 = parse_config(serialize_config(cfg1))
    assert cfg1 == cfg2
    assert serialize_config(cfg1) == serialize_config(cfg2)


def test_overrides_win():
    cfg = parse_config("[noise]\ntheta = 1.0 K\n")
    out = apply_overrides(cfg, {"noise.theta": "3.5 K"})
    assert out.noise.theta == pytest.approx(3.5)


def test_override_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown override"):
        apply_overrides(ExperimentConfig(), {"noise.volume": "11"})


def test_lambda_q_override_accepts_inf():
    cfg = apply_overrides(ExperimentConfig(),
                          {"experiment.lambda_q_override": "inf"})
    assert math.isinf(cfg.experiment.lambda_q_override)
