"""Experiment configuration: parsing, validation, defaults.

Configs are INI-style documents with sections [experiment], [material],
[grid], [integrator], [noise], [output].  Every key has a documented
default; unknown sections or keys are rejected by name.  Each key is
declared once, as a field of its section's ``params.Record`` class, whose
``fields`` table gives its type, and is read by the converter of that
type: a float takes a unit suffix ("7.9 Bohr", "10.9 kB", "2.17K") and
is converted to SI at this boundary, and an optional value reads "" and
"none" as unset.  ``_KEY_CONVERTERS`` names the six keys whose type does
not say how to read them: the five plain numbers, which take no suffix,
and lambda_q_override, which reads "inf".

A value reaches a config by one route: ``apply_overrides`` looks up each
"section.key", converts its text and names the key in any error.  A parsed
INI file, ``--set`` and the CLI's shorthand flags all pass through it.

Each section is the object the code runs on, and each checks its own
values when it is built, so a config file's bad value fails at load
whichever command reads the file: [material] is the
``params.MaterialParams`` of the run (He-4 by default), [grid] the
``params.Grid``, and [integrator] the ``IntegratorConfig`` that
``dynamics`` steps with, plus the run length, a whole number of steps.
[experiment] is ``ExperimentSection``, read as it is: a start is a free
Gaussian or ``ground``, the ground state of its potential, which so must
not be none, and lambda-q reads the five family keys, checked last, from
it.  The noise amplitude, from the material's mass and [noise], spans two
sections; the ``noise.NoiseModel`` of the commands that draw noise checks
it.  ``IntegratorConfig`` and the scheme names live here, and ``dynamics``
re-exports them, so the scalar commands never import the integrator to
validate its settings.  Like ``qhydro.params``, whose objects the sections
are, this module imports no numpy, and it imports ``configparser`` only
when a config file is read (``parse_config``).
Which keys a command reads is the CLI's table, ``cli.COMMAND_KEYS``, and
a JSON summary records those keys alone (``output.summary_record``).
"""

import io
import math

from .constants import parse_quantity
from .errors import ValidationError
from .params import Grid, MaterialParams, Record, helium_preset

INITIAL_CONDITIONS = ("free_gaussian", "ground")
POTENTIALS = ("none", "harmonic", "square_well")
FAMILIES = ("constant_f", "linear_f", "log_f", "power_f")

DETERMINISTIC_QUANTUM = "deterministic_quantum"
STOCHASTIC_QUANTUM = "stochastic_quantum"
CLASSICAL_LIMIT = "classical_limit"
SCHEMES = (DETERMINISTIC_QUANTUM, STOCHASTIC_QUANTUM, CLASSICAL_LIMIT)


def _finite(parse):
    """``parse``, with NaN and +-inf rejected."""
    def finite(text: str) -> float:
        value = parse(text)
        if not math.isfinite(value):
            raise ValueError(f"{text.strip()!r} is not finite")
        return value
    return finite


# a quantity with an optional unit suffix, converted to SI
quantity = _finite(parse_quantity)
_real = _finite(float)


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _optional(convert):
    """``convert``, with "" and "none" read as None."""
    def optional(text: str):
        return None if text.strip().lower() in ("", "none") else convert(text)
    return optional


def length_or_inf(text: str) -> float:
    """A finite length, or "inf" / "infinite" for an unbounded one."""
    if text.strip().lower() in ("inf", "infinite"):
        return math.inf
    return quantity(text)


class ExperimentSection(Record):
    seed: int = 12345
    initial: str = "free_gaussian"      # or ground: the potential's ground state
    initial_width: float = 1e-10        # m, Gaussian sigma of the start density
    initial_center: float = 0.0         # m
    initial_velocity: float = 0.0       # m/s
    potential: str = "none"
    delta_l: float | None = None        # m, physical length for classify
    lambda_q_override: float | None = None
    decay_h: float | None = None
    family: str = "power_f"             # one of FAMILIES
    family_g: float = 2.0               # power_f exponent, 0 < g <= 2
    family_h: float = 1.0               # log_f exponent
    core_width: float = 1.0             # m, sqrt of the core variance parameter
    tail_scale: float = 20.0            # m, Lambda of the pseudo-Gaussian
    samples: int = 10000                # noise-audit sample count

    def __post_init__(self):
        if self.initial not in INITIAL_CONDITIONS:
            raise ValidationError(
                f"experiment.initial must be one of {INITIAL_CONDITIONS}")
        if self.potential not in POTENTIALS:
            raise ValidationError(f"experiment.potential must be one of {POTENTIALS}")
        if self.initial == "ground" and self.potential == "none":
            raise ValidationError("experiment.initial = ground is the ground "
                                  "state of experiment.potential, which must "
                                  "be harmonic or square_well")
        if self.initial_width <= 0:
            raise ValidationError("experiment.initial_width must be positive")
        if self.delta_l is not None and self.delta_l <= 0:
            raise ValidationError("experiment.delta_l must be positive")
        if self.lambda_q_override is not None and self.lambda_q_override < 0:
            raise ValidationError("experiment.lambda_q_override must be >= 0")
        if self.decay_h is not None and self.decay_h <= 0:
            raise ValidationError("experiment.decay_h must be positive")
        # a single field has no spread, so no standard error
        if self.samples < 2:
            raise ValidationError("experiment.samples must be >= 2")
        # the pseudo-Gaussian family (qhydro.potentials), checked last
        if self.family not in FAMILIES:
            raise ValidationError(f"experiment.family must be one of {FAMILIES}")
        # the width is squared into Dq2, so a negative one would run as
        # its absolute value, and one whose square underflows as Dq2 = 0
        if self.core_width <= 0:
            raise ValidationError("experiment.core_width must be positive")
        if self.core_width**2 == 0.0:
            raise ValidationError("experiment.core_width^2 underflows to 0")
        if self.tail_scale <= 0:
            raise ValidationError("experiment.tail_scale must be positive")
        # the tail must not disturb the Gaussian core
        if self.tail_scale**2 < 100.0 * self.core_width**2:
            raise ValidationError("experiment.tail_scale^2 must be >= 100 "
                                  "experiment.core_width^2")
        if self.family == "power_f" and not 0.0 < self.family_g <= 2.0:
            raise ValidationError(
                "experiment.family_g must lie in (0, 2] for power_f")
        if self.family == "log_f" and self.family_h <= 0:
            raise ValidationError("experiment.family_h must be positive for log_f")


class IntegratorConfig(Record):
    """Settings of the time integrator (``qhydro.dynamics``)."""

    dt: float
    scheme: str = DETERMINISTIC_QUANTUM

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("integrator.dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"integrator.scheme must be one of {SCHEMES}")


class IntegratorSection(IntegratorConfig):
    """[integrator]: the integrator's settings and the run length."""

    dt: float = 1e-16
    t_end: float = 1e-13
    output_stride: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.t_end < 0:
            raise ValidationError("integrator.t_end must be >= 0")
        # the run takes round(t_end / dt) steps, so any other t_end would
        # end the run short of it or past it; remainder is exact
        if abs(math.remainder(self.t_end, self.dt)) > 1e-9 * self.dt:
            raise ValidationError(
                "integrator.t_end must be a whole number of integrator.dt steps")
        if self.output_stride < 1:
            raise ValidationError("integrator.output_stride must be >= 1")


class NoiseSection(Record):
    theta: float = 0.0
    lambda_c: float | None = None       # m, override of the derived length
    # s kg^-1 m^-2: the prefactor 8 m (k_B Theta)^2 / (pi^3 hbar^2) is in
    # kg s^-2, and A = mu times it must be the m^-2 s^-1 of a density rate
    mobility_mu: float = 1.0
    conserving: bool = True

    def __post_init__(self):
        if self.theta < 0:
            raise ValidationError("noise.theta must be >= 0")
        if self.lambda_c is not None and self.lambda_c <= 0:
            raise ValidationError("noise.lambda_c must be positive")
        if self.mobility_mu <= 0:
            raise ValidationError("noise.mobility_mu must be positive")


class OutputSection(Record):
    csv: str | None = None
    json: str | None = None


class ExperimentConfig(Record):
    experiment: ExperimentSection = ExperimentSection()
    material: MaterialParams = helium_preset()
    grid: Grid = Grid(-2e-9, 2e-9, 801)
    integrator: IntegratorSection = IntegratorSection()
    noise: NoiseSection = NoiseSection()
    output: OutputSection = OutputSection()


# a key is read by the converter of its field's type, unless named here:
# the plain numbers take no unit suffix, and lambda_q_override reads "inf"
_KEY_CONVERTERS = {
    "experiment.decay_h": _optional(_real),
    "experiment.family_g": _real,
    "experiment.family_h": _real,
    "material.depth_factor": _real,
    "noise.mobility_mu": _real,
    "experiment.lambda_q_override": _optional(length_or_inf),
}
_TYPE_CONVERTERS = {
    int: int,
    str: str,
    bool: _boolean,
    float: quantity,
    float | None: _optional(quantity),
    str | None: _optional(str.strip),
}
# section -> key -> converter; the sections' field defaults are the default
# table, and a field of a type without a converter fails this import
_CONVERTERS = {
    section: {
        key: _KEY_CONVERTERS.get(f"{section}.{key}", _TYPE_CONVERTERS[kind])
        for key, kind in section_type.fields.items()}
    for section, section_type in ExperimentConfig.fields.items()}


def _section_converters(section: str) -> dict:
    if section not in _CONVERTERS:
        raise ValidationError(f"unknown config section [{section}]")
    return _CONVERTERS[section]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; unknown keys are rejected."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    # an empty section sets no key, so sections are checked here as well
    for section in parser.sections():
        _section_converters(section)
    return apply_overrides(ExperimentConfig(), {
        f"{section}.{key}": raw
        for section in parser.sections() for key, raw in parser.items(section)})


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    """Convert "section.key" -> text pairs and merge them into cfg; each
    rebuilt section checks itself."""
    staged: dict[str, dict[str, object]] = {}
    for dotted, raw in overrides.items():
        section, dot, key = dotted.partition(".")
        if not dot:
            raise ValidationError(
                f"override {dotted!r} must be section.key")
        converters = _section_converters(section)
        if key not in converters:
            raise ValidationError(
                f"unknown key {key!r} in section [{section}]")
        try:
            staged.setdefault(section, {})[key] = converters[key](raw)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"bad value for {dotted}: {exc}") from exc
    return cfg.replace(**{
        section: getattr(cfg, section).replace(**values)
        for section, values in staged.items()})

