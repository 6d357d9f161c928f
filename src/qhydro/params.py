"""The objects a config's sections build, and the closed forms on them.

This is the scalar layer's model: nothing here imports numpy, so a command
that needs no array (lambda-c, classify, case) never loads it.
``Grid.points`` is the one array here, and it imports numpy when it is
read.  Each object checks its own values when it is built, with messages
that name the config keys that set them, so a config file's bad value
fails when the config loads.  The field annotations are real types, not
strings, because ``qhydro.config`` reads each field's type to choose its
converter.

  * ``Record`` is the one way qhydro declares a value object, here and in
    every other module.  A subclass lists its fields as annotated class
    attributes, each class attribute a default; ``Cls.fields`` maps them
    to their types.  A record binds positional and keyword arguments to
    its fields, runs ``__post_init__``, and is then frozen, compared and
    hashed by type and field values; ``replace`` rebuilds it through the
    checks, and ``as_dict`` gives its fields by name.  It is a plain base
    class rather than the standard library's class decorator, whose import
    (inspect, ast, dis, tokenize) and per-class code generation took about
    a quarter of a cold closed-form command.
  * ``Grid`` is [grid]: the uniform 1-D grid, which owns its boundary.
    ``Grid.periodic`` is the one place the boundary is stated; the
    stencils, the quadrature (``qhydro.grids``) and every caller of them
    read it there.  ``Grid.length`` is the measure the quadrature
    integrates over: q_max - q_min between walls, the period N h on a
    periodic grid, whose N points each own a cell of width h.
    ``check_length`` is the one rule for a length that a start density or
    the noise sampler samples, checked before it samples.
  * ``MaterialParams`` is [material] (He-4 by default, ``helium_preset``),
    with the harmonic approximation of its pair well (``lj_harmonic``) and
    the lowest bound state of its hard-wall square well
    (``square_well_solve``, by bisection on Python floats).

[experiment] has no object here: ``config.ExperimentSection`` holds its
keys as they are read, the pseudo-Gaussian family's five among them, and
checks them itself.
"""

import math

from .constants import BOHR, HBAR, K_B
from .errors import NoBoundStateError, UnderResolvedError, ValidationError

# the documented truncation constant delta / r_0 of the harmonic quantum force
DELTA_OVER_R0 = 0.11785

_MISSING = object()


class Record:
    """A frozen value object, built and checked once (module docstring).

    A subclass's fields are its annotated names, base classes' first, and
    the class attribute of a field's name is its default.  ``Cls.fields``
    maps each field's name to its declared type.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        # each class's own annotations, read through the attribute (a class
        # may keep them unevaluated, outside its __dict__); object has none
        for klass in reversed(cls.__mro__[:-1]):
            fields.update(klass.__annotations__)
        cls.fields = fields
        cls._defaults = {name: getattr(cls, name) for name in fields
                         if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls.fields, args))
        if len(given) < len(args):
            raise TypeError(f"{cls.__name__} takes {len(cls.fields)} fields, "
                            f"not {len(args)}")
        for name in kwargs:
            if name not in cls.fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
        given.update(kwargs)
        for name in cls.fields:
            value = given.get(name, cls._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        # looked up now, not at class creation, so a patched check runs
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass with values to check overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__qualname__}({args})"

    def replace(self, **changes):
        """A copy with ``changes``, built, and so checked, anew."""
        return type(self)(**{**self.as_dict(), **changes})

    def as_dict(self) -> dict:
        """The fields by name, in field order."""
        return {name: getattr(self, name) for name in self.fields}


class Grid(Record):
    q_min: float
    q_max: float
    n_points: int
    periodic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)):
            raise ValidationError("grid bounds must be finite")
        if self.q_max <= self.q_min:
            raise ValidationError("empty domain: q_max must exceed q_min")
        if self.n_points < 8:
            raise ValidationError("n_points must be at least 8")

    @property
    def spacing(self) -> float:
        return (self.q_max - self.q_min) / (self.n_points - 1)

    @property
    def points(self):
        """The grid's points, a read-only numpy array."""
        import numpy as np

        q = np.linspace(self.q_min, self.q_max, self.n_points)
        q.flags.writeable = False
        return q

    @property
    def length(self) -> float:
        """The domain's measure: q_max - q_min between walls, the period
        N h on a periodic grid."""
        if self.periodic:
            return self.n_points * self.spacing
        return self.q_max - self.q_min


def check_length(name: str, length: float, grid: Grid,
                 support: tuple[str, float, float] | None = None, *, what: str):
    """Reject the ``what``'s ``length``, named ``name``, unless h < length / 2,
    and its ``support`` (keys, lo, hi) unless it lies in [q_min, q_max]."""
    if not grid.spacing < length / 2.0:
        raise UnderResolvedError(
            f"under-resolved {what}: spacing {grid.spacing:.3e} m must be "
            f"below {name}/2 = {length / 2.0:.3e} m")
    keys, lo, hi = support or ("", grid.q_min, grid.q_max)
    if not grid.q_min <= lo <= hi <= grid.q_max:     # the ends included
        raise ValidationError(
            f"{what} needs [{lo:.3e}, {hi:.3e}] m ({keys}) inside the grid "
            f"[{grid.q_min:.3e}, {grid.q_max:.3e}] m")


class MaterialParams(Record):
    """Pair-interaction material constants (SI)."""

    mass: float                  # kg
    well_depth: float            # J
    r_0: float                   # m, pair-potential minimum position
    sigma: float | None = None   # m, hard-wall position of the square well
    half_width: float | None = None   # m, Delta: half the square-well width
    depth_factor: float = 0.82   # square-well depth as a fraction of well_depth

    def __post_init__(self):
        for key in ("mass", "well_depth", "r_0"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"material.{key} must be positive")
        if self.half_width is not None and self.half_width <= 0:
            raise ValidationError("material.half_width must be positive")
        if not 0.0 < self.depth_factor <= 1.0:
            raise ValidationError("material.depth_factor must lie in (0, 1]")


def helium_preset() -> MaterialParams:
    """He-4 pair parameters: r_0 = 7.9 Bohr, Delta = 1.54e-10 m, U = 10.9 k_B.

    sigma is left unset, so the square well puts its wall at r_0 - Delta.
    """
    return MaterialParams(mass=6.6465e-27, well_depth=10.9 * K_B,
                          r_0=7.9 * BOHR, half_width=1.54e-10)


class HarmonicApprox(Record):
    """Harmonic expansion of the pair well about its reduced equilibrium."""

    k: float                     # N/m, curvature U (12/r_0)^2
    q_bar: float                 # m, equilibrium position r_0/2
    E_0: float                   # J, ground level measured from V = 0
    delta: float                 # m, quantum-force truncation distance
    K_0: float                   # 1/m, Gaussian state exponent scale


def lj_harmonic(params: MaterialParams) -> HarmonicApprox:
    """Harmonic approximation: k = U (12/r_0)^2, ground level, truncation delta."""
    m = params.mass
    u, r0 = params.well_depth, params.r_0
    k = u * (12.0 / r0) ** 2
    half_hbar_omega = 0.5 * HBAR * math.sqrt(k / m)
    e0 = half_hbar_omega - u
    k0 = math.sqrt((e0 + u) * m) / HBAR
    return HarmonicApprox(
        k=k,
        q_bar=r0 / 2.0,
        E_0=e0,
        delta=DELTA_OVER_R0 * r0,
        K_0=k0,
    )


class SquareWellState(Record):
    """Lowest bound state of the hard-wall square well."""

    K_0: float                   # 1/m, interior wave number
    E_0: float                   # J, negative bound-state energy
    kappa: float                 # 1/m, exterior decay constant
    sigma: float                 # m, hard wall position
    width: float                 # m, well width 2 Delta
    depth: float                 # J, well depth below zero
    matching_residual: float     # dimensionless residual of z cot z = -sqrt(z0^2-z^2)


def _bisect_root(f, a: float, b: float) -> float:
    """Root of f on [a, b] by bisection, to the last bit.

    Halves the bracket until its midpoint equals an endpoint, then returns
    the endpoint with the smaller |f|: about 52 halvings for a bracket of
    order one.
    """
    f_a, f_b = f(a), f(b)
    if f_a == 0.0:
        return a
    if f_b == 0.0:
        return b
    if (f_a < 0.0) == (f_b < 0.0):
        raise NoBoundStateError("no bound state: matching condition has no root")
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a if abs(f_a) <= abs(f_b) else b
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_a < 0.0):
            a, f_a = mid, f_mid
        else:
            b, f_b = mid, f_mid


def square_well_solve(params: MaterialParams) -> SquareWellState:
    """Solve the lowest bound state of the hard-wall square well.

    Geometry: infinite wall at q = sigma, potential -depth on
    (sigma, sigma + 2 Delta), zero beyond.  The interior solution
    sin(K_0 (q - sigma)) must match an exponential tail, which reduces to
    z cot z = -sqrt(z0^2 - z^2) with z = 2 Delta K_0 and
    z0 = 2 Delta sqrt(2 m depth) / hbar, solved by bracketed root finding
    on (pi/2, min(pi, z0)).
    """
    if params.half_width is None:
        raise ValidationError("square well needs half_width (Delta)")
    m = params.mass
    width = 2.0 * params.half_width
    depth = params.depth_factor * params.well_depth
    sigma = params.sigma if params.sigma is not None else params.r_0 - params.half_width
    z0 = width * math.sqrt(2.0 * m * depth) / HBAR
    if z0 <= math.pi / 2.0:
        raise NoBoundStateError(
            f"no bound state: well strength z0 = {z0:.4f} <= pi/2")

    def matching(z: float) -> float:
        return z / math.tan(z) + math.sqrt(max(z0**2 - z**2, 0.0))

    eps = 1e-12
    lo, hi = math.pi / 2.0 + eps, min(math.pi - eps, z0)
    z = _bisect_root(matching, lo, hi)
    k0 = z / width
    e0 = (HBAR * k0) ** 2 / (2.0 * m) - depth
    kappa = math.sqrt(-2.0 * m * e0) / HBAR
    return SquareWellState(
        K_0=k0,
        E_0=e0,
        kappa=kappa,
        sigma=sigma,
        width=width,
        depth=depth,
        matching_residual=abs(matching(z)),
    )

