"""Sampled fields, derivative kernels and the quadrature on a uniform grid.

The numeric substrate for everything else: fields are immutable numpy
arrays tied to a ``params.Grid``, and derivatives are second-order central
stencils, one-sided at the walls or wrapped around a periodic grid.
``derivative_kernel`` holds the stencils and slices its arrays once, so the
integrator slices its workspace once per run.  Grouped differences map
constant fields to exactly zero; the ends run on Python floats, the same
IEEE doubles as numpy scalars without their per-operation overhead.

The stencils and the quadrature read the boundary from ``Grid.periodic``
(``qhydro.params``).  The quadrature, ``integral``, is the trapezoid rule
between walls and the cell sum on a periodic grid, the wrap-around cell
included; it integrates along the last axis over ``Grid.length``, the
package's one trapezoid rule (lambda_q's too).
``quadrature_weights`` gives its w: integral(f) = w . f.  ``Grid`` and
``params.check_length``, the rule for a length a run samples, hold no
array, so they live in the scalar layer, ``qhydro.params``.
"""

import numpy as np

from .errors import ValidationError
from .params import Grid, Record

# bound once and given ``out`` positionally: numpy parses no keyword then
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide


class Field(Record):
    """Sampled real profile on a grid, with a loose unit tag."""

    grid: Grid
    values: np.ndarray
    unit: str = "1"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValidationError(
                f"field has {values.shape} values for a {self.grid.n_points}-point grid"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("field values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def derivative_kernel(values: np.ndarray, out: np.ndarray, grid: Grid,
                      order: int):
    """A call that writes the derivative of what ``values`` holds into ``out``,
    with the slices it reads taken here, once (module docstring)."""
    if order not in (1, 2):
        raise ValidationError("derivative order must be 1 or 2")
    spacing, periodic = grid.spacing, grid.periodic
    scale = 2 * spacing if order == 1 else spacing**2
    # the interior's divisor as a 0-d array, which numpy need not convert
    divisor = np.array(scale)
    hi, mid, lo, inner = values[2:], values[1:-1], values[:-2], out[1:-1]
    head, tail = values[:order + 2], values[-order - 2:]
    if order == 2 and not periodic:
        step = np.empty(len(values) - 1)
        right, left, step_hi, step_lo = values[1:], values[:-1], step[1:], step[:-1]

    def kernel():
        a, b = head.tolist(), tail.tolist()
        if order == 1:
            _sub(hi, lo, inner)
            if periodic:
                first, last = a[1] - b[2], a[0] - b[1]
            else:
                first = 3 * (a[1] - a[0]) + (a[1] - a[2])
                last = 3 * (b[2] - b[1]) + (b[0] - b[1])
        elif periodic:
            _add(_sub(hi, _mul(mid, 2, inner), inner), lo, inner)
            first, last = (a[1] - 2 * a[0]) + b[3], (a[0] - 2 * b[3]) + b[2]
        else:
            _sub(right, left, step)
            _sub(step_hi, step_lo, inner)
            first = 2 * (a[0] - a[1]) - 3 * (a[1] - a[2]) + (a[2] - a[3])
            last = 2 * (b[3] - b[2]) - 3 * (b[2] - b[1]) + (b[1] - b[0])
        _div(inner, divisor, inner)
        out[0], out[-1] = first / scale, last / scale
    return kernel


def stencil_derivative(values: np.ndarray, grid: Grid, order: int) -> np.ndarray:
    """Derivative of an array on ``grid``, one-sided at the walls or, on a
    periodic grid, wrapped around (translation equivariant)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    derivative_kernel(v, out, grid, order)()
    return out


def quadrature_weights(grid: Grid) -> np.ndarray:
    """The weights w of ``integral``: h on every point, h / 2 at the walls."""
    weights = np.full(grid.n_points, grid.spacing)
    if not grid.periodic:
        weights[[0, -1]] = grid.spacing / 2.0
    return weights


def integral(values: np.ndarray, grid: Grid,
             scratch: np.ndarray | None = None):
    """The integral of ``values`` along their last axis: the cell sum on a
    periodic grid, the trapezoid rule between walls (module docstring).

    The trapezoid rule takes the operations of numpy's ``trapezoid`` in
    its order, so its bits are that function's: the shifted rows added,
    times h, halved, then summed.  Pass ``scratch``, an array of
    ``values``' shape, and the sums of neighbours go into its first N - 1
    entries along that axis instead of new arrays; the cell sum needs none.
    """
    if grid.periodic:
        return np.add.reduce(values, -1) * grid.spacing
    pairs = _add(values[..., 1:], values[..., :-1],
                 None if scratch is None else scratch[..., :-1])
    pairs *= grid.spacing
    pairs /= 2.0
    return np.add.reduce(pairs, -1)
