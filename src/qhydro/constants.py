"""Physical constants (CODATA 2018) and unit conversion helpers.

All internal computation is SI; unit suffixes (K, Bohr, eV, kB, u, ...)
are converted at the CLI/config boundary.
"""

HBAR = 1.054571817e-34        # J s
K_B = 1.380649e-23            # J / K
BOHR = 5.29177210903e-11      # m
ATOMIC_MASS_UNIT = 1.66053906660e-27   # kg
EV = 1.602176634e-19          # J

# The explicit step's bound, as the fraction of RK4's stability limit on
# the discretised operator that qhydro.dynamics.cfl_limit returns; not a
# config key.  Measured with the bound relaxed, the largest stable dt is
# 1.85 m h^2/hbar on a zero-flux packet boosted to |v0| = 150 m/s (2.36 on
# the N = 151 free packet, up to the linear limit 3.67 on a periodic
# boost); 0.4 puts the bound at 1.47 m h^2/hbar, 1.26x below the smallest.
CFL_SAFETY = 0.4


# Multiplicative factors to SI for the unit suffixes accepted in configs
# and on the command line.  "K" and "1" are identity (kelvin and plain
# numbers are already SI for our purposes).
UNIT_FACTORS = {
    "": 1.0,
    "1": 1.0,
    "m": 1.0,
    "s": 1.0,
    "J": 1.0,
    "K": 1.0,
    "kg": 1.0,
    "N": 1.0,
    "nm": 1e-9,
    "pm": 1e-12,
    "A": 1e-10,          # angstrom
    "angstrom": 1e-10,
    "Bohr": BOHR,
    "bohr": BOHR,
    "eV": EV,
    "meV": 1e-3 * EV,
    "kB": K_B,           # energies quoted as multiples of k_B (i.e. kelvin)
    "u": ATOMIC_MASS_UNIT,
    "fs": 1e-15,
    "ps": 1e-12,
}


def parse_quantity(text: str) -> float:
    """Parse "4.0026 u" / "7.9 Bohr" / "1.5e-22" into an SI float."""
    parts = text.strip().split()
    if len(parts) == 1:
        token = parts[0]
        try:
            # a bare number, "1e-22", "inf" and "nan" included: its letters
            # are not a unit
            return float(token)
        except ValueError:
            pass
        # allow a glued suffix, e.g. "2.17K" or "4.0026u"
        idx = len(token)
        while idx > 0 and token[idx - 1].isalpha():
            idx -= 1
        number, unit = token[:idx], token[idx:]
    else:                           # a blank text has no number either
        number, unit = " ".join(parts[:1]), " ".join(parts[1:])
    if not number:
        raise ValueError(f"malformed number in {text!r}")
    if unit not in UNIT_FACTORS:
        raise ValueError(f"unknown unit suffix {unit!r} in {text!r}")
    try:
        value = float(number)
    except ValueError as exc:
        raise ValueError(f"malformed number in {text!r}") from exc
    return value * UNIT_FACTORS[unit]
