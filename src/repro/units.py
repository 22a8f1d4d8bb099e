"""Unit constants and conversion helpers.

Everything inside the library computes in **SI base units**:

* sizes in **bits**,
* rates in **bits per second**,
* times in **seconds**,
* powers in **watts**,
* energies in **joules**.

The paper, like most of the storage literature, quotes sizes in decimal
kilobytes/megabytes/gigabytes (1 kB = 1000 B) and rates in kilobits per
second (1 kbps = 1000 bit/s).  This module is the single place where those
conventions are encoded; every other module converts *at the boundary* and
never mixes units internally.  (We verified the decimal-kB convention
against the paper's own anchor: a 90 kB buffer giving a 7-year springs
lifetime at 1024 kbps reproduces exactly with 1 kB = 1000 B.)

The helpers deliberately accept and return plain ``float`` rather than a
quantity class: the call sites read naturally (``kb_to_bits(90)``) and there
is no run-time overhead inside numpy sweeps.
"""

from __future__ import annotations

import math

from .errors import UnitError

# ---------------------------------------------------------------------------
# Fundamental constants
# ---------------------------------------------------------------------------

#: Bits per byte.
BITS_PER_BYTE = 8

#: Decimal kilo/mega/giga/tera multipliers (storage-industry convention).
KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000
TERA = 1_000_000_000_000

#: Binary multipliers, provided for completeness (DRAM chip sizes).
KIBI = 1_024
MEBI = 1_024 ** 2
GIBI = 1_024 ** 3

#: Seconds in one hour / day / (non-leap) year.
SECONDS_PER_HOUR = 3_600
SECONDS_PER_DAY = 86_400
DAYS_PER_YEAR = 365
SECONDS_PER_YEAR = SECONDS_PER_DAY * DAYS_PER_YEAR

# ---------------------------------------------------------------------------
# Size conversions
# ---------------------------------------------------------------------------


def bits_to_bytes(n_bits: float) -> float:
    """Convert a size in bits to bytes."""
    return n_bits / BITS_PER_BYTE


def kb_to_bits(kilobytes: float) -> float:
    """Convert decimal kilobytes (1 kB = 1000 B) to bits."""
    return kilobytes * KILO * BITS_PER_BYTE


def bits_to_kb(n_bits: float) -> float:
    """Convert bits to decimal kilobytes (1 kB = 1000 B)."""
    return n_bits / (KILO * BITS_PER_BYTE)


def bits_to_mb(n_bits: float) -> float:
    """Convert bits to decimal megabytes (1 MB = 10^6 B)."""
    return n_bits / (MEGA * BITS_PER_BYTE)


def gb_to_bits(gigabytes: float) -> float:
    """Convert decimal gigabytes (1 GB = 10^9 B) to bits."""
    return gigabytes * GIGA * BITS_PER_BYTE


def bits_to_gb(n_bits: float) -> float:
    """Convert bits to decimal gigabytes (1 GB = 10^9 B)."""
    return n_bits / (GIGA * BITS_PER_BYTE)


# ---------------------------------------------------------------------------
# Rate conversions
# ---------------------------------------------------------------------------


def kbps_to_bps(kilobits_per_second: float) -> float:
    """Convert kilobits per second (1 kbps = 1000 bit/s) to bit/s."""
    return kilobits_per_second * KILO


def mbps_to_bps(megabits_per_second: float) -> float:
    """Convert megabits per second to bit/s."""
    return megabits_per_second * MEGA


# ---------------------------------------------------------------------------
# Time conversions
# ---------------------------------------------------------------------------


def ms_to_seconds(milliseconds: float) -> float:
    """Convert milliseconds to seconds."""
    return milliseconds / 1_000


def seconds_to_years(seconds: float) -> float:
    """Convert seconds to (non-leap) years."""
    return seconds / SECONDS_PER_YEAR


def playback_seconds_per_year(hours_per_day: float) -> float:
    """Seconds of playback per year for a usage of ``hours_per_day``.

    This is the quantity *T* in Equations (5) and (6) of the paper: the
    total seconds played back per year, assuming use every day of the year.

    Raises :class:`~repro.errors.UnitError` for a usage outside [0, 24] h.
    """
    if not 0 <= hours_per_day <= 24:
        raise UnitError(
            f"hours_per_day must lie in [0, 24], got {hours_per_day!r}"
        )
    return hours_per_day * SECONDS_PER_HOUR * DAYS_PER_YEAR


# ---------------------------------------------------------------------------
# Power / energy conversions
# ---------------------------------------------------------------------------


def mw_to_watts(milliwatts: float) -> float:
    """Convert milliwatts to watts."""
    return milliwatts / 1_000


def j_per_bit_to_nj_per_bit(joules_per_bit: float) -> float:
    """Convert a per-bit energy from J/bit to nJ/bit (the paper's axis)."""
    return joules_per_bit * 1e9


# ---------------------------------------------------------------------------
# Areal density
# ---------------------------------------------------------------------------

#: Square metres per square inch (areal densities are quoted per in^2).
M2_PER_IN2 = 0.0254 ** 2


def terabit_per_in2_to_bits_per_m2(density_tb_in2: float) -> float:
    """Convert an areal density in Tb/in^2 to bits per square metre."""
    return density_tb_in2 * TERA / M2_PER_IN2


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def format_size(n_bits: float, digits: int = 3) -> str:
    """Render a size in bits with a human-friendly decimal unit.

    >>> format_size(8_000)
    '1 kB'
    >>> format_size(17_817.4)
    '2.23 kB'
    """
    n_bytes = bits_to_bytes(n_bits)
    for limit, divisor, unit in (
        (KILO, 1, "B"),
        (MEGA, KILO, "kB"),
        (GIGA, MEGA, "MB"),
        (TERA, GIGA, "GB"),
    ):
        if abs(n_bytes) < limit:
            return f"{_round_sig(n_bytes / divisor, digits):g} {unit}"
    return f"{_round_sig(n_bytes / TERA, digits):g} TB"


def format_rate(bits_per_second: float, digits: int = 3) -> str:
    """Render a rate in bit/s with a human-friendly unit.

    >>> format_rate(1_024_000)
    '1024 kbps'
    """
    if abs(bits_per_second) < KILO:
        return f"{_round_sig(bits_per_second, digits):g} bps"
    if abs(bits_per_second) < GIGA:
        return f"{_round_sig(bits_per_second / KILO, digits + 1):g} kbps"
    return f"{_round_sig(bits_per_second / GIGA, digits):g} Gbps"


def format_duration(seconds: float, digits: int = 3) -> str:
    """Render a duration with a sensible unit (µs, ms, s, h, years)."""
    if seconds == 0:
        return "0 s"
    magnitude = abs(seconds)
    if magnitude < 1e-3:
        return f"{_round_sig(seconds * 1e6, digits):g} µs"
    if magnitude < 1:
        return f"{_round_sig(seconds * 1e3, digits):g} ms"
    if magnitude < SECONDS_PER_HOUR:
        return f"{_round_sig(seconds, digits):g} s"
    if magnitude < SECONDS_PER_YEAR:
        return f"{_round_sig(seconds / SECONDS_PER_HOUR, digits):g} h"
    return f"{_round_sig(seconds_to_years(seconds), digits):g} years"


def _round_sig(value: float, digits: int) -> float:
    """Round ``value`` to ``digits`` significant digits."""
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, -int(math.floor(math.log10(abs(value)))) + digits - 1)
