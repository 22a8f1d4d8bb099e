"""Sector and subsector layout: Equations (2)-(4) of the paper.

A sector holding ``Su`` user bits is striped across ``K`` active probes.
Each probe stores one *subsector* of

    s = ceil((Su + S_ECC) / K) + sync_bits            (Equation 2)

bits, where the trailing synchronisation bits keep the read-channel clock
running between subsectors (§III.B.2; the paper assumes 3 bits ~ a 30 µs
processing window at 100 kbps per probe).  The effective sector size on the
medium is

    S = K * s                                         (Equation 3)

and the capacity utilisation is

    u(Su) = Su / S.                                   (Equation 4)

Because of the two ceilings, ``u`` is a saw-tooth in ``Su``: it climbs while
the last subsector fills and drops one bit-per-probe each time the striping
spills into a new column.  :class:`SectorLayout` exposes both the exact
integer math and the smooth envelope used for closed-form reasoning, plus
the exact *inverse* (minimal ``Su`` reaching a utilisation target) on which
the design-space exploration of §IV.C rests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InfeasibleDesignError
from .ecc import ECCScheme, FractionalECC, NoECC

#: Rows per chunk of the saw-tooth peak search: a 32 MiB budget for the
#: four live ``(rows x 66)`` int64 temporaries (candidates, sector
#: sizes, utilisation, search scratch), so peak memory stays O(chunk)
#: whatever the grid size.
_SAWTOOTH_CHUNK_ROWS = (32 * 1024 * 1024) // (66 * 8 * 4)

#: Passes of the batch inverse's walk before the lanes still open go to
#: the scalar inverse.  Ordinary targets settle within a few passes.  The
#: long searches belong to targets within ~1e-9 of the supremum or out of
#: a chunky ECC scheme's reach, and there one numpy pass over a handful
#: of lanes costs about 20 scalar steps.
_WALK_PASSES = 32


@dataclass(frozen=True)
class SectorFormat:
    """The fully resolved layout of one formatted sector.

    Produced by :meth:`SectorLayout.format_sector`; all sizes in bits.
    """

    user_bits: int
    ecc_bits: int
    subsector_bits: int
    sector_bits: int
    stripe_width: int
    sync_bits_per_subsector: int

    @property
    def payload_bits(self) -> int:
        """User + ECC bits (what striping distributes over the probes)."""
        return self.user_bits + self.ecc_bits

    @property
    def sync_bits_total(self) -> int:
        """Synchronisation bits across the whole sector."""
        return self.stripe_width * self.sync_bits_per_subsector

    @property
    def padding_bits(self) -> int:
        """Bits lost to rounding the stripe up to whole subsector columns."""
        return self.sector_bits - self.payload_bits - self.sync_bits_total

    @property
    def utilisation(self) -> float:
        """Capacity utilisation ``u = Su / S`` (Equation 4)."""
        return self.user_bits / self.sector_bits


class SectorLayout:
    """Striping calculator for a probe-storage device.

    Parameters
    ----------
    stripe_width:
        Number of active probes ``K`` a sector is striped across.
    sync_bits_per_subsector:
        Synchronisation bits after each subsector (paper: 3).
    ecc:
        ECC sizing scheme; defaults to the paper's one-eighth
        :class:`~repro.formatting.ecc.FractionalECC`.
    """

    def __init__(
        self,
        stripe_width: int = 1024,
        sync_bits_per_subsector: int = 3,
        ecc: ECCScheme | None = None,
    ):
        if stripe_width <= 0:
            raise ConfigurationError("stripe_width must be > 0")
        if sync_bits_per_subsector < 0:
            raise ConfigurationError("sync_bits_per_subsector must be >= 0")
        self.stripe_width = stripe_width
        self.sync_bits_per_subsector = sync_bits_per_subsector
        self.ecc = ecc if ecc is not None else FractionalECC()

    # -- forward direction: Equations (2)-(4) -------------------------------

    def subsector_bits(self, user_bits: int) -> int:
        """Subsector size ``s`` for a sector of ``user_bits`` (Equation 2)."""
        if user_bits <= 0:
            raise ConfigurationError("user_bits must be > 0")
        payload = user_bits + self.ecc.ecc_bits(user_bits)
        return math.ceil(payload / self.stripe_width) + self.sync_bits_per_subsector

    def sector_bits(self, user_bits: int) -> int:
        """Effective stored sector size ``S = K * s`` (Equation 3)."""
        return self.stripe_width * self.subsector_bits(user_bits)

    def utilisation(self, user_bits: int) -> float:
        """Capacity utilisation ``u(Su) = Su / S`` (Equation 4)."""
        return user_bits / self.sector_bits(user_bits)

    def ecc_bits_batch(self, user_bits: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`ECCScheme.ecc_bits` over an integer array.

        Exact integer arithmetic for the built-in schemes (the paper's
        fractional model and the no-ECC baseline); any other scheme,
        subclasses of the built-in ones included (they may override
        ``ecc_bits``), falls back to a per-element loop so the batch
        path never changes an answer, only its speed.
        """
        user_bits = np.asarray(user_bits, dtype=np.int64)
        if type(self.ecc) is FractionalECC:
            num, den = self.ecc.numerator, self.ecc.denominator
            return -((-user_bits * num) // den)  # ceil for positive inputs
        if type(self.ecc) is NoECC:
            return np.zeros_like(user_bits)
        flat = np.array(
            [self.ecc.ecc_bits(int(u)) for u in user_bits.ravel()],
            dtype=np.int64,
        )
        return flat.reshape(user_bits.shape)

    def sector_bits_batch(self, user_bits: np.ndarray) -> np.ndarray:
        """Vectorised Equations (2)-(3): stored sector sizes for a grid."""
        user_bits = np.asarray(user_bits, dtype=np.int64)
        if user_bits.size and int(user_bits.min()) <= 0:
            raise ConfigurationError("user_bits must be > 0")
        payload = user_bits + self.ecc_bits_batch(user_bits)
        subsector = -((-payload) // self.stripe_width) + self.sync_bits_per_subsector
        return self.stripe_width * subsector

    def format_sector(self, user_bits: int) -> SectorFormat:
        """Resolve the complete layout for a sector of ``user_bits``."""
        ecc_bits = self.ecc.ecc_bits(user_bits)
        subsector = self.subsector_bits(user_bits)
        return SectorFormat(
            user_bits=user_bits,
            ecc_bits=ecc_bits,
            subsector_bits=subsector,
            sector_bits=self.stripe_width * subsector,
            stripe_width=self.stripe_width,
            sync_bits_per_subsector=self.sync_bits_per_subsector,
        )

    # -- envelope (smooth, ceil-free) ---------------------------------------

    def utilisation_envelope(self, user_bits: float) -> float:
        """Smooth upper-envelope approximation of ``u(Su)``.

        Drops both ceilings: ``u ~= Su / (Su * (1 + e) + c * K)`` with
        ``e`` the ECC overhead ratio and ``c`` the sync bits per subsector.
        Exact at the saw-tooth peaks when ``(Su + S_ECC)`` is a multiple of
        ``K``; an upper bound elsewhere.
        """
        if user_bits <= 0:
            raise ConfigurationError("user_bits must be > 0")
        payload = user_bits * (1.0 + self.ecc.overhead_ratio())
        return user_bits / (
            payload + self.sync_bits_per_subsector * self.stripe_width
        )

    @property
    def utilisation_supremum(self) -> float:
        """Least upper bound of ``u(Su)`` as sectors grow without bound.

        Equals ``1 / (1 + e)`` — e.g. 8/9 ~ 88.9% for one-eighth ECC.  No
        finite sector reaches it, but every target strictly below it is
        attainable.
        """
        return 1.0 / (1.0 + self.ecc.overhead_ratio())

    def best_user_bits_at_most(self, max_user_bits: int) -> int:
        """Sector size ``Su <= max_user_bits`` with the best utilisation.

        The saw-tooth means the largest admissible ``Su`` is not always
        the best one; the winner is the nearest peak (a payload size that
        exactly fills its stripe columns) at or below the cap.  Peaks
        grow essentially monotonically, so only a small window below the
        cap needs scanning.
        """
        if max_user_bits <= 0:
            raise ConfigurationError("max_user_bits must be > 0")
        candidates = {max_user_bits}
        payload_cap = max_user_bits + self.ecc.ecc_bits(max_user_bits)
        top_column = payload_cap // self.stripe_width
        for columns in range(max(1, top_column - 64), top_column + 1):
            su = self._max_user_bits_with_payload(
                columns * self.stripe_width
            )
            if 0 < su <= max_user_bits:
                candidates.add(su)
        return max(candidates, key=self.utilisation)

    def best_user_bits_at_most_batch(self, max_user_bits) -> np.ndarray:
        """Vectorised :meth:`best_user_bits_at_most` over a grid of caps.

        Evaluates the same candidate set as the scalar method — the cap
        itself plus the saw-tooth peaks of the 64 stripe columns below
        it — for every grid point at once, in chunks of
        ``_SAWTOOTH_CHUNK_ROWS`` caps.
        """
        caps = np.asarray(max_user_bits, dtype=np.int64)
        flat = caps.ravel()
        if flat.size and int(flat.min()) <= 0:
            raise ConfigurationError("max_user_bits must be > 0")
        out = np.empty(flat.shape, dtype=np.int64)
        chunk = _SAWTOOTH_CHUNK_ROWS
        for start in range(0, flat.size, chunk):
            out[start : start + chunk] = self._best_user_bits_chunk(
                flat[start : start + chunk]
            )
        return out.reshape(caps.shape)

    def _best_user_bits_chunk(self, caps: np.ndarray) -> np.ndarray:
        """One bounded chunk of :meth:`best_user_bits_at_most_batch`."""
        payload_cap = caps + self.ecc_bits_batch(caps)
        top_column = payload_cap // self.stripe_width
        offsets = np.arange(0, 65, dtype=np.int64)
        columns = np.maximum(top_column[:, None] - offsets[None, :], 1)
        su = self._max_user_bits_with_payload_batch(
            columns * self.stripe_width
        )
        valid = (su > 0) & (su <= caps[:, None])
        # The cap itself is always a candidate; invalid peaks are kept
        # in the matrix (as a harmless placeholder) and excluded from
        # the argmax by forcing their utilisation below any real one.
        candidates = np.concatenate(
            [caps[:, None], np.where(valid, su, 1)], axis=1
        )
        utilisation = candidates / self.sector_bits_batch(candidates)
        utilisation[:, 1:][~valid] = -1.0
        best = np.argmax(utilisation, axis=1)
        return candidates[np.arange(caps.size), best]

    def _max_user_bits_with_payload_batch(self, payload_capacity) -> np.ndarray:
        """Vectorised :meth:`_max_user_bits_with_payload` (int64 grids).

        Exact for the built-in ECC schemes via guess-and-correct masked
        walks (the guess is off by at most a couple of bits); any other
        scheme, as in :meth:`ecc_bits_batch`, falls back to the scalar
        search per element.
        """
        payload = np.asarray(payload_capacity, dtype=np.int64)
        flat = payload.ravel()
        if type(self.ecc) not in (FractionalECC, NoECC):
            out = np.array(
                [self._max_user_bits_with_payload(int(p)) for p in flat],
                dtype=np.int64,
            )
            return out.reshape(payload.shape)
        positive = flat > 0
        su = np.where(
            positive,
            (flat / (1.0 + self.ecc.overhead_ratio())).astype(np.int64) + 2,
            0,
        )

        def overflows(candidate: np.ndarray) -> np.ndarray:
            return candidate + self.ecc_bits_batch(candidate) > flat

        over = (su > 0) & overflows(su)
        while over.any():
            su[over] -= 1
            over = (su > 0) & overflows(su)
        fits_next = positive & ~overflows(su + 1)
        while fits_next.any():
            su[fits_next] += 1
            fits_next = positive & ~overflows(su + 1)
        return su.reshape(payload.shape)

    # -- inverse direction: minimal Su for a utilisation target -------------

    def min_user_bits_for_utilisation(self, target: float) -> int:
        """Smallest ``Su`` (bits) whose utilisation reaches ``target``.

        This is the inverse function of Equation (4) used in §IV.C: the
        capacity constraint ``C`` of a design goal translates into a minimal
        sector size, hence (via ``B >= Su``) a minimal streaming buffer.

        The saw-tooth is handled exactly: we iterate over subsector sizes
        ``s`` in increasing order; within a fixed ``s`` the utilisation
        ``Su / (K * s)`` grows linearly with ``Su`` up to the largest
        payload that still fits, so the first ``s`` admitting the target
        yields the global minimiser.

        Raises
        ------
        InfeasibleDesignError
            If ``target`` is not strictly below :attr:`utilisation_supremum`
            (or not reachable by any finite sector).
        """
        if not 0 < target <= 1:
            raise ConfigurationError(f"target must lie in (0, 1], got {target!r}")
        supremum = self.utilisation_supremum
        if target >= supremum:
            raise InfeasibleDesignError(
                f"utilisation target {target:.4f} is not below the formatting "
                f"supremum {supremum:.4f} (ECC overhead "
                f"{self.ecc.overhead_ratio():.4f})",
                constraint="capacity",
            )

        c = self.sync_bits_per_subsector
        k = self.stripe_width
        s_start = int(self._start_subsector(target))
        # The envelope also bounds how far we may have to look: utilisation
        # within a subsector class s is at most (1 - c/s)/(1 + e) + slack of
        # one payload column, so a proportional safety margin suffices.
        s_limit = max(s_start * 4 + 64, 1024)

        for s in range(max(s_start, c + 1), s_limit + 1):
            payload_capacity = k * (s - c)
            su_max = self._max_user_bits_with_payload(payload_capacity)
            if su_max <= 0:
                continue
            su_needed = math.ceil(target * k * s)
            if su_needed <= su_max:
                return su_needed
        raise InfeasibleDesignError(  # pragma: no cover - defensive
            f"no subsector size up to {s_limit} reaches utilisation "
            f"{target:.4f}; supremum is {supremum:.4f}",
            constraint="capacity",
        )

    def _start_subsector(self, target):
        """Smooth-envelope estimate of the subsector size ``target`` needs.

        The exact answer can only be >= this (ceilings never help), so
        the inverse search starts here; it is never below ``c + 1``, the
        smallest subsector with room for payload.  Works elementwise on
        arrays and returns floats holding whole numbers: the scalar
        inverse takes the ``int``, the batch inverse range-checks before
        its int64 cast.
        """
        c = self.sync_bits_per_subsector
        if c == 0:
            return np.ones_like(target, dtype=float)
        denominator = 1.0 - target * (1.0 + self.ecc.overhead_ratio())
        return np.maximum(1 + c, np.floor(c / denominator))

    def min_user_bits_for_utilisation_batch(
        self, targets: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`min_user_bits_for_utilisation` over a grid.

        Returns a float array of minimal ``Su`` values; targets at or
        above the ECC supremum — or unreachable within the scalar
        search bound, which chunky ECC schemes can produce below it —
        map to ``inf`` (infeasibility is a result on a grid, not an
        error).  Every target runs its own scalar search as one lane of
        a masked walk (:meth:`_walk_targets`), so it reaches the same
        first-admitting subsector, and the same answer bit for bit, as
        :meth:`min_user_bits_for_utilisation`.  Two kinds of target go
        through that scalar inverse one at a time instead: those so
        close to the supremum that the walk's integers would reach
        2**53, where float comparisons stop being exact, and the rare
        stragglers still open after the walk's last pass.
        """
        t = np.asarray(targets, dtype=float)
        flat = t.ravel()
        out = np.full(flat.shape, math.inf)
        if flat.size == 0:
            return out.reshape(t.shape)
        if np.any(np.isnan(flat)) or not bool((flat > 0).all()):
            raise ConfigurationError("targets must be positive")
        lanes = np.flatnonzero(flat < self.utilisation_supremum)
        start = self._start_subsector(flat[lanes])
        # Checked in float, before the walk's int64 cast can overflow.
        exact = self.stripe_width * (start + _WALK_PASSES) < 2.0**53
        stragglers = self._walk_targets(flat, lanes[exact], start[exact], out)
        for lane in np.concatenate([lanes[~exact], stragglers]):
            try:
                out[lane] = float(
                    self.min_user_bits_for_utilisation(float(flat[lane]))
                )
            except InfeasibleDesignError:
                pass
        return out.reshape(t.shape)

    def _walk_targets(
        self,
        targets: np.ndarray,
        lanes: np.ndarray,
        start: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Resolve ``targets[lanes]`` into ``out``; return the lanes left open.

        Each lane steps through the scalar search's subsector sizes from
        ``start``.  A pass computes the payload bound once per distinct
        size among the open lanes; lanes their size admits take
        ``ceil(target * k * s)``, in the scalar's operation order, and
        leave; the rest step to ``s + 1``.  The walk stops after
        ``_WALK_PASSES`` passes, well inside every scalar search bound.
        """
        c = self.sync_bits_per_subsector
        k = self.stripe_width
        scaled = targets[lanes] * k
        s = start.astype(np.int64)
        for _ in range(_WALK_PASSES):
            if not lanes.size:
                break
            sizes, size_of = np.unique(s, return_inverse=True)
            su_max = self._max_user_bits_with_payload_batch(k * (sizes - c))
            need = np.ceil(scaled * s)
            # need >= 1, so this also skips sizes with no room (su_max <= 0).
            admitted = need <= su_max[size_of]
            out[lanes[admitted]] = need[admitted]
            left = ~admitted
            lanes, scaled, s = lanes[left], scaled[left], s[left] + 1
        return lanes

    def _max_user_bits_with_payload(self, payload_capacity: int) -> int:
        """Largest ``Su`` with ``Su + ecc_bits(Su) <= payload_capacity``."""
        if payload_capacity <= 0:
            return 0
        ratio = self.ecc.overhead_ratio()
        guess = int(payload_capacity / (1.0 + ratio)) + 2
        su = guess
        while su > 0 and su + self.ecc.ecc_bits(su) > payload_capacity:
            su -= 1
        # Guard against an under-estimate of the guess (non-linear schemes).
        while (su + 1) + self.ecc.ecc_bits(su + 1) <= payload_capacity:
            su += 1
        return su
