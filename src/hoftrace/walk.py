"""One full trace Tr H**n per site, from the momentum-ring half-walk in pure Python.

This is the walk of ``oracle.walk_trace_table`` for a single order, without
NumPy: Tr H**(2t) is the mean over the M = max(2t+1, MIN_MOMENTA) momenta
k = 2*pi*j/M of ||A_k**t e0||**2, where A_k = 2cos(gamma*y - k) + (lam/2)
(shift up + shift down) is the 1-D almost Mathieu operator of column k.
Each column walks on its own, as a list of its 2t+1 active heights, and
only its final squares are kept; the ring's M column norms are summed once,
with ``math.fsum``.  Column M-j is column j mirrored in y (its potential is
2cos(gamma*(-y) - k)), and e0 is its own mirror image, so the two norms are
equal and only the columns j <= M//2 walk.  The table walks every column in
one array and is the reference this single-order walk is tested against;
the two agree to a few rounding units, not bit for bit.  A cold
``hoftrace trace --n`` runs this module alone, so it imports nothing beyond
``math`` and ``core``.
"""

from __future__ import annotations

import math

from .core import Flux, check_coupling

# momenta on the walk's ring: 2t+1 = 65 suffices for every n <= 64, and one
# grid for all of them makes a table entry independent of n_max and a single
# order walk the same ring as the table
MIN_MOMENTA = 65


def _column_states(potential: list[float], half: float, steps: int):
    """A_k**t e0 for t = 1..steps, each over heights -t..t; potential spans -steps..steps."""
    cur = [1.0]
    for t in range(1, steps + 1):
        padded = [0.0, 0.0, *cur, 0.0, 0.0]
        cur = [
            (below + above) * half + pot * here
            for below, here, above, pot in zip(
                padded, padded[1:], padded[2:], potential[steps - t:steps + t + 1]
            )
        ]
        yield cur


def _squares(state: list[float]) -> float:
    return sum([v * v for v in state])


def _final_squares(potential: list[float], half: float, steps: int) -> float:
    for state in _column_states(potential, half, steps):
        pass
    return _squares(state)


def _ring_sum(half_ring: list[float]) -> float:
    """The fsum of all M columns' squared norms, given those of columns 0..M//2.

    Each column but the first stands for its mirror image too.  Returns inf
    where the sum leaves the float range.
    """
    try:
        return math.fsum([half_ring[0], *(2.0 * norm for norm in half_ring[1:])])
    except OverflowError:  # fsum raises where a finite partial sum overflows
        return math.inf


def walk_trace(flux: Flux, lam: float, n: int) -> float:
    """Tr H**n per site: the mean over the ring's momenta of ||A_k**(n/2) e0||**2.

    Odd orders vanish (closed walks on the square lattice have even length)
    and are exactly 0.0; order 0 is 1.0.  Raises OverflowError naming the
    first even order whose ring sum leaves the float range, as the table does.
    """
    check_coupling(lam)
    if n < 0:
        raise ValueError(f"walk length must be nonnegative, got {n}")
    if n % 2:
        return 0.0
    steps = n // 2
    if steps == 0:
        return 1.0
    ring = max(2 * steps + 1, MIN_MOMENTA)
    half = lam / 2.0
    heights = range(-steps, steps + 1)
    potentials = [
        [2.0 * math.cos(flux.gamma * y - 2.0 * math.pi * j / ring) for y in heights]
        for j in range(ring // 2 + 1)
    ]
    total = _ring_sum([_final_squares(potential, half, steps) for potential in potentials])
    if math.isfinite(total):
        return total / ring
    # the exact ring sums grow with t (Tr H**(2t+2) >= 2 Tr H**(2t)), so the
    # first one that is not finite is where the float range ends
    per_step = [[_squares(s) for s in _column_states(p, half, steps)] for p in potentials]
    first = next(
        t for t in range(1, steps + 1)
        if not math.isfinite(_ring_sum([norms[t - 1] for norms in per_step]))
    )
    raise OverflowError(f"Tr H^{2 * first} exceeds the float range at lambda {lam}")
