"""Time operations at a reference speed of the host.

The host's speed drifts by a fifth within seconds and over minutes, more
than any run can average away.  ``calibrate`` times a fixed piece of work
next to each timed operation, and ``scaled`` gives the operation's time on
a host on which that work takes exactly ``REF_S``.  The work shares no code
with sigbounds, so a change to the program moves scaled times as it moves
wall times.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the median time of ``calibrate`` between operations on a 2-core
# 2.1 GHz Xeon VM, so that scaled times read close to wall times there.
REF_S = 0.0014


def _step(state: int, letter: int) -> int:
    return (state * 3 + letter) % 53


def calibrate(rounds: int = 400) -> float:
    """Seconds this interpreter takes, now, for a fixed piece of pure-Python
    work (1.2 to 2 ms on a 2.1 GHz Xeon).

    The work is of the kind the program's own loops do: calls, dict and set
    updates and a sort.  The garbage collector is off meanwhile, so that the
    time does not depend on how many objects the program holds.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    seen: dict = {}
    states: set = set()
    for r in range(rounds):
        state = r
        for letter in (0, 1, 2, 1, 0, 2, 2, 1):
            state = _step(state, letter)
            seen[state] = seen.get(state, 0) + letter
            states.add(state)
        sorted(states)
    elapsed = perf_counter() - t0
    if gc_was_enabled:
        gc.enable()
    return elapsed


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the reference speed, given the
    calibrations run just before and just after it."""
    return seconds * REF_S * 2 / (before + after)
