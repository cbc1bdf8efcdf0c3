"""Host speed probe: a fixed slice of interpreter work, timed between answers.

The benchmark runs on a few cores of a shared host whose speed drifts: an
identical catalog round has taken 1.3 s and 2.6 s within two minutes of
one run, on the same process and with no steal time accounted, so every
instruction ran slower.  Such drift lasts for minutes, longer than a run,
and no amount of work in one run averages it out.

`probe()` times a fixed slice of work of the kind the library does --
build an expression tree, differentiate it, compile it to nested closures,
evaluate them on floats, and a few small numpy operations -- in about
2 ms.  It imports nothing from `dodesym`, so no change to the library can
change the probe.  The runner times probes before every request of a
round and scales that round's times by

    speed = NOMINAL_PROBE_S / (mean probe time of the round)

so that a time reads as it would on a host where the probe takes
NOMINAL_PROBE_S.  A request is preceded by one probe per PROBE_EVERY_S
of the previous request's time, and at least one, so that even a round of
a few long answers has enough probes for a steady mean.  Over three
minutes of one run, the round time and the round's probe time moved
together (correlation 0.90); the scaled round time varied about half as
much as the raw one.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: A typical probe time between requests on a 2-vCPU Xeon host with
#: Python 3.11 (a probe run on its own, with warm caches, takes 2.3 ms), so
#: that scaled times read close to wall-clock times on such a host.
NOMINAL_PROBE_S = 3.5e-3

#: Seconds of request time per probe.
PROBE_EVERY_S = 0.05


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        self.op, self.a, self.b = op, a, b


def _build(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("x") if k % 3 else _Node("c", float(k % 7) + 0.5)
    op = ("+", "*", "sin")[k % 3]
    if op == "sin":
        return _Node(op, _build(depth - 1, 7 * k + 1))
    return _Node(op, _build(depth - 1, 3 * k + 1), _build(depth - 1, 5 * k + 2))


def _diff(n: _Node) -> _Node:
    if n.op == "x":
        return _Node("c", 1.0)
    if n.op == "c":
        return _Node("c", 0.0)
    if n.op == "+":
        return _Node("+", _diff(n.a), _diff(n.b))
    if n.op == "*":
        return _Node("+", _Node("*", _diff(n.a), n.b),
                     _Node("*", n.a, _diff(n.b)))
    return _Node("*", _Node("cos", n.a), _diff(n.a))


def _compile(n: _Node):
    if n.op == "x":
        return lambda x: x
    if n.op == "c":
        v = n.a
        return lambda x: v
    if n.op in ("+", "*"):
        f, g = _compile(n.a), _compile(n.b)
        if n.op == "+":
            return lambda x: f(x) + g(x)
        return lambda x: f(x) * g(x)
    f = _compile(n.a)
    if n.op == "sin":
        return lambda x: math.sin(f(x))
    return lambda x: math.cos(f(x))


def _work() -> float:
    fn = _compile(_diff(_build(6, 1)))
    s = 0.0
    for i in range(40):
        s += fn(0.01 * i)
    y = np.linspace(0.0, 1.0, 64)
    for _ in range(20):
        y = np.sin(y) * 0.5 + y * 0.5
    return s + float(y[-1])


#: The probe's result, fixed by its code; a probe that computes anything
#: else did other work than the one NOMINAL_PROBE_S was measured on.
EXPECTED = _work()


def probe() -> float:
    """Seconds one fixed slice of work takes now."""
    t0 = time.perf_counter()
    out = _work()
    dt = time.perf_counter() - t0
    if out != EXPECTED:
        raise RuntimeError(f"probe computed {out!r}, expected {EXPECTED!r}")
    return dt


def speed(probe_times: list[float]) -> float:
    """Host speed relative to nominal, above 1 when the host is fast.

    It uses the mean probe time with the fastest and the slowest tenth of
    the probes left out: an interrupt can stretch a single probe
    several-fold, but the slow spells that stretch a few probes stretch
    the requests between them too.
    """
    times = sorted(probe_times)
    cut = len(times) // 10
    return NOMINAL_PROBE_S / statistics.fmean(times[cut:len(times) - cut])
