"""Speed probe: normalises pass times for the drift of a shared core.

On a shared host a core's speed drifts by up to a third within seconds, and
every layer of a pass slows alike, so raw pass times of one workload spread
by 10-25 % across runs.  While sampling, a SIGALRM handler runs a fixed
reference kernel every ``INTERVAL_S`` of wall time and records when it
started and how long it took.  The kernel mimics what the workloads spend
their time on: one training step at its working-set size (a 2400-row
forward and backward through 10 -> 64 -> 64 tanh layers, ``math.fsum`` over
32 window-length Python lists) and a 400-row CSV write and parse, which
keeps string-heavy corpus I/O tracked as well as training.  It uses numpy
and the standard library only, so no package change can alter it.

``measure`` turns a pass into reference units: its wall time minus the probe
time inside it, over the mean probe time.  The drift cancels because probe
and pass run interleaved on the same core.  Work spread over other
processes runs beside the probe rather than interleaved with it, so for
such changes read the probe-free wall time (``bench.wall_s``) as well.
"""

from __future__ import annotations

import csv
import io
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class SpeedProbe:
    INTERVAL_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((2400, 10))
        self.w1 = rng.standard_normal((10, 64)) * 0.3
        self.w2 = rng.standard_normal((64, 64)) * 0.1
        self.rows = rng.standard_normal((400, 11)).tolist()
        self.samples: list[tuple[float, float]] = []
        self._tracer = None
        self.kernel()

    def kernel(self) -> float:
        x, w1, w2 = self.x, self.w1, self.w2
        t0 = _clock()
        h = np.tanh(x @ w1)
        a = np.tanh(h @ w2)
        d = 1.0 - a * a
        d.T @ h
        ((d @ w2.T) * (1.0 - h * h)).T @ x
        for k in range(32):
            seg = a[k * 75 : (k + 1) * 75, 0]
            math.fsum(seg.tolist())
            math.fsum((seg * seg).tolist())
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.rows:
            writer.writerow([f"{v:.6f}" for v in row])
        np.array([[float(t) for t in row] for row in csv.reader(io.StringIO(buf.getvalue()))])
        return _clock() - t0

    def _on_alarm(self, signum, frame):
        start = _clock()
        took = self.kernel()
        self.samples.append((start, took))
        if self._tracer is not None:
            self._tracer.exclude(took)

    @contextmanager
    def sampling(self, tracer=None):
        """Sample during the block; probe time is charged to ``tracer``'s
        innermost open span so that span self times exclude it."""
        self.samples = []
        self._tracer = tracer
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tracer = None

    def measure(self, res) -> None:
        """Set ``res.net_s`` (wall minus probe time) and ``res.ref``."""
        inside = [d for t, d in self.samples if res.started <= t < res.ended]
        res.net_s = res.wall_s - sum(inside)
        mean = statistics.mean(inside) if inside else self.kernel()
        res.ref = res.net_s / mean
