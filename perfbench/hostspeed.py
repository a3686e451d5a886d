"""Host-speed probe: fixed kernels timed around and between passes.

The shared host runs the same pass up to twice as slow for seconds at a
time, and its speed drifts over hours, so the median wall time of a run
moves with the host rather than with the program. A probe times a fixed
kernel that does the kind of work the workload does, several times, and
keeps the median. The kernels use no code of the program, so a change to
the program cannot move them. A pass's wall time divided by the median
probe around and inside it is the pass's cost in probe units; the
kernels' reference times turn it back into seconds on a host as fast as
the one the benchmark was pinned on. The scaling is done piece by piece:
the program's time between two probes is divided by the mean of those two,
so that a long pass whose host slows down half way is scaled by the speed
each part of it ran at.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# typical time of one run of each kernel on the host the benchmark was
# pinned on (2 vCPUs of an Intel Xeon under KVM); constants, so scaled
# times stay comparable across commits and hosts
REFERENCE_S = {"sim": 0.0028, "arrays": 0.0022, "scalar": 0.0021, "small": 0.0022}
REPEATS = 5        # kernel runs per probe
INTERVAL_S = 0.5   # least time between probes inside a pass


class _Memo:
    """A table of traces of matrix powers, extended on demand."""

    def __init__(self, A):
        self.A = A
        self.power = np.eye(A.shape[0])
        self.values = [0.0]

    def w(self, n):
        while len(self.values) <= n:
            self.values.append(self.values[-1] + float(np.trace(self.power.T @ self.power)))
            self.power = self.A @ self.power
        return self.values[n]

    def c(self, n):
        return self.w(n) * n


class _Kernels:
    """The probe's kernels and their fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(20230316)
        self.cost = rng.random((3, 256)).cumsum(axis=1)
        self.small = rng.random(300)
        self.small_idx = rng.integers(0, 300, 300)
        self.small_out = np.zeros(300)
        self.big = rng.random(20000)
        self.big_idx = rng.integers(0, 64, 20000)
        self.big_out = np.zeros(64)
        self.pair = np.array([[0.9, 0.1], [0.0, 0.8]])

    def sim(self, N=60, T=60, C=15):
        """A capacity-projected AoI step loop on small arrays, like `sim`."""
        rng = np.random.default_rng(11)
        tau = np.zeros(N, dtype=np.int64)
        hist = np.zeros(512, dtype=np.int64)
        kind = np.arange(N) % 3
        klow = np.array([2, 3, 4])[kind]
        total = 0.0
        for _ in range(T):
            coins, draws = rng.random(N), rng.random(N)
            intents = (tau >= klow) | ((tau == klow - 1) & (coins < 0.3))
            idx = np.flatnonzero(intents)
            if idx.size > C:
                zeta = np.zeros(N, dtype=bool)
                zeta[idx[np.argsort(-tau[idx], kind="stable")[:C]]] = True
            else:
                zeta = intents
            total += float(self.cost[kind, np.minimum(tau, 255)].sum())
            total += int(np.count_nonzero(zeta)) + int(tau.max())
            np.add.at(hist, np.minimum(tau, 511), 1)
            tau = np.where(zeta & (draws >= 0.2), 0, tau + 1)
        return total

    def arrays(self):
        """Sorts, scatters and gathers on 20000-element arrays."""
        for _ in range(3):
            order = np.argsort(self.big)
            np.add.at(self.big_out, self.big_idx, self.big)
            scaled = self.big[order] * 2.0
        return float(scaled[0])

    def scalar(self):
        """Method calls on a memoized table and 2x2 matrix products, like
        the solvers' series."""
        table = _Memo(self.pair)
        acc, term = 0.0, 1.0
        for r in range(1500):
            acc += table.c(r % 150) * term
            term = term * 0.999 if term > 1e-9 else 1.0
        return acc

    def small_ops(self):
        """Many short NumPy calls on 300-element arrays and a dict."""
        table = {}
        for i in range(120):
            order = np.argsort(self.small, kind="stable")
            np.add.at(self.small_out, self.small_idx, self.small)
            table[i % 20] = float((self.small[order] * 2.0 + self.small_out)[i % 300])
        return sum(table.values())


class HostSpeed:
    def __init__(self, kernels=("sim",)):
        fns = _Kernels()
        names = {"sim": fns.sim, "arrays": fns.arrays, "scalar": fns.scalar,
                 "small": fns.small_ops}
        self.kernels = [names[k] for k in kernels]
        self.reference_s = sum(REFERENCE_S[k] for k in kernels)
        self.samples = []     # probe times, s
        self.last = -float("inf")
        self.scaled_s = 0.0   # program time since `restart`, scaled, s

    def restart(self) -> None:
        """Probe, and scale the program's time from here on."""
        self.probe()
        self.scaled_s = 0.0

    def probe(self) -> float:
        """Time the kernels `REPEATS` times and keep the median, which drops
        one-off interruptions but not a slow spell; adds the program's time
        since the last probe, scaled, to `scaled_s`. Returns the probe's
        whole time."""
        start = time.perf_counter()
        worked = start - self.last
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for kernel in self.kernels:
                kernel()
            runs.append(time.perf_counter() - t0)
        self.last = time.perf_counter()
        self.samples.append(statistics.median(runs))
        if len(self.samples) > 1:
            speed = (self.samples[-2] + self.samples[-1]) / 2
            self.scaled_s += self.reference_s * worked / speed
        return self.last - start

    def maybe_probe(self) -> float:
        """Probe if `INTERVAL_S` has passed since the last probe; returns its time."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            return self.probe()
        return 0.0
