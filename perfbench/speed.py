"""Host speed reference: a fixed kernel timed between the measured phases.

The reference sandbox is a 2-vCPU virtual machine on a shared host.  The
speed of one vCPU drifts by up to 2x over seconds to minutes, in process CPU
time as much as in wall time, and the two vCPUs drift independently.  Raw
wall times of identical work therefore spread by 30-40% between runs, which
no statistic taken inside one run removes.

This module times a fixed kernel that never touches ramdqn: a Python loop,
small float32 matmuls and the per-offset einsum that a strided convolution
makes, the same kinds of work a DQN training step does.  The worker times it
just before and just after each phase it measures, and scales the phase's
time by `REFERENCE_S` over the mean of those two kernel times.  A scaled
time is the time the phase would take on a host where the kernel takes
`REFERENCE_S` seconds.  A change to ramdqn moves the phase time and not the
kernel, so it moves a scaled time by the same share as a raw one.
"""

import statistics
import time

import numpy as np

# Median kernel time on the reference sandbox in its faster periods.  It is
# a fixed unit, not a calibration: changing it rescales every scaled time.
REFERENCE_S = 0.0045
REPEATS = 3  # kernel calls per measurement; their median resists interrupts

_rng = np.random.default_rng(20130)
_X = _rng.standard_normal((32, 96)).astype(np.float32)
_W = _rng.standard_normal((96, 96)).astype(np.float32)
_IMG = _rng.standard_normal((24, 4, 20, 20)).astype(np.float32)
_K = _rng.standard_normal((8, 4, 4, 4)).astype(np.float32)


def kernel():
    acc = 0.0
    for i in range(300):
        h = np.maximum(_X @ _W, 0.0)
        acc += float(h[i % 32, i % 96])
        item = {"step": i, "pair": (i, i + 1)}
        acc += item["pair"][1] - item["step"]
    out = np.zeros((24, 8, 9, 9), dtype=np.float32)
    for di in range(4):
        for dj in range(4):
            out += np.einsum("fc,bchw->bfhw", _K[:, :, di, dj],
                             _IMG[:, :, di:di + 17:2, dj:dj + 17:2])
    return acc + float(out[0, 0, 0, 0])


def measure():
    """Seconds one kernel call takes now: the median of `REPEATS` calls."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times phases and scales each by the kernel times on either side of it.

    `lap()` measures the kernel and returns the raw and the scaled seconds
    since the previous lap; kernel time is in neither.
    """

    def __init__(self):
        self.ref_s = [measure()]
        self.t = time.perf_counter()

    def lap(self):
        raw = time.perf_counter() - self.t
        self.ref_s.append(measure())
        self.t = time.perf_counter()
        return raw, raw * REFERENCE_S / ((self.ref_s[-2] + self.ref_s[-1]) / 2)

    def skip(self):
        """Restart the phase timer without measuring, for untimed work."""
        self.t = time.perf_counter()

    def speed_index(self):
        """Median kernel speed relative to the reference: 1 at REFERENCE_S,
        below 1 on a slower host."""
        return REFERENCE_S / statistics.median(self.ref_s)
