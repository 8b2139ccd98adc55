"""Host speed, measured while the benchmarked program is stopped.

On a shared host each virtual CPU switches between a fast and a slow
speed about 1.45x apart, and holds either for seconds to tens of
seconds: over one minute a fixed kernel timed once a second on each of
two vCPUs (2.1 GHz Xeon) read either ~0.57 or ~0.83 ms, and the two
CPUs switched independently (correlation -0.39).  Timed as measured,
ten 18-second runs of the same engine loop spread by a third
(quartile distance over median), because each measured whichever
speed its CPU happened to have.

So the benchmark quotes every operation's time at a nominal host
speed: it multiplies it by ``NOMINAL_PROBE_MS / probe``, where
``probe`` is the median of the last ``WINDOW`` timings of a fixed
pure-Python kernel (a dict fill and a sort, no ``repro`` code) on the
CPU the operation runs on, taken before it (every few operations).
With it, those runs' latencies spread by 0.04-0.10 instead.

The kernel runs in this separate process, and while it runs every
process of the program -- the query process, and the daemon when
there is one -- is stopped with ``SIGSTOP``.  No thread of the program
can run beside the kernel, compete with it for the CPU or the
interpreter lock, or leave work queued for it, so no change to the
program, a spinning thread included, moves the probe.  A probe on the
other CPU would not do: the two CPUs' speeds are uncorrelated.

Protocol (one line each way): the pids to stop, ``<pid>[,<pid>...]``,
in; the kernel's median milliseconds on the prober's CPU out.
"""

from __future__ import annotations

import collections
import os
import signal
import statistics
import subprocess
import sys
import time

#: what the kernel takes, in ms, at the host speed times are quoted at
NOMINAL_PROBE_MS = 1.0
#: probes a scale factor is the median of
WINDOW = 5
#: kernel timings per probe per CPU (the first warms the caches)
KERNEL_REPEATS = 3

_GRADES = [((i * 7919) % 5003) / 5003 for i in range(5000)]


def kernel_ms() -> float:
    start = time.perf_counter()
    table = {}
    for i, grade in enumerate(_GRADES):
        table[i] = grade * 2.0
    sorted(_GRADES)
    return (time.perf_counter() - start) * 1e3


def _stopped(pid: int) -> bool:
    """Whether every thread of ``pid`` is stopped."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as stat:
                raw = stat.read()
        except FileNotFoundError:  # the thread just exited
            continue
        if raw[raw.rindex(")") + 2] not in "tT":
            return False
    return True


def probe(pids: list[int]) -> float:
    """Stop ``pids``, time the kernel on this process's CPU, resume."""
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        deadline = time.monotonic() + 1.0
        while not all(_stopped(pid) for pid in pids):
            if time.monotonic() > deadline:
                break
            time.sleep(0.0001)
        return statistics.median(kernel_ms() for _ in range(KERNEL_REPEATS))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)


def main() -> int:
    for line in sys.stdin:
        print(f"{probe([int(v) for v in line.split(',')]):.6f}", flush=True)
    return 0


class HostSpeed:
    """The client side: a prober process on ``cpu``, the CPU the
    program's work runs on, and scale factors from it.  ``pids`` are
    every process of the program, this one included, all stopped while
    the kernel runs.
    """

    def __init__(self, cpu: int, pids: list[int]):
        import common

        self._request = ",".join(map(str, pids)) + "\n"
        self._proc = common.spawn(
            [sys.executable, __file__],
            cpu=cpu,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._recent: collections.deque[float] = collections.deque(maxlen=WINDOW)
        self.factors: list[float] = []

    def sample(self) -> None:
        """Probe now (call it just before the operation it scales)."""
        self._proc.stdin.write(self._request)
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the host-speed prober exited")
        self._recent.append(float(reply))

    def factor(self) -> float:
        """Multiply a time measured since the last sample by this to
        quote it at nominal host speed."""
        factor = NOMINAL_PROBE_MS / statistics.median(self._recent)
        self.factors.append(factor)
        return factor

    def close(self) -> None:
        import common

        common.stop(self._proc)

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    raise SystemExit(main())
