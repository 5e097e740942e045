"""CPU-speed probe that runs beside the benchmark.

On a shared host the speed of one core drifts by tens of percent over a
few seconds (frequency scaling, neighbours on sibling hyperthreads), in
step across cores.  Every few milliseconds this process times a fixed
pure-Python loop in *CPU* time — scheduling waits are not counted, only
how fast the core ran — and appends
``<monotonic time> <cpu seconds> <stolen ticks> <busy ticks>`` to a file.
The last two are the host's cumulative steal and busy (non-idle,
steal included) ticks from ``/proc/stat``: time a virtual CPU wanted to
run while the hypervisor ran another guest, which the loop's CPU time
cannot see but every wall-clock latency includes.  Both read 0 where
``/proc/stat`` does not exist.  ``perfbench/run.py`` scales each measured
time by the probe over the same interval, so two runs on the same host
compare at the same reference speed.  The probe uses about 2% of one core.

Usage: ``python3 perfbench/calibrate.py OUTPUT_FILE`` (stopped by SIGTERM).
"""

import signal
import sys
import time

#: Loop iterations per probe; about half a millisecond of CPU.
CHUNK = 10_000
#: Pause between probes.
PERIOD_SECONDS = 0.025


def probe() -> float:
    started = time.thread_time()
    total = 0
    for value in range(CHUNK):
        total += value
    return time.thread_time() - started


def cpu_ticks() -> tuple:
    """Cumulative (steal, busy) ticks of all CPUs, busy including steal."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal ...
    steal = fields[7] if len(fields) > 7 else 0
    busy = sum(fields[:8]) - fields[3] - fields[4]
    return steal, busy


def main(path: str) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while True:
            cpu = probe()
            steal, busy = cpu_ticks()
            out.write(f"{time.monotonic():.6f} {cpu:.9f} {steal} {busy}\n")
            time.sleep(PERIOD_SECONDS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
