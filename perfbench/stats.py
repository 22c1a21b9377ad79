"""Percentiles, directory sizes, and process-tree memory and shutdown read
from /proc (psutil is not a dependency of the repository)."""

from __future__ import annotations

import math
import os
import select
import signal
import subprocess
import sys
import time

# Percentile ladder for the tail metric: the highest rung that leaves at
# least MIN_BEYOND samples above it is reported.  Workloads cap the rung and
# run until they have the samples it needs, so it does not change between
# runs with the host's speed.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail(samples: list[float], top: float = TAIL_LADDER[0]) -> tuple[float, float]:
    """(p, value): the highest percentile of TAIL_LADDER, at most ``top``,
    with at least MIN_BEYOND samples ranked beyond it.  With too few samples
    for any rung the maximum is returned as p=100."""
    vals = sorted(samples)
    n = len(vals)
    if n == 0:
        raise ValueError("tail() of an empty sample")
    for p in (q for q in TAIL_LADDER if q <= top):
        rank = math.ceil(p / 100.0 * n - 1e-9)
        if n - rank >= MIN_BEYOND:
            return p, vals[rank - 1]
    return 100.0, vals[-1]


def dir_bytes(d: str) -> int:
    return sum(os.path.getsize(os.path.join(dp, f)) for dp, _, fs in os.walk(d) for f in fs)


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command field may hold spaces: ppid is the 2nd field after ')'
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(root: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, stack = set(), [root]
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory:
    """Peak summed VmRSS of this process and all its descendants (the Ray
    processes it started).  A child process (this file run as a script)
    walks /proc every ``interval_s``, so the walks never take the timed
    process's GIL; ``stop()`` closes its stdin, and it takes a last sample,
    prints the peak and exits."""

    def __init__(self, interval_s: float = 1.0):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid()), str(self.interval_s)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    @property
    def sampler_pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def stop(self) -> None:
        if self._proc is not None:
            out, _ = self._proc.communicate(timeout=60)
            self.peak_kb = max(self.peak_kb, int(out.split()[-1]))
            self._proc = None

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _sample_tree(root: int, skip: int) -> int:
    tree = (descendants(root) | {root}) - {skip}
    return sum(_rss_kb(p) for p in tree)


def _sampler_main(root: int, interval_s: float) -> None:
    """Samples the tree under ``root`` until stdin closes, then prints the
    peak in kB."""
    me, peak = os.getpid(), 0
    while True:
        peak = max(peak, _sample_tree(root, me))
        if select.select([sys.stdin], [], [], interval_s)[0] and not sys.stdin.read(1):
            break
    peak = max(peak, _sample_tree(root, me))
    print(peak, flush=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _wait(pids: set[int], timeout_s: float) -> set[int]:
    deadline = time.monotonic() + timeout_s
    while True:
        _reap_children()
        left = {p for p in pids if _alive(p)}
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.1)


def wait_gone(pids: set[int], timeout_s: float = 30.0) -> set[int]:
    """Waits until every pid has exited; SIGKILLs those that outlive the
    timeout and waits again.  Returns the pids that never exited."""
    left = _wait(pids, timeout_s)
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    return _wait(left, timeout_s)


if __name__ == "__main__":
    _sampler_main(int(sys.argv[1]), float(sys.argv[2]))
