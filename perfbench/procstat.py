"""Process-tree accounting from /proc (psutil is not available).

The Ray process tree of a local session is the driver and everything
it started: GCS, raylet and the worker processes under the raylet.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int):
    with open(f"/proc/{pid}/stat", "rb") as f:
        raw = f.read().decode("ascii", "replace")
    # comm may contain spaces and parentheses: split after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> list:
    """``root`` and every live process below it."""
    children: dict = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(name))[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu(root: int) -> dict:
    """pid → utime+stime in seconds, for ``root`` and its live descendants."""
    out = {}
    for pid in descendants(root):
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        out[pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def cpu_delta(before: dict, after: dict, pids=None) -> float:
    """CPU seconds spent between two snapshots; a process born in
    between counts from zero. ``pids`` restricts the sum."""
    keys = after.keys() if pids is None else (set(after) & set(pids))
    return sum(after[p] - before.get(p, 0.0) for p in keys)


def is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    # workers retitle themselves "ray::<task or actor>"
    return cmd.startswith(b"ray::")


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
