#!/usr/bin/env python3
"""CPU-time overhead gate for one instrumentation feature.

Usage: python3 ci/overhead_gate.py <label> <on argv...> -- <off argv...>

Runs the feature-on command once to warm the page cache and branch
predictors, then runs the on and off commands alternately SAMPLES times
each, and fails if min(on) / min(off) exceeds BOUND. Each sample is the
child's user + system CPU time from wait4: CPU time dodges scheduler
jitter on shared runners, and the minimum is the noise-robust estimator.

Give both arms byte-identical argv shapes. The length of argv and env
shifts the initial process layout, and the resulting page-fault delta
can dwarf a cheap feature. Make each arm long: with arms of 0.15-0.3 s
of CPU, a few ms of cache or frequency noise in one minimum moves the
ratio by several percent.
"""
import os
import sys

SAMPLES = 5
BOUND = 1.05


def cpu(cmd):
    pid = os.fork()
    if pid == 0:
        try:
            fd = os.open(os.devnull, os.O_WRONLY)
            os.dup2(fd, 1)
            os.execv(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, f"{cmd} failed"
    return ru.ru_utime + ru.ru_stime


def main(argv):
    usage = "usage: overhead_gate.py <label> <on argv...> -- <off argv...>"
    assert len(argv) >= 1 and "--" in argv, usage
    label, rest = argv[0], argv[1:]
    split = rest.index("--")
    on, off = rest[:split], rest[split + 1 :]
    assert on and off, usage
    cpu(on)
    ons, offs = [], []
    for _ in range(SAMPLES):
        ons.append(cpu(on))
        offs.append(cpu(off))
    ratio = min(ons) / max(min(offs), 1e-9)
    print(f"{label} overhead: on={min(ons):.3f}s off={min(offs):.3f}s cpu ratio={ratio:.3f}")
    assert ratio <= BOUND, f"{label} overhead above {BOUND - 1:.0%}: {ratio:.3f}"


if __name__ == "__main__":
    main(sys.argv[1:])
