"""A fixed pure-Python loop that samples the host's speed.

The host the benchmark runs on is shared.  Its speed switches between a
fast and a slow state (about 1.4x apart) every few seconds, and the share
of time in each drifts over minutes.  The switches slow this loop and the
simulator alike, so a pass time scaled by loop samples taken all through
a run no longer carries the drift.  See README.md, "Host speed".

    python3 perfbench/reference.py 16   # prints 16 samples as a JSON list
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

#: Median seconds of one sample on the host the bounds were set on, in
#: its fast state.  Pass times are scaled to that host speed.
REFERENCE_LOOP_S = 0.015


def reference_loop(samples: int = 2) -> list[float]:
    """Seconds of each of ``samples`` runs of the loop, in this process."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise SystemExit("a trace or profile hook is installed: the reference loop is off")
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        x = 0
        for k in range(200_000):
            x += k * k % 7
        out.append(time.perf_counter() - t0)
    return out


def parallel_samples(processes: int, samples: int) -> list[float]:
    """Samples from ``processes`` fresh interpreters running the loop at once.

    A sweep's workers keep every CPU busy, so its speed is the speed of
    all of them; one loop per worker samples each.
    """
    procs = [
        subprocess.Popen([sys.executable, __file__, str(samples)],
                         stdout=subprocess.PIPE, text=True)
        for _ in range(processes)
    ]
    out = []
    try:
        for proc in procs:
            stdout, _ = proc.communicate(timeout=60)
            if proc.returncode != 0:
                raise SystemExit(f"reference loop exited {proc.returncode}")
            out += json.loads(stdout)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return out


if __name__ == "__main__":
    print(json.dumps(reference_loop(int(sys.argv[1]))))
