"""Cold start: fresh interpreters that import the package and answer one
command-line call, run one at a time.

Every time here is CPU time of the child interpreter, so time spent waiting
for a processor held by other work on the machine does not count.  After
answering, the child runs the calibration kernel of `calibrate.py` a few
times, and its times are scaled by the kernel's, to the reference host
speed, from the same process on the same stretch of the host."""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import calibrate

ARGV = ["decompose", "0", "1", "0", "0", "0", "-1", "0"]  # x y (x^4 - y^4): N = 6
EXPECTED_N = 6
TIMEOUT_S = 60
KERNELS = 10  # calibration kernel runs in each child

# process_time() counts CPU time from the start of the process, so t2 is the
# whole cold start: interpreter start-up, the import and the first call.
_CHILD = """
import time
t0 = time.process_time()
import twocubes
from twocubes import cli
t1 = time.process_time()
import contextlib, io, json
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main({argv!r})
t2 = time.process_time()
import calibrate
kernels = [calibrate.time_kernel() for _ in range({kernels})]
print(json.dumps({{"file": twocubes.__file__, "rc": rc, "out": out.getvalue(),
                  "setup_s": t2, "import_s": t1 - t0, "first_call_s": t2 - t1,
                  "kernels": kernels}}))
"""


def fresh_call(src_dir: str) -> dict:
    """One fresh interpreter; returns its CPU time up to its answer and its
    import and first-call times, scaled to the reference host speed.
    Raises RuntimeError on a wrong answer, or when the package did not come
    from `src_dir`."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, here]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD.format(argv=ARGV, kernels=KERNELS)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start child failed: {proc.stderr.strip()}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(child["file"]).startswith(os.path.abspath(src_dir) + os.sep):
        raise RuntimeError(f"twocubes imported from {child['file']}, not from {src_dir}")
    if child["rc"] != 0 or json.loads(child["out"])["N"] != EXPECTED_N:
        raise RuntimeError(f"cold-start call answered wrongly: {child['out']!r}")
    f = calibrate.REFERENCE_S / statistics.fmean(child["kernels"])
    return {key: child[key] * f for key in ("setup_s", "import_s", "first_call_s")}


class ColdStarts:
    """`repeats` fresh interpreters, started one at a time: one from each
    call of `between()` (between two passes of a workload, so they sample
    the whole run), the rest in `finish()`.  An unmeasured first call
    leaves the byte-code cache warm."""

    def __init__(self, src_dir: str, repeats: int):
        self.src_dir = src_dir
        self.repeats = repeats
        self.runs = []
        fresh_call(src_dir)

    def between(self):
        if len(self.runs) < self.repeats:
            self.runs.append(fresh_call(self.src_dir))

    def finish(self) -> dict:
        """Medians of the whole start, the import and the first call."""
        while len(self.runs) < self.repeats:
            self.between()
        return {key: statistics.median(r[key] for r in self.runs) for key in self.runs[0]}
