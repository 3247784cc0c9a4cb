"""A fresh batch process: set up, compress one job, then keep working.

Usage: ``python perfbench/cold_start.py JOB.npy`` with the staged program
on PYTHONPATH.  Prints ``ready <seconds>`` once ``repro`` is imported and
the CAMEO engine is constructed (the fleet's set-up time, measured from
inside the process), then ``result`` after the job's first compression.
It then compresses the job again and again until it is killed, so the
benchmark can SIGKILL it mid-job and time the restart.
"""

import sys
import time
from pathlib import Path

started = time.perf_counter()
# Run as a script, sys.path[0] is this directory: keep its modules from
# shadowing anything the program imports.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from repro.engine import BatchEngine  # noqa: E402

engine = BatchEngine("cameo", backend="serial",
                     codec_options={"max_lag": 24, "epsilon": 0.01})
print("ready", time.perf_counter() - started, flush=True)

import numpy as np  # noqa: E402

job = list(np.load(sys.argv[1]))
engine.compress(job)
print("result", flush=True)
while True:
    engine.compress(job)
