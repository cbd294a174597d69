#!/usr/bin/env python3
"""``repro.tools.tracedump`` with CPU placement declined.

    PYTHONPATH=src python3 docs/bench/pr34/declined.py [tracedump arguments]

Replaces ``os.sched_setaffinity`` with a function that raises, so the
worker-process pool runs unplaced (``unplaced: sched_setaffinity raised
…``) and the summary's preemption figure is that of an unplaced pair.
"""

import os
import runpy
import sys


def refuse(pid, mask):
    raise OSError(1, "refused for the probe")


os.sched_setaffinity = refuse
sys.argv[0] = "tracedump"
runpy.run_module("repro.tools.tracedump", run_name="__main__")
