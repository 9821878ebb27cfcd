"""Child process timed for ``setup_s``.

Imports the package, parses the workload's configuration, curves and
parameters, builds its controller, then prints ``ready <bessctl path>``.
The parent times it from process start until that line arrives, which is
the moment the first step could run.

Usage: python3 perfbench/setup_probe.py <workload>   (with src on PYTHONPATH)
"""

import sys

import bessctl
from workloads import load_setup

load_setup(sys.argv[1]).new_controller()
print("ready", bessctl.__file__, flush=True)
