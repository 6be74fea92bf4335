"""Importing rankone2d first loads numpy's OpenBLAS without a worker pool."""

import json
import os
import subprocess
import sys

import pytest

import rankone2d

PROBE = """
import json, os
import rankone2d
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "var": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="thread count is read from /proc/self/task")


def _probe(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in rankone2d._BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(rankone2d.__file__))
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_leaves_one_thread_and_environment_unchanged():
    assert _probe() == {"threads": 1, "var": None}


def test_caller_thread_count_is_kept():
    # OpenBLAS starts no more threads than there are usable CPUs
    threads = min(2, len(os.sched_getaffinity(0)))
    assert _probe(OPENBLAS_NUM_THREADS="2") == {"threads": threads, "var": "2"}
