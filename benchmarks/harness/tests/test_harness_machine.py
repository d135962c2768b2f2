"""A pass leaves no process behind: ``machine.stop_children``."""

import json
import os
import subprocess
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent

# Run in an interpreter of its own: stop_children reaps every child of the
# process that calls it, and the test runner may have children it still needs.
SCRIPT = """
import json, subprocess, sys
from multiprocessing import shared_memory
sys.path.insert(0, sys.argv[1])
import machine

sleeper = subprocess.Popen(["sleep", "60"])
segment = shared_memory.SharedMemory(create=True, size=16)  # starts the resource tracker
segment.close()
segment.unlink()
before = machine.child_pids()
machine.stop_children()
print(json.dumps({"sleeper": sleeper.pid, "before": before, "after": machine.child_pids()}))
"""


def test_stop_children_leaves_nothing_running():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(HARNESS)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["sleeper"] in seen["before"]
    assert len(seen["before"]) >= 2  # the sleeper and the resource tracker
    assert seen["after"] == []
    assert not os.path.exists(f"/proc/{seen['sleeper']}")
