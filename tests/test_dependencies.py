"""The package runs on the standard library alone.

A fresh interpreter builds three things: the paper's channel-19 testbed
network (CPM noise training included), a 600-node forest (over the 512-node
cut-over, so the sparse link graph and the connectivity repair both run)
and a LoRa profile field. It then reports which of numpy and networkx got
imported. The subprocess keeps pytest's and hypothesis's own imports from
masking a leak.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

BUILD_AND_REPORT = """
import json
import sys

from repro.experiments.comparison import config_for
from repro.experiments.harness import Network
from repro.topology import forest, profile_field

Network(config_for("tele", 19, 1))
forest(n=600, seed=1)
profile_field("lora", n=25, seed=1)
print(json.dumps([name for name in ("numpy", "networkx") if name in sys.modules]))
"""


def test_builds_import_no_third_party_module():
    env = dict(
        os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
    )
    done = subprocess.run(
        [sys.executable, "-c", BUILD_AND_REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
