"""Crash-point walk: a hard exit at every storage op of a grid, then resume.

The result cache and the run journal write, fsync, rename and read through
:mod:`repro.havoc.fs`. A journaled, cached two-cell selftest grid makes 19
such ops at ``jobs=1``: 8 writes, 5 fsyncs, 4 reads and 2 replaces. For
each op index k a child process runs the grid under a counting
:class:`~repro.havoc.HavocFS` that calls ``os._exit`` at op k; every write
is walked a second time torn (half its data lands, then the exit). A fresh
runner with a fresh cache then resumes the grid, and three things must
hold:

- the resumed results equal an uninterrupted run byte for byte;
- the cache never returns a result that differs from that run;
- ``RunJournal.replay`` succeeds.

This is the method of ALICE (Pillai et al., "All File Systems Are Not
Created Equal", OSDI 2014) applied to the runner's two files. The walk runs
at ``jobs=1`` and again at ``jobs=2``, where the cells run in other
processes but every storage op stays in the runner's.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.runner import ParallelRunner, ResultCache, RunJournal, selftest_spec

SPECS = [selftest_spec(0), selftest_spec(1)]
CRASH_EXIT = 86

#: The child: the grid under a HavocFS that counts ops and exits at op k.
#: Prints the op sequence and the results when k is never reached.
_CHILD = textwrap.dedent(
    """
    import json, os, sys
    from repro.havoc import HavocFS, HavocPlan
    from repro.havoc import fs as havocfs
    from repro.runner import ParallelRunner, ResultCache, selftest_spec

    class CrashAt(HavocFS):
        def __init__(self, k, torn):
            super().__init__(HavocPlan(name="crash-walk"))
            self.k, self.torn, self.ops = k, torn, []

        def decide(self, op, path):
            if len(self.ops) == self.k:
                os._exit(%(exit)d)
            self.ops.append(op)
            return None

        def write(self, handle, data, path=None):
            if self.torn and len(self.ops) == self.k:
                handle.write(data[: len(data) // 2])
                handle.flush()
                os._exit(%(exit)d)
            super().write(handle, data, path)

    k, torn, jobs, root = int(sys.argv[1]), sys.argv[2] == "torn", int(sys.argv[3]), sys.argv[4]
    fs = CrashAt(k, torn)
    havocfs.install(fs)
    runner = ParallelRunner(
        jobs=jobs,
        cache=ResultCache(os.path.join(root, "cache")),
        journal_dir=os.path.join(root, "journal"),
    )
    outcomes = runner.run([selftest_spec(0), selftest_spec(1)])
    print(json.dumps({"ops": fs.ops, "results": [o.result for o in outcomes]}))
    """
    % {"exit": CRASH_EXIT}
)


def canonical(results):
    return json.dumps(results, sort_keys=True, separators=(",", ":"))


def run_child(root: Path, k: int, torn: bool, jobs: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(k), "torn" if torn else "exit", str(jobs), str(root)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,  # so the cell processes it leaves go with it
    )
    try:
        child.wait(timeout=120)
    finally:
        # Cell processes orphaned by the exit hold the output pipes open.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    stdout, stderr = child.communicate()
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


def check_leftovers(root: Path, reference: str) -> None:
    """What any run left: a replayable journal and a cache that is never wrong."""
    for path in (root / "journal").glob("*.jsonl"):
        RunJournal(path).replay()
    cache = ResultCache(root / "cache")
    for spec, want in zip(SPECS, json.loads(reference)):
        got = cache.load(spec)
        assert got is None or canonical(got) == canonical(want), spec.name


def walk(root: Path, jobs: int, reference: str) -> None:
    counted = run_child(root / "count", -1, False, jobs)
    assert counted.returncode == 0, counted.stderr
    report = json.loads(counted.stdout)
    assert canonical(report["results"]) == reference
    ops = report["ops"]
    assert Counter(ops) == {"write": 8, "fsync": 5, "read": 4, "replace": 2}
    cases = [(k, False) for k in range(len(ops))]
    cases += [(k, True) for k, op in enumerate(ops) if op == "write"]
    dirs = [root / f"op{k}-{'torn' if torn else 'exit'}" for k, torn in cases]
    with ThreadPoolExecutor(max_workers=2) as pool:
        crashed = list(
            pool.map(lambda case: run_child(case[1], *case[0], jobs), zip(cases, dirs))
        )
    for (k, torn), case_dir, child in zip(cases, dirs, crashed):
        assert child.returncode == CRASH_EXIT, (k, torn, child.returncode, child.stderr)
        check_leftovers(case_dir, reference)
        # Resume with a fresh runner and a fresh cache over what the crash left.
        runner = ParallelRunner(
            jobs=1,
            cache=ResultCache(case_dir / "cache"),
            journal_dir=case_dir / "journal",
            resume=True,
        )
        outcomes = runner.run(SPECS)
        assert canonical([o.result for o in outcomes]) == reference, (k, torn)
        check_leftovers(case_dir, reference)
        (journal,) = (case_dir / "journal").glob("*.jsonl")
        state = RunJournal(journal).replay()
        assert state.closed and len(state.completed) == len(SPECS), (k, torn)


@pytest.fixture(scope="module")
def reference() -> str:
    return canonical([o.result for o in ParallelRunner(jobs=1).run(SPECS)])


@pytest.mark.parametrize("jobs", [1, 2])
def test_crash_at_every_storage_op_resumes_bit_identical(tmp_path, reference, jobs):
    walk(tmp_path, jobs, reference)
