"""Replay bytes as a test: every recipe of ``pins.RECIPES`` writes one checkpoint on both pretrain paths.

Three child processes run the recipes at one BLAS thread, set in their environment only: one on the prefetch path,
one pinned to one CPU (the serial path) and a second prefetch run. On every platform the paths and the repeat must
agree. On a platform with recorded goldens (``pins.CHECKPOINT_GOLDENS``) the digests must equal them; elsewhere they
are printed, with the fingerprint to record them under.
"""

import json
import os
import subprocess
import sys

import pytest

import wsp
from pins import CHECKPOINT_GOLDENS, RECIPES, fingerprint

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.py")

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the serial child pins its CPU affinity")


@pytest.fixture(scope="module")
def runs():
    """Each child's ``{"spare_cpu", "digests"}``, by run; the three children run at once."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wsp.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    children = {run: subprocess.Popen([sys.executable, PINS, mode], env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                for run, mode in (("prefetch", "prefetch"), ("serial", "serial"), ("repeat", "prefetch"))}
    results = {}
    try:
        for run, child in children.items():
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            results[run] = json.loads(out)
    finally:
        for child in children.values():
            child.kill()  # a child still running after a failure; no effect on one that has exited
    return results


def test_each_child_takes_its_path(runs):
    # At one BLAS thread, a process with two usable CPUs has one spare for the prefetch worker.
    assert runs["prefetch"]["spare_cpu"] == (len(os.sched_getaffinity(0)) > 1)
    assert runs["serial"]["spare_cpu"] is False


def test_every_recipe_is_hashed(runs):
    for result in runs.values():
        assert list(result["digests"]) == list(RECIPES)


def test_serial_path_writes_the_prefetch_bytes(runs):
    assert runs["serial"]["digests"] == runs["prefetch"]["digests"]


def test_repeat_writes_the_same_bytes(runs):
    assert runs["repeat"]["digests"] == runs["prefetch"]["digests"]


def test_digests_match_this_platforms_goldens(runs):
    digests = runs["prefetch"]["digests"]
    golden = CHECKPOINT_GOLDENS.get(fingerprint())
    if golden is None:
        print(f"no checkpoint goldens for platform {fingerprint()!r}; its digests are:")
        print(json.dumps(digests, indent=4))
        return
    assert digests == golden
