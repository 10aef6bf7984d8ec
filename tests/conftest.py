import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import crngame
from crngame import make_crn


@pytest.fixture
def fresh_python():
    """Runs a script in a fresh interpreter that imports this checkout's crngame."""
    src = str(Path(crngame.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(script, *args):
        return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                              capture_output=True, text=True, env=env, timeout=120)

    return run


@pytest.fixture
def majority_crn():
    """Uncatalyzed tri-molecular majority consensus over {X, Y}."""
    return make_crn([
        ({"X": 2, "Y": 1}, {"X": 3}, 1.0),
        ({"X": 1, "Y": 2}, {"Y": 3}, 1.0),
    ])


@pytest.fixture
def catalyzed_crn():
    """Catalyzed variant: A and B scale the two clock speeds."""
    return make_crn([
        ({"X": 2, "Y": 1, "A": 1}, {"X": 3, "A": 1}, 1.0),
        ({"X": 1, "Y": 2, "B": 1}, {"Y": 3, "B": 1}, 1.0),
    ])


@pytest.fixture
def shuffler_crn():
    """Catalyst shuffler: swaps A and B at a configurable speed."""
    return make_crn([
        ({"A": 1}, {"B": 1}, 5.0),
        ({"B": 1}, {"A": 1}, 5.0),
    ])
