"""The package's lazy public names, and the CLI's OpenBLAS default."""

import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crngame

SRC = str(Path(crngame.__file__).resolve().parent.parent)
IMPORT_ORDER = str(Path(__file__).resolve().parent / "import_order.py")


def _fresh(argv, env_update):
    """Run ``python argv`` in a fresh interpreter that imports crngame from SRC."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_update)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


class TestImportOrder:
    @pytest.mark.parametrize("preset, recorded", [(None, "1"), ("3", "3")])
    def test_openblas_threads_set_before_numpy_loads(self, preset, recorded):
        env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        proc = _fresh([IMPORT_ORDER], env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == recorded + "\n"

    def test_oracle_table_unchanged_as_users_run_it(self, tmp_path):
        # test_cli's n = 40 ``--all`` digest, from ``python -m crngame``: the
        # in-process tests load numpy before the CLI can give OpenBLAS one thread
        am = tmp_path / "am.crn"
        am.write_text("X + Y -> X + B @ 1\nX + Y -> Y + B @ 1\n"
                      "B + X -> 2X @ 1\nB + Y -> 2Y @ 1\n")
        proc = _fresh(["-m", "crngame", "oracle", str(am), "--init", "X=22",
                       "--init", "Y=18", "--winner", "X", "--loser", "Y", "--all"], {})
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "c4ab69d6867b88b51eea52b60a3703b7dae82d9fda66d06107ca59eea5764d7c")

    def test_library_import_leaves_the_variable_alone(self):
        proc = _fresh(["-c", "import os, crngame.game, crngame.oracle; "
                             "print(os.environ.get('OPENBLAS_NUM_THREADS'))"], {})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "None\n"


class TestLazyNames:
    def test_each_name_is_its_submodules_object(self):
        assert len(crngame.__all__) == len(set(crngame.__all__)) == 37
        for name in crngame.__all__:
            value = getattr(crngame, name)
            assert value.__module__.startswith("crngame."), name
            assert value is getattr(sys.modules[value.__module__], name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from crngame import *", namespace)
        for name in crngame.__all__:
            assert namespace[name] is getattr(crngame, name), name

    def test_dir_lists_every_name(self):
        assert set(crngame.__all__) <= set(dir(crngame))

    def test_a_submodule_still_imports_from_the_package(self):
        from crngame import game
        assert isinstance(game, types.ModuleType)
        assert game is sys.modules["crngame.game"]

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            crngame.no_such_name
        with pytest.raises(ImportError):
            from crngame import no_such_name
