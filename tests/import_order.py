"""Check that the CLI sets OpenBLAS's thread count before numpy loads.

Run it in a fresh interpreter, against whichever ``crngame`` is importable:

    python tests/import_order.py

It checks that ``import crngame`` loads no numpy, and that at the moment
``import crngame.cli`` first looks numpy up, ``OPENBLAS_NUM_THREADS`` holds
the value exported before the run, or ``1`` if none was. It prints that
value and exits 0, or prints what went wrong and exits 1.
"""

import os
import sys

UNSET = object()


class _FirstNumpyLookup:
    """A finder that only records the variable at the first numpy lookup."""

    value = UNSET

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and self.value is UNSET:
            self.value = os.environ.get("OPENBLAS_NUM_THREADS")
        return None  # the usual finders do the import


def main() -> int:
    expected = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    if "numpy" in sys.modules:
        print("numpy was loaded before the check started", file=sys.stderr)
        return 1
    finder = _FirstNumpyLookup()
    sys.meta_path.insert(0, finder)

    import crngame
    if "numpy" in sys.modules:
        print(f"import crngame ({crngame.__file__}) loaded numpy", file=sys.stderr)
        return 1
    import crngame.cli
    if finder.value is UNSET:
        print("import crngame.cli never looked numpy up", file=sys.stderr)
        return 1
    if finder.value != expected:
        print(f"numpy was first looked up with OPENBLAS_NUM_THREADS="
              f"{finder.value!r}, expected {expected!r}", file=sys.stderr)
        return 1
    print(finder.value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
