"""``import coxquiver`` loads no heavy standard-library module.

Every CLI call pays for the import before it does any work, so the package
keeps ``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and
``tokenize``), ``typing`` and ``random`` off its import path, and loads
``argparse``, ``json``, ``concurrent.futures`` and ``heapq`` (whose C
part alone takes about 0.4 ms to load) only in the modules and functions
that use them.  The check compares the modules loaded before and
after the import in a fresh interpreter, so it holds whether or not the
interpreter's start-up already loaded one of them; ``-S`` skips that
start-up, so nothing is preloaded there.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import coxquiver

SRC = Path(coxquiver.__file__).resolve().parent.parent

HEAVY = frozenset({
    "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "random",
    "argparse", "json", "concurrent.futures", "heapq",
})

PROBE = (
    "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
    "import {}; print(*sorted(set(sys.modules) - before))"
)


def added_modules(flags: tuple[str, ...], imports: str = "coxquiver") -> set[str]:
    """Modules that importing ``imports`` adds in a fresh interpreter."""
    done = subprocess.run([sys.executable, *flags, "-c", PROBE.format(imports), str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.split())


@pytest.mark.parametrize("flags", [("-I",), ("-I", "-S")], ids=["site", "no-site"])
def test_import_adds_no_heavy_module(flags):
    added = added_modules(flags)
    assert "coxquiver.sweep" in added
    assert added & HEAVY == set()


def test_the_probe_sees_a_heavy_module():
    assert {"json", "random"} <= added_modules(("-I", "-S"), "coxquiver, json, random")
