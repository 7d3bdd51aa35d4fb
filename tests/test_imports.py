"""Import-time guards: the exact layers start without numpy and scipy."""

import subprocess
import sys

import pytest

HEAVY = ("numpy", "scipy", "nsjack.quadrature")


def _loaded_after(statement):
    code = (f"import sys\n{statement}\n"
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr[-500:]
    return r.stdout.strip()


@pytest.mark.parametrize("statement", ["import nsjack.cli",
                                       "import nsjack.suites"])
def test_cli_and_suites_import_without_quadrature(statement):
    assert _loaded_after(statement) == ""


def test_construction_modules_import_without_quadrature():
    assert _loaded_after("import nsjack.jack, nsjack.hermite_laguerre") == ""

