"""Import-time guards: the exact layers start without numpy and scipy,
and each CLI command loads only the layers it runs."""

import subprocess
import sys

import pytest

HEAVY = ("numpy", "scipy", "nsjack.quadrature")
# layers the construction commands (E, its Hermite and Laguerre images,
# their norms and values) never run
LAZY = ("nsjack.suites", "nsjack.kernels", "nsjack.cterm", "nsjack.linalg")


def _loaded_after(statement, modules=HEAVY):
    code = (f"import sys\n{statement}\n"
            f"print(','.join(m for m in {modules!r} if m in sys.modules))")
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


def test_cli_import_loads_no_lazy_layer():
    assert _loaded_after("import nsjack.cli", LAZY) == ""


def test_cli_import_loads_neither_fcntl_nor_hashlib():
    """``fcntl`` is missing on some platforms, and ``hashlib`` is loaded
    only when a command names a file under ``NSJACK_CACHE_DIR``, so a cold
    start pays for neither."""
    assert _loaded_after("import nsjack.cli", ("fcntl", "hashlib")) == ""


def _loaded_by_command(*argv):
    """LAZY and HEAVY modules loaded by one ``cli.main`` call, run as the
    first thing a fresh process does."""
    statement = ("import contextlib, io\n"
                 "from nsjack import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = cli.main({list(argv)!r})\n"
                 "if code:\n"
                 "    sys.exit(code)")
    return _loaded_after(statement, LAZY + HEAVY)


@pytest.mark.parametrize("argv", [
    ("jack", "--eta", "2,1,0"),
    ("hermite", "--eta", "2,1,0"),
    ("laguerre", "--eta", "2,1,0", "--a", "1/2"),
    ("eval-ones", "--eta", "2,1,0"),
    ("norm", "--family", "laguerre", "--eta", "1,0", "--a", "1/2"),
    ("norm", "--family", "hermite", "--eta", "1,0"),
], ids=lambda argv: " ".join(argv[:3]))
def test_construction_commands_load_no_lazy_layer(argv, monkeypatch):
    monkeypatch.delenv("NSJACK_CACHE_DIR", raising=False)
    assert _loaded_by_command(*argv) == ""


@pytest.mark.parametrize("argv, loaded", [
    (("kernel", "--family", "A", "--degree", "2"), "nsjack.kernels"),
    (("binomial", "--eta", "1,1", "--nu", "1,0"), "nsjack.kernels"),
    (("norm", "--family", "ct", "--eta", "1,0"), "nsjack.cterm,nsjack.linalg"),
    (("verify", "--suite", "jack", "--max-n", "2", "--max-weight", "1"),
     ",".join(LAZY)),
], ids=["kernel", "binomial", "norm-ct", "verify"])
def test_other_commands_load_what_they_run(argv, loaded, monkeypatch):
    monkeypatch.delenv("NSJACK_CACHE_DIR", raising=False)
    assert _loaded_by_command(*argv) == loaded


@pytest.mark.parametrize("argv", [
    ("jack", "--eta", "2,1,0"),
    ("eval-ones", "--eta", "2,1,0"),
    ("binomial", "--eta", "1,1", "--nu", "1,0"),
    ("kernel", "--family", "A", "--degree", "2"),
], ids=lambda argv: " ".join(argv[:3]))
def test_commands_without_a_deformed_family_do_not_load_it(argv, monkeypatch):
    """The package resolves its names on first use and ``JackBasis``
    imports the Hermite and Laguerre families when it first builds one, so
    these commands never compile ``nsjack.hermite_laguerre``.  (``verify``
    does: ``suites`` imports every layer a suite runs up front.)"""
    monkeypatch.delenv("NSJACK_CACHE_DIR", raising=False)
    statement = ("import contextlib, io\n"
                 "from nsjack import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = cli.main({list(argv)!r})\n"
                 "if code:\n"
                 "    sys.exit(code)")
    assert _loaded_after(statement, ("nsjack.hermite_laguerre",)) == ""


def test_package_resolves_its_names_and_submodules_on_first_access():
    code = ("import nsjack\n"
            "assert nsjack.jack.JackBasis is nsjack.JackBasis\n"
            "assert nsjack.poly.SparsePoly is nsjack.SparsePoly\n"
            "assert nsjack.hermite_laguerre.HermiteBasis is nsjack.HermiteBasis\n"
            "assert not hasattr(nsjack, 'import_module')\n"
            "assert all(hasattr(nsjack, name) for name in nsjack.__all__)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr[-500:]
