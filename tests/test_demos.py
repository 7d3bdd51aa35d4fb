"""The demos run to completion; the exact ones print pinned bytes.

Demos 01-04 print only exact values, so the sha256 of their stdout pins
every digit (the bytes do not depend on PYTHONHASHSEED).  Demo 05 prints
floating-point quadrature errors, so it only has to run and say something.
A change that alters a pinned digest changes what a demo shows: rerun the
demo, read the new output, and update the digest only if it is right.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "01_jack_basics.py":
        "a46912b24bea58817e4e61f79c0eff591ded95eec0aa5356be6b5e1cb5db5082",
    "02_hermite_laguerre.py":
        "878700f6c8eab012995212e54c1528063d318f9cac901fc28fd9fa2b7dd7cec0",
    "03_kernels_and_binomials.py":
        "30c537a380007534a11aa870488347fcbce4ea9479c86c0762741905a4d87695",
    "04_constant_terms.py":
        "e32a677e103d8c6298c2477b83dc1573bc927625bb4d85fe184720abedc868f0",
}


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                       capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert r.returncode == 0, r.stderr[-500:].decode()
    return r.stdout


def test_every_demo_is_covered():
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert demos == sorted([*PINNED, "05_quadrature.py"])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_demo_prints_pinned_bytes(name):
    assert hashlib.sha256(run_demo(name)).hexdigest() == PINNED[name]


def test_quadrature_demo_runs():
    assert run_demo("05_quadrature.py").strip()
