"""The one shape of a verification report.

Every check files its verdict through ``report``, so every report has
exactly these keys:

- ``check``, ``status`` (``"pass"`` or ``"fail"``), ``n``, and ``alpha``
  as a string;
- ``params``: where else the check ran (``D``, ``a``, ``k``, a label
  ``eta``, ...), ``{}`` when nothing more; a ``Fraction`` is written as
  its string;
- ``witness``, on a failing report only: ``at`` names the first item that
  failed, ``part`` the part of the check that failed, and a kernel
  difference adds its first term (``bidegree``, ``exponents``,
  ``coefficient``).  The witness of a check that compares two scalars is
  empty: its values show the two sides;
- ``values``, on the checks that compare two scalars only: ``lhs`` and
  ``rhs``, and for a numeric check its errors and tolerance.
"""

from __future__ import annotations

from fractions import Fraction


def report(check, ok, n, alpha, params=None, witness=None, values=None):
    """A JSON-ready report; ``witness`` describes a failure."""
    rep = {"check": check, "status": "pass" if ok else "fail", "n": n,
           "alpha": str(alpha),
           "params": {k: str(v) if isinstance(v, Fraction) else v
                      for k, v in (params or {}).items()}}
    if not ok:
        rep["witness"] = witness or {}
    if values is not None:
        rep["values"] = values
    return rep


def first_failing(check, n, alpha, items, fault, params=None):
    """Report on a check that holds item by item: ``fault(item)`` is None
    where it holds and a dict of witness fields (perhaps empty) where it
    does not.  A failing report names the first failing item as ``at``."""
    for item in items:
        found = fault(item)
        if found is not None:
            return report(check, False, n, alpha, params,
                          {"at": repr(item), **found})
    return report(check, True, n, alpha, params)
