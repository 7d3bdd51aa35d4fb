"""Command-line front end: compute objects, emit tables, run verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (an ``OSError``, such as an unwritable ``NSJACK_CACHE_DIR``, or any
other unexpected exception, such as a ``MemoryError``).  Output is
deterministic byte-for-byte for fixed flags (canonical term ordering).

Each command imports only the layers it runs.  ``jack`` and ``eval-ones``
load ``poly``, ``combinat``, ``operators`` and ``jack``; ``hermite``,
``laguerre`` and ``norm --family hermite|laguerre`` add
``hermite_laguerre``, ``kernel`` and ``binomial`` add ``kernels`` (with
``reports``), ``norm --family ct`` adds ``cterm`` and ``linalg``, and
``verify`` adds ``suites`` (with all of these), whose ``SUITES`` names the
suites: an unknown ``--suite`` is rejected once ``suites`` loads.  When
no bytecode cache can be written (``PYTHONDONTWRITEBYTECODE``, a read-only
install), a cold call compiles every module it loads from source, so a
module not loaded is compile time saved.

Under ``NSJACK_CACHE_DIR``, ``jack``, ``hermite`` and ``laguerre`` keep
one file per label, written atomically (a temporary file, then
``os.replace``), so a hit opens only its own file and a writer needs no
lock.  A missing or corrupt file is a miss; old one-table-per-(kind, n,
alpha, a) files are never opened.

A negative rational may follow ``--a``, ``--b``, ``--c`` or ``--alpha`` as
its own argument (``--a -1/2``), the same as ``--a=-1/2``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .jack import JackBasis
from .poly import SparsePoly

_RATIONAL_FLAGS = ("--a", "--b", "--c", "--alpha")
_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


class UsageError(ValueError):
    """A bad flag value; like every ``ValueError`` of a command, exit 2."""


def parse_fraction(text):
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: expected p or p/q") from exc


def parse_composition(text):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad composition {text!r}: expected comma-separated "
                         "integers") from exc
    if any(x < 0 for x in parts):
        raise UsageError("composition parts must be non-negative")
    return parts


def _emit(payload, fmt, out):
    """Serialize a payload (poly dict, scalar string, or report list)."""
    if fmt == "json":
        text = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if isinstance(payload, dict) and "terms" in payload:
            writer.writerow(["exponents", "numerator", "denominator"])
            for e, num, den in payload["terms"]:
                writer.writerow([" ".join(map(str, e)), num, den])
        elif isinstance(payload, list):
            keys = sorted({k for r in payload for k in r})
            writer.writerow(keys)
            for r in payload:
                writer.writerow([json.dumps(r.get(k), default=str)
                                 if isinstance(r.get(k), (dict, list))
                                 else r.get(k, "") for k in keys])
        else:
            writer.writerow([payload])
        text = buf.getvalue().rstrip("\n")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cache_path(kind, n, alpha, eta, a=None):
    """The cache file of one label, named from (kind, n, alpha, a) and a
    fixed-length digest of ``str(eta)``, so it stays short at any n."""
    root = os.environ.get("NSJACK_CACHE_DIR")
    if not root:
        return None
    import hashlib

    os.makedirs(root, exist_ok=True)
    tag = f"{kind}_n{n}_alpha{str(alpha).replace('/', 'over')}"
    if a is not None:
        tag += f"_a{str(a).replace('/', 'over')}"
    digest = hashlib.blake2b(str(eta).encode(), digest_size=16).hexdigest()
    return os.path.join(root, f"{tag}_{digest}.json")


def _read_entry(path, n):
    """The polynomial in a cache file, or None (a miss) unless the file
    holds one in n variables, exactly as ``to_json_dict`` writes it."""
    try:
        with open(path) as fh:
            entry = json.load(fh)
        poly = SparsePoly.from_json_dict(entry)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return None
    return poly if poly.n == n and poly.to_json_dict() == entry else None


def _with_cache(path, eta, compute):
    """The polynomial of label ``eta``, read from its cache file ``path``
    if one is given; a miss computes it and writes the file."""
    if path is None:
        return compute()
    poly = _read_entry(path, len(eta))
    if poly is None:
        poly = compute()
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(poly.to_json_dict(), fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return poly


def _add_common(sub, need_eta=True):
    if need_eta:
        sub.add_argument("--eta", required=True, help="composition, e.g. 2,0,1")
    sub.add_argument("--n", type=int, help="number of variables")
    sub.add_argument("--alpha", help="coupling, e.g. 2 or 1/2 (default 1)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="write output to a file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nsjack",
        description="Exact non-symmetric Jack, Hermite and Laguerre "
                    "polynomials and their identity verification suites.")
    sp = ap.add_subparsers(dest="command", required=True)

    for name in ("jack", "hermite", "laguerre"):
        sub = sp.add_parser(name, help=f"compute a {name} basis polynomial")
        _add_common(sub)
        if name == "laguerre":
            sub.add_argument("--a", default="0", help="type-B parameter")
            sub.add_argument("--x-squared", action="store_true",
                             help="write the polynomial in the original "
                                  "variables x, its exponents doubled")

    sub = sp.add_parser("eval-ones", help="value at the all-ones point")
    _add_common(sub)

    sub = sp.add_parser("norm", help="norm value or norm ratio")
    sub.add_argument("--family", choices=("ct", "hermite", "laguerre"),
                     required=True)
    _add_common(sub)
    sub.add_argument("--k", type=int, default=1,
                     help="integer coupling for the constant-term norm")
    sub.add_argument("--a", default="0", help="type-B parameter")

    sub = sp.add_parser("binomial", help="generalized binomial coefficient")
    _add_common(sub)
    sub.add_argument("--nu", required=True, help="lower composition")

    sub = sp.add_parser("kernel", help="degree-truncated kernel")
    sub.add_argument("--family", choices=("A", "B", "0F0", "1K1", "2K1"),
                     required=True)
    sub.add_argument("--degree", type=int, required=True)
    _add_common(sub, need_eta=False)
    sub.add_argument("--a", default="1/2")
    sub.add_argument("--b", default="4/3")
    sub.add_argument("--c", default="7/2")

    sub = sp.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", required=True,
                     help="a suite name or all; a wrong name lists them")
    sub.add_argument("--alpha-set", help="comma-separated couplings")
    sub.add_argument("--max-weight", type=int)
    sub.add_argument("--max-n", type=int)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="write report to a file")
    return ap


def _dispatch(args):
    if args.command == "verify":
        from .suites import run_suite

        alphas = (None if args.alpha_set is None else
                  tuple(map(parse_fraction, args.alpha_set.split(","))))
        ok, reports = run_suite(args.suite, alphas=alphas,
                                max_weight=args.max_weight, max_n=args.max_n)
        _emit(reports, args.format, args.out)
        if ok:
            return 0
        failed = [r for r in reports if r["status"] == "fail"]
        first = failed[0]
        print(f"error: {len(failed)} of {len(reports)} reports failed; first "
              f"{first['check']} at n={first['n']}, alpha={first['alpha']}: "
              f"witness {json.dumps(first['witness'])}", file=sys.stderr)
        return 1

    alpha = parse_fraction("1" if args.alpha is None else args.alpha)
    if args.n is not None and args.n < 1:
        raise UsageError("--n must be a positive integer")
    if args.command == "kernel":
        from . import kernels

        n = 2 if args.n is None else args.n
        jb = JackBasis(n, alpha)
        D = args.degree
        if D < 0:
            raise UsageError("--degree must be non-negative")
        fam = args.family
        if fam == "A":
            K = kernels.kernel_KA(jb, D)
        elif fam == "B":
            K = kernels.kernel_KB(jb, parse_fraction(args.a), D)
        elif fam == "0F0":
            K = kernels.hyper_0F0(jb, D)
        else:
            up = (args.a,) if fam == "1K1" else (args.a, args.b)
            K = kernels.kernel_series(jb, tuple(map(parse_fraction, up)),
                                      (parse_fraction(args.c),), D)
        _emit(K.to_json_dict(), args.format, args.out)
        return 0

    eta = parse_composition(args.eta)
    n = len(eta) if args.n is None else args.n
    if n != len(eta):
        raise UsageError(f"--n {n} does not match the composition length "
                         f"{len(eta)}")
    jb = JackBasis(n, alpha)

    kind = args.command
    if kind in ("jack", "hermite", "laguerre"):
        a = parse_fraction(args.a) if kind == "laguerre" else None
        family = {"jack": lambda: jb, "hermite": jb.hermite,
                  "laguerre": lambda: jb.laguerre(a)}[kind]
        poly = _with_cache(_cache_path(kind, n, alpha, eta, a), eta,
                           lambda: family().E(eta))
        if kind == "laguerre" and args.x_squared:
            poly = poly.scale_exponents(2)
        _emit(poly.to_json_dict(), args.format, args.out)
        return 0
    if args.command == "eval-ones":
        _emit(str(jb.eval_ones(eta)), args.format, args.out)
        return 0
    if args.command == "norm":
        if args.family == "ct":
            from .cterm import ct_inner, ct_norm_formula

            k = args.k
            if k < 1:
                raise UsageError("--k must be a positive integer")
            alpha_ct = Fraction(1, k)
            if args.alpha is not None and alpha != alpha_ct:
                raise UsageError("constant-term norm needs alpha = 1/k")
            jb_ct = JackBasis(n, alpha_ct)
            value = ct_norm_formula(eta, k)
            E = jb_ct.E(eta)
            if ct_inner(E, E, k) != value:
                raise ArithmeticError("norm formula disagrees with the "
                                      "constant term; arithmetic bug")
        elif args.family == "hermite":
            value = jb.hermite().norm_ratio(eta)
        else:
            value = jb.laguerre(parse_fraction(args.a)).norm_ratio(eta)
        _emit(str(value), args.format, args.out)
        return 0
    if args.command == "binomial":
        from . import kernels

        nu = parse_composition(args.nu)
        if len(nu) != n:
            raise UsageError("--nu must have the same length as --eta")
        _emit(str(kernels.binomial_coeff(jb, eta, nu)), args.format, args.out)
        return 0
    raise UsageError(f"unknown command {args.command!r}")


def _join_negative_rationals(argv):
    """``argv`` with each ``--a -1/2`` (a flag of ``_RATIONAL_FLAGS``
    followed by a negative p/q) joined into ``--a=-1/2``.

    argparse reads only ``-N`` and ``-N.M`` as negative numbers and takes
    ``-1/2`` for an option, so the flag would be left without its value.
    """
    out = []
    for token in argv:
        if (out and out[-1] in _RATIONAL_FLAGS
                and _NEGATIVE_RATIONAL.fullmatch(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(_join_negative_rationals(argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _dispatch(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # MemoryError, RecursionError or a bug: an internal error, never
        # the verification-failure code
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
