"""Command-line interface: outputs, determinism, exit codes, caching."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "nsjack.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_jack_output_bytes():
    r = run_cli("jack", "--eta", "1,0", "--n", "2", "--alpha", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {
        "n": 2, "terms": [[[1, 0], "1", "1"], [[0, 1], "1", "2"]]}
    # deterministic byte-for-byte
    r2 = run_cli("jack", "--eta", "1,0", "--n", "2", "--alpha", "1")
    assert r.stdout == r2.stdout


def test_eval_ones():
    r = run_cli("eval-ones", "--eta", "1,0", "--n", "2", "--alpha", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == '"3/2"'


def test_norm_families():
    r = run_cli("norm", "--family", "ct", "--eta", "1,0", "--n", "2",
                "--k", "1")
    assert r.returncode == 0 and r.stdout.strip() == '"3/2"'
    r = run_cli("norm", "--family", "hermite", "--eta", "1,0", "--n", "2",
                "--alpha", "2")
    assert r.returncode == 0 and r.stdout.strip() == '"2/3"'
    r = run_cli("norm", "--family", "laguerre", "--eta", "0,0", "--n", "2",
                "--alpha", "2", "--a", "1/2")
    assert r.returncode == 0 and r.stdout.strip() == '"1"'


def test_laguerre_serialization_flag():
    plain = run_cli("laguerre", "--eta", "1,0", "--n", "2", "--alpha", "1",
                    "--a", "0")
    squared = run_cli("laguerre", "--eta", "1,0", "--n", "2", "--alpha", "1",
                      "--a", "0", "--x-squared")
    terms = json.loads(plain.stdout)["terms"]
    terms_sq = json.loads(squared.stdout)["terms"]
    assert [t[0] for t in terms] == [[1, 0], [0, 1], [0, 0]]
    assert [t[0] for t in terms_sq] == [[2, 0], [0, 2], [0, 0]]


def test_binomial_command():
    r = run_cli("binomial", "--eta", "1,1", "--nu", "1,0", "--n", "2",
                "--alpha", "1")
    assert r.returncode == 0 and r.stdout.strip() == '"3/2"'


def test_kernel_command():
    r = run_cli("kernel", "--family", "A", "--degree", "2", "--n", "1",
                "--alpha", "1")
    assert r.returncode == 0, r.stderr[-300:]
    assert json.loads(r.stdout) == {
        "n": 2,
        "terms": [[[2, 2], "1", "2"], [[1, 1], "1", "1"], [[0, 0], "1", "1"]]}


KERNEL_DIGESTS = {
    # sha256 of the stdout of kernel --family F --degree 3 --n 2 --alpha 7/5
    "A": "da71342837f4a9c7c2a7a14230f1d15c5ef921226ece0d5cd2c3497dec602d37",
    "B": "ab91f4a56756fff3399e6e179905ac587917e0fc3454e6b5f6e3872bad75c79c",
    "0F0": "78d94ae3c0cba279fdca13e6b7ba15aea1fc7f17b8cb47a6c18ae0f0d825484b",
    "1K1": "fa5b198f03d1e772e102bf445b41504f1f70e25da41e22d7534845759257e349",
    "2K1": "7ad2c11482c33ef8ba2d5edd06fa9d98b4e14f939e743af8eed9879d1c5bcc0d",
}


@pytest.mark.parametrize("family", sorted(KERNEL_DIGESTS))
def test_kernel_command_output_pinned(family, capsys):
    import hashlib

    from nsjack import cli

    assert cli.main(["kernel", "--family", family, "--degree", "3", "--n",
                     "2", "--alpha", "7/5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_DIGESTS[family]


def test_usage_errors_exit_2():
    assert run_cli("jack", "--eta", "1,x", "--n", "2").returncode == 2
    assert run_cli("jack", "--eta", "1,0", "--n", "3").returncode == 2
    assert run_cli("jack", "--eta", "1,0", "--alpha", "0").returncode == 2
    assert run_cli("verify", "--suite", "nonsense").returncode == 2
    assert run_cli("norm", "--family", "ct", "--eta", "1,0", "--n", "2",
                   "--alpha", "3", "--k", "2").returncode == 2


def test_verify_suite_exit_0():
    r = run_cli("verify", "--suite", "ct", "--max-weight", "2", "--max-n", "2")
    assert r.returncode == 0
    reports = json.loads(r.stdout)
    assert reports and all(rep["status"] == "pass" for rep in reports)


def test_verify_jack_output_pinned():
    # the first import of suites in a fresh process, as for the
    # run_cli tests of kernel, binomial and norm --family ct
    import hashlib

    r = run_cli("verify", "--suite", "jack", "--max-n", "2", "--max-weight",
                "1", "--alpha-set", "1")
    assert r.returncode == 0, r.stderr[-300:]
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "b8080866aba0af2a1b34f6781cde69dc506e3fea1e349e4ad5a2e949fb5640ee")


def test_verify_csv_and_out(tmp_path):
    out = tmp_path / "report.csv"
    r = run_cli("verify", "--suite", "jack", "--max-weight", "2", "--max-n",
                "2", "--alpha-set", "1", "--format", "csv", "--out", str(out))
    assert r.returncode == 0
    text = out.read_text()
    assert "status" in text.splitlines()[0]
    assert "fail" not in text


def test_verify_csv_header_is_the_report_schema():
    """Every report has the same keys, so the columns do not depend on
    which checks a suite runs."""
    r = run_cli("verify", "--suite", "jack", "--max-n", "2", "--max-weight",
                "1", "--alpha-set", "1", "--format", "csv")
    assert r.returncode == 0, r.stderr[-300:]
    assert r.stdout.splitlines()[0] == "alpha,check,n,params,status"


def test_cache_dir(tmp_path):
    env = {"NSJACK_CACHE_DIR": str(tmp_path)}
    r1 = run_cli("jack", "--eta", "2,1", "--n", "2", "--alpha", "1/2", env=env)
    files = list(tmp_path.iterdir())
    assert files, "cache file should have been written"
    r2 = run_cli("jack", "--eta", "2,1", "--n", "2", "--alpha", "1/2", env=env)
    assert r1.stdout == r2.stdout


def _assert_usage_error(*args):
    r = run_cli(*args)
    assert r.returncode == 2, (r.returncode, r.stdout[:200], r.stderr[-300:])
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_negative_kernel_degree_is_usage_error():
    _assert_usage_error("kernel", "--family", "A", "--degree", "-1")


@pytest.mark.parametrize("n", ["0", "-1"])
def test_non_positive_variable_count_is_usage_error(n):
    for args in (("jack", "--eta", "1,0"),
                 ("kernel", "--family", "A", "--degree", "2")):
        r = run_cli(*args, "--n", n)
        assert r.returncode == 2, (args, r.returncode, r.stdout[:200])
        assert r.stderr == "error: --n must be a positive integer\n"


@pytest.mark.parametrize("a", ["-2", "-1"])
def test_laguerre_norm_outside_integrable_range_is_usage_error(a):
    r = run_cli("norm", "--family", "laguerre", "--eta", "1,0", "--a", a)
    assert r.returncode == 2, (r.returncode, r.stdout[:200])
    assert r.stderr == f"error: the Laguerre norm needs a > -1, got a = {a}\n"
    # the polynomial itself exists for every a
    assert run_cli("laguerre", "--eta", "1,0", "--a", a).returncode == 0


@pytest.mark.parametrize("args", [
    ("laguerre", "--eta", "1,0", "--a", "-1/2"),
    ("norm", "--family", "laguerre", "--eta", "1,0", "--a", "-1/2"),
    ("kernel", "--family", "1K1", "--degree", "2", "--n", "1", "--a", "-1/2"),
    ("kernel", "--family", "2K1", "--degree", "2", "--n", "1", "--a", "-1/2",
     "--b", "-3/2", "--c", "-5/2"),
], ids=["laguerre", "norm", "1K1", "2K1"])
def test_negative_rational_after_flag_is_its_value(args):
    joined = list(args)
    for flag in ("--a", "--b", "--c"):
        if flag in joined:
            i = joined.index(flag)
            joined[i:i + 2] = [f"{flag}={joined[i + 1]}"]
    separate, together = run_cli(*args), run_cli(*joined)
    assert separate.returncode == together.returncode == 0, separate.stderr
    assert separate.stdout == together.stdout


def test_negative_rational_alpha_is_rejected_as_non_positive():
    for alpha in (("--alpha", "-1/2"), ("--alpha=-1/2",)):
        r = run_cli("jack", "--eta", "1,0", *alpha)
        assert r.returncode == 2, (alpha, r.stdout[:200], r.stderr[-300:])
        assert r.stderr == "error: alpha must be positive\n"


def test_zero_ct_coupling_is_usage_error():
    _assert_usage_error("norm", "--family", "ct", "--k", "0", "--eta", "1,0")


def test_suite_that_checks_nothing_is_usage_error():
    _assert_usage_error("verify", "--suite", "operators", "--max-n", "1")


def test_all_suites_where_one_checks_nothing_is_usage_error():
    r = run_cli("verify", "--suite", "all", "--max-n", "0")
    assert r.returncode == 2, (r.stdout[:200], r.stderr[-300:])
    assert r.stderr == "error: suite 'operators' checks nothing at these sizes\n"


def test_non_positive_alpha_in_the_set_is_usage_error(capsys):
    from nsjack import cli

    assert cli.main(["verify", "--suite", "numeric", "--alpha-set", "0",
                     "--max-weight", "0"]) == 2
    assert capsys.readouterr().err == "error: alpha must be positive\n"


def test_empty_alpha_set_is_usage_error():
    _assert_usage_error("verify", "--suite", "jack", "--max-n", "1",
                        "--alpha-set", "")


def test_negative_max_weight_is_usage_error():
    _assert_usage_error("verify", "--suite", "jack", "--max-weight", "-1")


def test_flag_a_named_suite_does_not_take_is_usage_error():
    _assert_usage_error("verify", "--suite", "kernels", "--max-n", "0")


def test_ct_norm_rejects_explicit_alpha_one_for_k_two():
    r = run_cli("norm", "--family", "ct", "--eta", "1,0", "--k", "2",
                "--alpha", "1")
    assert r.returncode == 2, (r.returncode, r.stdout)
    assert r.stderr.strip() == "error: constant-term norm needs alpha = 1/k"


def test_ct_norm_accepts_matching_or_omitted_alpha():
    r = run_cli("norm", "--family", "ct", "--eta", "1,0", "--k", "1",
                "--alpha", "1")
    assert r.returncode == 0 and r.stdout.strip() == '"3/2"'
    omitted = run_cli("norm", "--family", "ct", "--eta", "1,0", "--k", "2")
    explicit = run_cli("norm", "--family", "ct", "--eta", "1,0", "--k", "2",
                       "--alpha", "1/2")
    assert omitted.returncode == explicit.returncode == 0
    assert omitted.stdout == explicit.stdout == '"10/3"\n'


def assert_corrupt_cache_is_a_miss(tmp_path, eta, corrupt_text):
    """After the label's cache file is overwritten with ``corrupt_text``,
    the label is recomputed, printed as without a cache, and written back."""
    args = ("jack", "--eta", ",".join(map(str, eta)), "--alpha", "1/2")
    uncached = run_cli(*args)
    env = {"NSJACK_CACHE_DIR": str(tmp_path)}
    first = run_cli(*args, env=env)
    [cache_file] = list(tmp_path.iterdir())
    cache_file.write_text(corrupt_text)
    r = run_cli(*args, env=env)
    assert r.returncode == 0, r.stderr[-300:]
    assert r.stdout == first.stdout == uncached.stdout
    # the file was rewritten as the label's entry
    assert json.loads(cache_file.read_text()) == json.loads(uncached.stdout)
    assert list(tmp_path.iterdir()) == [cache_file]


def test_corrupt_cache_file_is_a_miss(tmp_path):
    assert_corrupt_cache_is_a_miss(tmp_path, (2, 1), "{bad")


@pytest.mark.parametrize("entry", [
    {"n": 2, "terms": "garbage"},
    [1, 2],
    # a valid polynomial, but in 3 variables for a 2-variable label
    {"n": 3, "terms": [[[1, 0, 0], "1", "1"]]},
], ids=["bad-terms", "not-a-dict", "wrong-n"])
def test_corrupt_cache_entry_is_a_miss(tmp_path, entry):
    assert_corrupt_cache_is_a_miss(tmp_path, (1, 0), json.dumps(entry))


def test_old_table_file_is_never_opened(tmp_path):
    """A table of the older one-file-per-(kind, n, alpha) layout, here with
    a wrong entry, is left as it is; the label reads as a miss."""
    table = tmp_path / "jack_n2_alpha1.json"
    table.write_text(json.dumps({"(1, 0)": {"n": 2, "terms": []}}))
    before = table.read_bytes()
    r = run_cli("jack", "--eta", "1,0", env={"NSJACK_CACHE_DIR": str(tmp_path)})
    assert r.returncode == 0, r.stderr[-300:]
    assert r.stdout == run_cli("jack", "--eta", "1,0").stdout
    assert table.read_bytes() == before
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_writes_leave_no_temp_files(tmp_path):
    env = {"NSJACK_CACHE_DIR": str(tmp_path)}
    for eta in ("1,0", "0,1", "2,1"):
        assert run_cli("jack", "--eta", eta, env=env).returncode == 0
    assert run_cli("hermite", "--eta", "1,0", env=env).returncode == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 4
    assert [name.split("_")[0] for name in names] == ["hermite"] + ["jack"] * 3
    assert all(name.endswith(".json") and ".tmp" not in name
               for name in names)


def test_failed_cache_write_keeps_the_old_file(tmp_path, monkeypatch):
    from nsjack import cli

    monkeypatch.setenv("NSJACK_CACHE_DIR", str(tmp_path))
    assert cli.main(["jack", "--eta", "1,0"]) == 0
    [cache_file] = list(tmp_path.iterdir())
    before = cache_file.read_bytes()

    def dump_then_fail(obj, fh):
        fh.write('{"partial')
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", dump_then_fail)
    assert cli.main(["jack", "--eta", "0,1"]) == 3
    assert cache_file.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cache_file]


def test_uncreatable_cache_dir_is_internal_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    r = run_cli("jack", "--eta", "1,0",
                env={"NSJACK_CACHE_DIR": str(blocker / "cache")})
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr[-300:])
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert r.stdout == ""


def test_concurrent_cache_writers_leave_a_valid_file(tmp_path):
    import os

    env = dict(os.environ, NSJACK_CACHE_DIR=str(tmp_path))
    etas = ("1,0,0", "0,1,0", "0,0,1", "1,1,0", "2,0,1", "0,2,1")
    procs = [subprocess.Popen([sys.executable, "-m", "nsjack.cli", "jack",
                               "--eta", eta], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for eta in etas]
    outputs = []
    for p in procs:
        out, _ = p.communicate(timeout=120)
        assert p.returncode == 0
        outputs.append(json.loads(out))
    entries = [json.loads(f.read_text()) for f in tmp_path.iterdir()]
    assert sorted(map(json.dumps, entries)) == sorted(map(json.dumps, outputs))


_WRITER = """
import os, sys, time
from nsjack import cli
from nsjack.poly import SparsePoly

index, ready, count = sys.argv[1], sys.argv[2], int(sys.argv[3])


def compute():
    # a barrier: every writer has read the entry before any of them writes
    open(os.path.join(ready, index), "w").close()
    deadline = time.monotonic() + 60
    while len(os.listdir(ready)) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return SparsePoly.variable(2, 0)


cli._with_cache(cli._cache_path("jack", 2, 1, (1, 0)), (1, 0), compute)
"""


def test_concurrent_cache_writers_keep_every_entry(tmp_path):
    """Four writers miss the same label, then each writes it; they write
    the same bytes, so one valid entry is left and no temporary file."""
    import os

    cache, ready = tmp_path / "cache", tmp_path / "ready"
    cache.mkdir()
    ready.mkdir()
    writers = 4
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(i),
                               str(ready), str(writers)],
                              env=dict(os.environ,
                                       NSJACK_CACHE_DIR=str(cache)),
                              stderr=subprocess.PIPE)
             for i in range(writers)]
    for p in procs:
        _, err = p.communicate(timeout=120)
        assert p.returncode == 0, err[-300:]
    assert len(list(ready.iterdir())) == writers
    [path] = list(cache.iterdir())
    assert path.name.endswith(".json")
    assert json.loads(path.read_text()) == {"n": 2,
                                            "terms": [[[1, 0], "1", "1"]]}


def _computes_nothing(self, eta):
    raise AssertionError("a hit computes nothing")


def test_cache_hit_opens_only_its_own_file(tmp_path, monkeypatch, capsys):
    import builtins
    import os

    from nsjack import cli
    from nsjack.jack import JackBasis

    monkeypatch.setenv("NSJACK_CACHE_DIR", str(tmp_path))
    for eta in ("2,0,1", "1,0,0", "0,1,0", "1,1,1"):
        assert cli.main(["jack", "--eta", eta]) == 0
    written = capsys.readouterr().out.splitlines()[0]
    own = cli._cache_path("jack", 3, 1, (2, 0, 1))
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(JackBasis, "E", _computes_nothing)
    assert cli.main(["jack", "--eta", "2,0,1"]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out.splitlines() == [written]
    assert len(list(tmp_path.iterdir())) == 4
    assert opened == [own]


def test_long_label_is_cached_under_a_short_name(tmp_path, monkeypatch,
                                                 capsys):
    """At n = 130 a readable label would pass the usual 255-byte limit on
    a file name; the digest keeps the name short."""
    from nsjack import cli
    from nsjack.jack import JackBasis

    eta = ",".join(["0"] * 129 + ["1"])
    monkeypatch.setenv("NSJACK_CACHE_DIR", str(tmp_path))
    assert cli.main(["jack", "--eta", eta, "--alpha", "7/5"]) == 0
    written = capsys.readouterr().out
    [cache_file] = list(tmp_path.iterdir())
    assert len(cache_file.name) < 100

    monkeypatch.setattr(JackBasis, "E", _computes_nothing)
    assert cli.main(["jack", "--eta", eta, "--alpha", "7/5"]) == 0
    assert capsys.readouterr().out == written


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_unexpected_error_is_internal_error(monkeypatch, capsys, exc):
    from nsjack import cli
    from nsjack.jack import JackBasis

    def fail(self, eta):
        raise exc("out of resources")

    monkeypatch.delenv("NSJACK_CACHE_DIR", raising=False)
    monkeypatch.setattr(JackBasis, "E", fail)
    assert cli.main(["jack", "--eta", "1,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and exc.__name__ in err
    assert "Traceback" not in err
