"""What an ``awdit`` process imports, probed from a fresh interpreter.

Every ``awdit`` process compiles the ``repro`` modules it imports (without
bytecode caches, from source), so ``import repro.cli`` loads only what the
parser needs, and each command imports its own machinery when it runs: a
compiled check loads neither the object engine nor another format's parser.
Only a CC check gains more from numpy than numpy's import costs, so
:mod:`repro.graph.csr` imports it lazily and only a CC check loads it; the
packages resolve their re-exports on first access, so the CLI loads no
baseline checker, no history generator and, in batch mode, not the
streaming checker.  Each probe runs ``repro.cli.main`` in a new interpreter and
prints ``sys.modules`` afterwards, since the test process itself has long
since imported everything.  For the same reason a missing lazy import would
fail only in a fresh process, on its own command's path, so every command
whose machinery is imported lazily runs once in a fresh interpreter and
must print what it prints in this one.

A numpy that is installed but does not import must not break a CC check:
the check finishes on the pure-Python sides with the same output.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from textwrap import dedent

import pytest

from repro import cli
from repro.graph import csr
from repro.histories.formats import save_history
from repro.histories.generator import RandomHistoryConfig, generate_random_history

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Run in a fresh interpreter: ``repro.cli.main(argv)``, then the exit code
#: and every loaded module name as one JSON line.  An empty argv only
#: imports the CLI.
PROBE = dedent(
    """
    import contextlib, io, json, sys
    import repro.cli
    argv = json.loads(sys.argv[1])
    code = None
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(argv)
    print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
    """
)


def _env(pythonpath):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*pythonpath, SRC, env.get("PYTHONPATH")])
    )
    return env


def _probe(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=_env([]),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: What only a CC process with numpy loads: numpy and the numpy sides of
#: the IR's per-operation passes.
NUMPY_MODULES = ("numpy", "repro.core.compiled.numpy_sides")


def _unwanted(modules, batch):
    """The loaded modules that no RC or RA check should need."""
    found = [
        name
        for name in modules
        if name in NUMPY_MODULES
        or name.startswith("repro.baselines.")
        or name == "repro.histories.generator"
    ]
    if batch and "repro.core.compiled.online" in modules:
        found.append("repro.core.compiled.online")
    return found


@pytest.fixture(scope="module")
def history_path(tmp_path_factory):
    history = generate_random_history(
        RandomHistoryConfig(num_sessions=3, num_transactions=60, num_keys=6, seed=11)
    )
    path = tmp_path_factory.mktemp("policy") / "h.plume"
    save_history(history, str(path), fmt="plume")
    return str(path)


def test_bare_import_loads_no_engine():
    loaded = _probe([])["modules"]
    assert _unwanted(loaded, batch=True) == []


#: Everything ``import repro.cli`` loads of ``repro``: the packages on the
#: way, the isolation levels, the format and baseline names, and the thin
#: ``check`` / ``format_report`` modules.
CLI_IMPORT = [
    "repro",
    "repro._lazy",
    "repro.baselines",
    "repro.cli",
    "repro.core",
    "repro.core.checker",
    "repro.core.exceptions",
    "repro.core.isolation",
    "repro.core.witnesses",
    "repro.histories",
    "repro.histories.formats",
]

#: Modules a compiled check of a plume file never runs: the object engine,
#: the vector clock only it and the baselines use, and the other formats'
#: parsers.
NOT_IN_A_COMPILED_PLUME_CHECK = [
    "repro.core.rc",
    "repro.core.ra",
    "repro.core.cc",
    "repro.core.read_consistency",
    "repro.graph.vector_clock",
    "repro.histories.formats.cobra",
    "repro.histories.formats.dbcop",
    "repro.histories.formats.native",
    "repro.histories.formats._jsonstream",
]


def test_cli_import_loads_only_what_the_parser_needs():
    loaded = _probe([])["modules"]
    ours = [name for name in loaded if name == "repro" or name.startswith("repro.")]
    assert ours == CLI_IMPORT


@pytest.mark.parametrize("mode", ["batch", "stream"])
@pytest.mark.parametrize("level", ["rc", "ra", "cc"])
def test_compiled_check_loads_no_object_engine_or_other_format(history_path, level, mode):
    argv = ["check", history_path, "-i", level]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] in (0, 1)
    assert [name for name in NOT_IN_A_COMPILED_PLUME_CHECK if name in out["modules"]] == []


#: What a consistent RC or RA check never needs: the object model and the
#: violation types (it builds no violation), CC's own code, and what a
#: dataclass would import.
NOT_IN_A_CONSISTENT_RC_OR_RA_CHECK = [
    "dataclasses",
    "inspect",
    "repro.core.compiled.cc",
    "repro.core.model",
    "repro.core.violations",
]


@pytest.mark.parametrize("mode", ["batch", "stream"])
@pytest.mark.parametrize("level", ["rc", "ra"])
def test_consistent_check_loads_only_its_levels_code(history_path, level, mode):
    argv = ["check", history_path, "-i", level]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] == 0
    loaded = [name for name in NOT_IN_A_CONSISTENT_RC_OR_RA_CHECK if name in out["modules"]]
    assert loaded == []


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_cc_check_loads_the_cc_module(history_path, mode):
    argv = ["check", history_path, "-i", "cc"]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] == 0
    assert "repro.core.compiled.cc" in out["modules"]


#: The compiled checker stack: what ``awdit convert`` never runs.
COMPILED_CHECKERS = [
    "repro.core.compiled.cc",
    "repro.core.compiled.checkers",
    "repro.core.compiled.kernels",
]

#: Per command (``{h}`` the plume history, ``{out}`` a directory for
#: written files), the modules it must not load.  The object engine and the
#: plume baseline build their own ``CommitRelation``, so they load
#: ``repro.core.commit`` and ``repro.graph.csr``; ``convert`` checks nothing.
WITHOUT_THE_COMPILED_ENGINE = {
    "convert": (
        ["convert", "{h}", "{out}/h.cobra"],
        COMPILED_CHECKERS + ["repro.core.commit", "repro.graph.csr"],
    ),
    **{
        f"object-{level}": (
            ["check", "{h}", "-i", level, "--engine", "object"],
            COMPILED_CHECKERS,
        )
        for level in ("rc", "ra", "cc")
    },
    "checker-plume": (["check", "{h}", "--checker", "plume"], COMPILED_CHECKERS),
}


@pytest.mark.parametrize("name", sorted(WITHOUT_THE_COMPILED_ENGINE))
def test_commands_without_the_compiled_engine_load_none_of_it(history_path, tmp_path, name):
    template, unwanted = WITHOUT_THE_COMPILED_ENGINE[name]
    out = _probe([arg.format(h=history_path, out=tmp_path) for arg in template])
    assert out["code"] == 0
    assert [module for module in unwanted if module in out["modules"]] == []


def test_the_compiled_package_still_serves_its_submodules():
    # The layered benchmark imports a submodule and a re-export through
    # the package; both resolve on first access.
    code = (
        "from repro.core.compiled import CompiledHistoryBuilder, checkers\n"
        "print(checkers.check_read_consistency_compiled.__name__, "
        "CompiledHistoryBuilder.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env([]), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["check_read_consistency_compiled", "CompiledHistoryBuilder"]


#: Commands whose machinery ``repro.cli`` imports when they run, other than
#: the compiled check the tests above run: ``{h}`` is the plume history and
#: ``{out}`` a directory for written files.
LAZY_COMMANDS = {
    **{
        f"check-object-{level}": ["check", "{h}", "-i", level, "--engine", "object"]
        for level in ("rc", "ra", "cc")
    },
    "check-naive": ["check", "{h}", "--checker", "naive"],
    "check-plume": ["check", "{h}", "--checker", "plume"],
    **{
        f"convert-{fmt}": ["convert", "{h}", "{out}/h." + fmt]
        for fmt in ("json", "plume", "dbcop", "cobra")
    },
    "stats": ["stats", "{h}"],
    "generate-cobra": [
        "generate", "{out}/g.cobra", "-f", "cobra",
        "--sessions", "3", "--transactions", "30", "--seed", "5",
    ],
}


@pytest.mark.parametrize("name", sorted(LAZY_COMMANDS))
def test_lazy_command_runs_the_same_in_a_fresh_interpreter(history_path, tmp_path, name):
    # Both runs take the pure-Python sides, so numpy's sides cannot hide a
    # missing import of the pure-Python ones.
    argv = [arg.format(h=history_path, out=tmp_path) for arg in LAZY_COMMANDS[name]]
    written = argv[-1] if argv[0] == "convert" else argv[1] if argv[0] == "generate" else None
    stdout = io.StringIO()
    with csr.numpy_disabled(), contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    want = written and open(written, "rb").read()
    env = _env([])
    env["AWDIT_NO_NUMPY"] = "1"
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], env=env, capture_output=True, text=True
    )
    assert "Traceback" not in fresh.stderr, fresh.stderr
    assert fresh.returncode == code, fresh.stderr
    assert _without_elapsed(fresh.stdout) == _without_elapsed(stdout.getvalue())
    if written:
        assert open(written, "rb").read() == want


@pytest.mark.parametrize("mode", ["batch", "stream"])
@pytest.mark.parametrize("level", ["rc", "ra"])
def test_rc_and_ra_never_load_numpy(history_path, level, mode):
    argv = ["check", history_path, "-i", level]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] in (0, 1)
    assert _unwanted(out["modules"], batch=mode == "batch") == []


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_cc_loads_numpy_when_available(history_path, mode):
    argv = ["check", history_path, "-i", "cc"]
    if mode == "stream":
        argv.append("--stream")
    out = _probe(argv)
    assert out["code"] in (0, 1)
    # The history clears kernels._MIN_VECTOR_READS, so the numpy sides run.
    for name in NUMPY_MODULES:
        assert (name in out["modules"]) == csr.HAVE_NUMPY
    others = [
        name for name in _unwanted(out["modules"], mode == "batch") if name not in NUMPY_MODULES
    ]
    assert others == []


@pytest.mark.skipif(not csr.HAVE_NUMPY, reason="compares against numpy's side")
def test_stats_footprint_does_not_depend_on_numpy(tmp_path):
    # Enough operations that unique-writes resolution takes its numpy side
    # in this process, and its pure-Python side in a fresh ``awdit stats``.
    history = generate_random_history(
        RandomHistoryConfig(num_sessions=4, num_transactions=201, num_keys=8, seed=2)
    )
    path = str(tmp_path / "h.plume")
    save_history(history, path, fmt="plume")
    csr.load_numpy()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["stats", path]) == 0
    env = _env([])
    env.pop("AWDIT_NO_NUMPY", None)
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.cli", "stats", path], env=env, capture_output=True, text=True
    )
    assert fresh.returncode == 0, fresh.stderr
    assert "compiled footprint" in fresh.stdout
    assert fresh.stdout == stdout.getvalue()


def _without_elapsed(text):
    return re.sub(r" in [0-9.]+ ms ", " ", text)


def test_numpy_that_fails_to_import_falls_back(history_path, tmp_path):
    # A numpy package that is found but raises on import, first on the
    # path: find_spec sees it, so only the import itself can fail.
    broken = tmp_path / "broken" / "numpy"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text('raise ImportError("numpy is broken")\n')
    argv = [sys.executable, "-m", "repro.cli", "check", history_path, "-i", "cc", "--profile"]

    def run(pythonpath):
        env = _env(pythonpath)
        env.pop("AWDIT_NO_NUMPY", None)
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    want = run([])
    got = run([str(broken.parent)])
    assert got.returncode == want.returncode, got.stderr
    assert "Traceback" not in got.stderr
    assert _without_elapsed(got.stdout) == _without_elapsed(want.stdout)
    assert re.search(r"saturation_kernel\s+fallback", got.stderr), got.stderr


#: Run in a fresh interpreter: a CC check, then whether numpy is loaded,
#: the process's thread count and the OpenBLAS setting, as one JSON line.
#: ``before`` is the setting after ``import repro.cli``, before ``main``.
THREADS_PROBE = dedent(
    """
    import contextlib, io, json, os, sys
    import repro.cli
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(["check", sys.argv[1], "-i", "cc"])
    print(json.dumps({
        "code": code,
        "before": before,
        "after": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": "numpy" in sys.modules,
        "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }))
    """
)


def _threads_probe(history_path, setting):
    env = _env([])
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_PROBE, history_path],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] in (0, 1)
    return out


@pytest.mark.skipif(
    not csr.HAVE_NUMPY or not os.path.isdir("/proc/self/task"),
    reason="counts the threads numpy's OpenBLAS starts; needs numpy and /proc",
)
def test_cc_check_starts_no_blas_thread_pool(history_path):
    # awdit calls no BLAS routine, so the CLI asks OpenBLAS for one thread
    # before a CC check imports numpy; importing repro.cli sets nothing.
    out = _threads_probe(history_path, None)
    assert out["before"] is None
    assert out["after"] == "1"
    assert out["numpy"] is True
    assert out["threads"] == 1


def test_users_blas_setting_wins(history_path):
    out = _threads_probe(history_path, "2")
    assert out["before"] == out["after"] == "2"
