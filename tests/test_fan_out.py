"""Sweeps measured by forked workers write what one process writes.

`scenario._fan_out` hands contiguous blocks of sweep points to one forked
worker per usable CPU. Every output byte, every skip line and every exit code
must be those of the same run on one CPU, every worker must be joined when a
sweep ends or fails, and importing the package must not import
multiprocessing.
"""

import json
import multiprocessing
import multiprocessing.context
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import wva_sense
from wva_sense.cli import main, replay_manifest
from wva_sense.config import load_scenario
from wva_sense.errors import ConfigError
from wva_sense.scenario import SweepKernel, _fan_out, _workers

ROOT = Path(__file__).resolve().parent.parent
BENCH = str(ROOT / "configs" / "bench.json")
SRC = str(Path(wva_sense.__file__).resolve().parent.parent)  # subprocesses import the same copy

pytestmark = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="sweeps fan out only where fork and sched_getaffinity exist")


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the process may use to `n`; returns the worker processes
    started since, in start order."""
    started = []

    class Recorded(multiprocessing.context.ForkProcess):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", Recorded)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        started.clear()
        return started

    return use


def _files(out: Path) -> dict:
    """Each file's bytes, the manifest without its creation time; removes
    `out`, so the next run prints the same path."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["created_utc"]
    return {**files, "manifest.json": manifest}


def _run(argv, out, capsys):
    """Exit code, printed text and files of one CLI run into `out`."""
    code = main([*argv, "--out", str(out)])
    return code, capsys.readouterr(), _files(out) if out.exists() else None


def test_worker_count_rule(cpus, monkeypatch):
    cpus(2)
    assert _workers(181, 4001) == 2  # the config's 0.5-degree sweep-beta
    assert _workers(13, 4001) == 1  # the quick-start sweep-temp
    assert _workers(1, 10**6) == 1  # one point
    cpus(8)
    assert _workers(181, 4001) == 3  # at least _MIN_SAMPLES_PER_WORKER each
    cpus(1)
    assert _workers(181, 4001) == 1
    cpus(2)
    monkeypatch.delattr(os, "fork")
    assert _workers(181, 4001) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _workers(181, 4001) == 1


@pytest.mark.parametrize("argv", [
    ["sweep-beta", "--config", BENCH, "--dt", "11", "--snr-min", "20",
     "--dump-spectra=-40,-25,0"],
    ["sweep-temp", "--config", BENCH, "--beta", "-40", "--dt", "0:60:0.5"],
], ids=["sweep-beta", "sweep-temp"])
def test_outputs_do_not_depend_on_the_cpu_count(tmp_path, capsys, cpus, argv):
    """A 181-angle sweep-beta with its SNR footer and dumps, its replay, and a
    121-point sweep-temp write the same bytes and print the same lines on one
    CPU and, from two forked workers, on two."""
    runs = {}
    for n in (1, 2):
        started = cpus(n)
        out, replayed = tmp_path / "run", tmp_path / "replay"
        assert main([*argv, "--out", str(out)]) == 0
        replay_manifest(out / "manifest.json", replayed)
        runs[n] = (_files(out), _files(replayed), capsys.readouterr())
        assert len(started) == (0 if n == 1 else 4)  # two for the run, two for its replay
        assert multiprocessing.active_children() == []
    assert runs[1] == runs[2]
    assert runs[1][0] == runs[1][1]  # the replay wrote the run's files


@pytest.mark.parametrize("bad", [30, 110], ids=["first_block", "second_block"])
def test_a_worker_error_exits_as_the_serial_run(tmp_path, capsys, cpus, bad):
    """A temperature that moves fbg1 off the grid, in either worker's block:
    the same exit code and message as on one CPU, no files, no workers."""
    dts = [0.5 * i for i in range(121)]
    dts[bad] = 3000.0
    argv = ["sweep-temp", "--config", BENCH, "--dt", ",".join(map(str, dts))]
    runs = {}
    for n in (1, 2):
        started = cpus(n)
        runs[n] = _run(argv, tmp_path / "run", capsys)
        assert len(started) == (0 if n == 1 else 2)
        assert multiprocessing.active_children() == []
    assert runs[1] == runs[2]
    code, captured, files = runs[2]
    assert (code, files) == (2, None)
    assert "3020 degC" in captured.err


def test_dark_port_skip_lines_print_once_in_order(tmp_path, capsys, cpus):
    doc = json.loads(Path(BENCH).read_text())
    doc["interferometer"]["phi_rad"] = 0.0  # beta = -45 deg is singular at dt = 0
    cfg = tmp_path / "dark.json"
    cfg.write_text(json.dumps(doc))
    runs = {}
    for n in (1, 2):
        cpus(n)
        runs[n] = _run(["sweep-beta", "--config", str(cfg)], tmp_path / "run", capsys)
    assert runs[1] == runs[2]
    assert runs[2][1].err == "skipping beta=-45 deg: no signal at this angle\n"


def test_rows_equal_on_one_and_two_cpus_and_a_closed_sweep_joins(cpus):
    kernel = SweepKernel(replace(load_scenario(BENCH).scenario, t1_c=31.0))
    ref = kernel.reference()
    betas = [-1.5 + 0.01 * i for i in range(151)]
    cpus(1)
    serial = list(kernel.rows(betas, ref))
    started = cpus(2)
    assert list(kernel.rows(betas, ref)) == serial
    assert len(started) == 2
    rows = kernel.rows(betas, ref)
    assert next(rows) == serial[0]
    rows.close()
    assert multiprocessing.active_children() == []


def _pid(i):
    return os.getpid()


def test_blocks_are_contiguous_and_run_in_workers(cpus):
    cpus(2)
    pids = list(_fan_out(6, 10**6, _pid))
    first, second = pids[0], pids[-1]
    assert pids == [first] * 3 + [second] * 3
    assert os.getpid() not in (first, second) and first != second


def test_a_dead_worker_has_its_block_measured_in_the_parent(cpus):
    parent = os.getpid()

    def measure(i):
        if os.getpid() != parent:
            os._exit(1)
        return i * i

    cpus(2)
    assert list(_fan_out(5, 10**6, measure)) == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


def test_a_worker_that_cannot_start_has_its_block_measured_in_the_parent(cpus, monkeypatch):
    class Unstartable(multiprocessing.context.ForkProcess):
        def start(self):
            raise BlockingIOError(11, "Resource temporarily unavailable")

    cpus(2)
    monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", Unstartable)
    assert list(_fan_out(5, 10**6, _pid)) == [os.getpid()] * 5


def test_results_before_a_worker_error_come_first(cpus):
    def measure(i):
        if i == 4:
            raise ConfigError(f"point {i}")
        return i

    cpus(2)
    got = []
    with pytest.raises(ConfigError, match="^point 4$"):
        for value in _fan_out(6, 10**6, measure):
            got.append(value)
    assert got == [0, 1, 2, 3]
    assert multiprocessing.active_children() == []


def _fan_out_pids(_):
    return set(_fan_out(4, 10**6, _pid)), os.getpid()


def test_a_pool_worker_measures_inline(cpus):
    """A multiprocessing.Pool worker is daemonic and may not start processes."""
    cpus(2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pids, worker = pool.map(_fan_out_pids, [0])[0]
    assert pids == {worker}


def test_a_process_running_threads_measures_inline(cpus):
    """A fork copies only the calling thread, so it could copy a lock that
    another thread holds."""
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert list(_fan_out(4, 10**6, _pid)) == [os.getpid()] * 4
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_text_printed_before_a_sweep_appears_once(tmp_path):
    # A piped stdout is block-buffered: a fork that copied unflushed text
    # would print it again from the worker.
    done = _python("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
                   "from wva_sense.cli import main\n"
                   "print('before the sweep')\n"
                   "sys.exit(main(sys.argv[1:]))",
                   "sweep-beta", "--config", BENCH, "--out", str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("before the sweep") == 1
    assert done.stdout.count("sweep-beta: 181 points") == 1


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    done = _python("import sys, wva_sense.cli; print('multiprocessing' in sys.modules)")
    assert done.stdout == "False\n", done.stderr
