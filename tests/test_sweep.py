import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import quadexp.sweep as sweep_mod
from quadexp.expansivity import AnalysisResult, Settings, Status
from quadexp.rigor import representable
from quadexp.sweep import (
    CSV_HEADER,
    SweepConfig,
    emit_plot_data,
    format_row,
    parse_row,
    run_sweep,
)

FAST = dict(
    a_min=representable("1.9999"),
    a_max=2.0,
    n=32,
    settings=Settings(k_coarse=200, k_fine=400, bisection_steps=6),
)


def fast_config(tmp_path, name, first=0, last=4, workers=1):
    return SweepConfig(
        first=first,
        last=last,
        workers=workers,
        output_path=str(tmp_path / name),
        **FAST,
    )


class Interrupted(BaseException):
    """Escapes the per-interval error handling, as an interrupt would."""


def _stat_fields(pid) -> list[str]:
    """Fields of /proc/<pid>/stat after the command name (state first,
    then the parent pid); empty once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _children(pid: int) -> list[int]:
    return [
        int(path.split("/")[2])
        for path in glob.glob("/proc/[0-9]*/stat")
        if _stat_fields(path.split("/")[2])[1:2] == [str(pid)]
    ]


def _alive(pid: int) -> bool:
    return _stat_fields(pid)[:1] not in ([], ["Z"])


class TestRowFormat:
    def test_roundtrip_success(self):
        res = AnalysisResult(7, 1.5, 1.6, Status.SUCCESS, 0.0005, 0.25, 1000, 20000, 1234)
        line = format_row(res, include_elapsed=True)
        parts = line.split(",")
        assert len(parts) == 11
        assert parts[3] == "SUCCESS"
        back = parse_row(line, 2)
        assert back.index == 7
        assert back.a_lo == 1.5 and back.a_hi == 1.6
        assert back.delta_bar == 0.0005 and back.lambda_bar == 0.25
        assert back.elapsed_ms == 1234

    def test_absent_fields_empty(self):
        res = AnalysisResult(0, 1.5, 1.6, Status.NO_EXPANSION_AT_DELTA0, None, None, 1000, 20000, 5)
        line = format_row(res)
        parts = line.split(",")
        assert parts[4] == "" and parts[5] == "" and parts[10] == ""
        back = parse_row(line, 2)
        assert back.delta_bar is None and back.lambda_bar is None

    def test_malformed_reports_line(self):
        with pytest.raises(ValueError, match="line 42"):
            parse_row("1,2,3", 42)
        with pytest.raises(ValueError, match="line 9"):
            parse_row("x,0x1p0,0x1p0,SUCCESS,,,,,1000,2000,", 9)
        # a status that is no longer produced is an unknown one
        with pytest.raises(ValueError, match="line 7"):
            parse_row("3,0x1p0,0x1p0,FINE_PARTITION_ARTIFACT,,,,,1000,2000,", 7)


class TestRunSweep:
    def test_worker_counts_are_invisible(self, tmp_path):
        p1 = run_sweep(fast_config(tmp_path, "w1.csv", workers=1))
        p2 = run_sweep(fast_config(tmp_path, "w2.csv", workers=2))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_rows_complete_and_ordered(self, tmp_path):
        path = run_sweep(fast_config(tmp_path, "all.csv", first=2, last=7))
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [parse_row(s, i) for i, s in enumerate(lines[1:], 2)]
        assert [r.index for r in rows] == [2, 3, 4, 5, 6]

    def test_resume_after_partial_run(self, tmp_path):
        full = run_sweep(fast_config(tmp_path, "straight.csv", last=5))
        partial_cfg = fast_config(tmp_path, "resumed.csv", last=2)
        run_sweep(partial_cfg)
        resumed_cfg = fast_config(tmp_path, "resumed.csv", last=5)
        run_sweep(resumed_cfg)
        with open(full, "rb") as f1, open(str(tmp_path / "resumed.csv"), "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_discards_rows_of_another_grid(self, tmp_path):
        # same path, resolutions and index range, but a coarser grid: the
        # earlier rows' endpoints are not this grid's and must not be kept
        def config(name, n, last):
            return SweepConfig(**{**FAST, "n": n}, last=last, output_path=str(tmp_path / name))

        straight = run_sweep(config("straight.csv", 16, 3))
        run_sweep(config("reused.csv", 32, 2))
        reused = run_sweep(config("reused.csv", 16, 3))
        with open(straight, "rb") as f1, open(reused, "rb") as f2:
            assert f1.read() == f2.read()

    def test_rerun_with_a_shorter_range(self, tmp_path):
        straight = run_sweep(fast_config(tmp_path, "straight.csv", last=2))
        run_sweep(fast_config(tmp_path, "cut.csv", last=4))
        cut = run_sweep(fast_config(tmp_path, "cut.csv", last=2))
        with open(straight, "rb") as f1, open(cut, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_drops_torn_final_line(self, tmp_path):
        full = run_sweep(fast_config(tmp_path, "ref.csv", last=4))
        torn = tmp_path / "torn.csv"
        with open(full) as fh:
            lines = fh.read().splitlines()
        torn.write_text("\n".join(lines[:3]) + "\n" + lines[3][:17])
        # the settings file marks the rows as this configuration's
        (tmp_path / "torn.csv.config").write_bytes((tmp_path / "ref.csv.config").read_bytes())
        run_sweep(fast_config(tmp_path, "torn.csv", last=4))
        with open(full, "rb") as f1, open(torn, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_discards_rows_of_another_radius(self, tmp_path):
        # delta0 is not in the CSV; rows computed with another one must not
        # be kept (they would carry that run's radius)
        def config(name, delta0):
            settings = Settings(k_coarse=1000, k_fine=2000, delta0=delta0, bisection_steps=6)
            return SweepConfig(
                **{**FAST, "settings": settings},
                last=2,
                output_path=str(tmp_path / name),
            )

        straight = run_sweep(config("straight.csv", representable("0.0009")))
        run_sweep(config("reused.csv", representable("0.001")))
        reused = run_sweep(config("reused.csv", representable("0.0009")))
        with open(straight) as fh:
            assert parse_row(fh.read().splitlines()[1]).delta_bar.hex() == "0x1.95810624dd2f2p-11"
        with open(straight, "rb") as f1, open(reused, "rb") as f2:
            assert f1.read() == f2.read()

    def test_failed_resume_keeps_the_written_rows(self, tmp_path, monkeypatch):
        path = run_sweep(fast_config(tmp_path, "kept.csv", last=2))
        with open(path, "rb") as fh:
            before = fh.read()
        modes = []

        def recording_open(file, mode="r", *args, **kwargs):
            if file == path:
                modes.append(mode)
            return open(file, mode, *args, **kwargs)

        def interrupted(omega, *args, **kwargs):
            raise Interrupted

        monkeypatch.setattr(sweep_mod, "open", recording_open, raising=False)
        monkeypatch.setattr(sweep_mod, "analyze", interrupted)
        with pytest.raises(Interrupted):
            run_sweep(fast_config(tmp_path, "kept.csv", last=4))
        with open(path, "rb") as fh:
            assert fh.read() == before
        # the kept rows are appended after, never rewritten: a kill while
        # they were being written again would lose them
        assert modes and not [m for m in modes if "w" in m]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_exit_when_the_sweep_is_killed(self, tmp_path):
        out = tmp_path / "killed.csv"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "quadexp.cli", "sweep",
                "--first", "59000", "--last", "60000",
                "--k-coarse", "400", "--k-fine", "800", "--steps", "8",
                "--workers", "2",
                "--output", str(out),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.time() + 120
            while time.time() < deadline and proc.poll() is None:
                if out.exists() and len(out.read_bytes().splitlines()) >= 3:  # header + >= 2 rows
                    break
                time.sleep(0.05)
            assert proc.poll() is None, "the sweep ended before it could be killed"
            workers = _children(proc.pid)
            assert workers
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            deadline = time.time() + 5
            while time.time() < deadline and any(_alive(pid) for pid in workers):
                time.sleep(0.1)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_settings_file_records_what_decides_the_rows(self, tmp_path):
        cfg = fast_config(tmp_path, "s.csv", last=1)
        run_sweep(cfg)
        text = (tmp_path / "s.csv.config").read_text()
        assert "delta0 0.001\nbisection_steps 6\n" in text
        assert "workers" not in text and "s.csv" not in text

    def test_default_settings_file(self, tmp_path):
        # row 0 of the default grid fails at the first probe, so is quick
        run_sweep(SweepConfig(first=0, last=1, output_path=str(tmp_path / "d.csv")))
        assert (tmp_path / "d.csv.config").read_text() == (
            "a_min 1.4\n"
            "a_max 2.0\n"
            "n 60000\n"
            "k_coarse 1000\n"
            "k_fine 20000\n"
            "delta0 0.001\n"
            "bisection_steps 20\n"
        )

    def test_rows_reach_the_file_as_they_are_written(self, tmp_path, monkeypatch):
        # a killed sweep keeps every finished row: none waits in a buffer
        # while the sweep waits for the next results
        path = tmp_path / "flushed.csv"
        on_disk = []
        real_wait = sweep_mod.wait

        def spying_wait(*args, **kwargs):
            on_disk.append(len(path.read_bytes().splitlines()))
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "wait", spying_wait)
        run_sweep(fast_config(tmp_path, "flushed.csv", last=6))
        assert max(on_disk) > 1  # the header and at least one row

    def test_no_more_workers_than_rows_left(self, tmp_path, monkeypatch):
        started = []
        fork_process = multiprocessing.get_context("fork").Process
        real_start = fork_process.start

        def spying_start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(fork_process, "start", spying_start)
        run_sweep(fast_config(tmp_path, "one.csv", first=3, last=4, workers=4))
        assert len(started) == 1
        # with every row kept, no worker starts
        run_sweep(fast_config(tmp_path, "one.csv", first=3, last=4, workers=4))
        assert len(started) == 1

    def test_a_dead_worker_is_named(self, tmp_path, monkeypatch):
        real = sweep_mod.analyze

        def dying(omega, *args, **kwargs):
            if omega.index == 5:
                os._exit(3)
            return real(omega, *args, **kwargs)

        def too_slow(signum, frame):
            raise TimeoutError("run_sweep hangs after a worker died")

        straight = run_sweep(fast_config(tmp_path, "straight.csv", last=9))
        monkeypatch.setattr(sweep_mod, "analyze", dying)
        cfg = fast_config(tmp_path, "dead.csv", last=9, workers=2)
        saved = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="row 5 is missing"):
                run_sweep(cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, saved)
        assert multiprocessing.active_children() == []
        with open(straight) as fh:
            expected = fh.read().splitlines()
        assert (tmp_path / "dead.csv").read_text().splitlines() == expected[:6]  # header, rows 0-4
        monkeypatch.setattr(sweep_mod, "analyze", real)
        run_sweep(cfg)
        with open(straight, "rb") as f1, open(cfg.output_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_other_workers_stop_after_a_raise(self, tmp_path, monkeypatch):
        # each analysis start is one line, appended with O_APPEND so the
        # workers' lines interleave whole
        log = str(tmp_path / "starts")
        real = sweep_mod.analyze

        def logged(omega, *args, **kwargs):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{os.getpid()} {omega.index}\n".encode())
            finally:
                os.close(fd)
            if omega.index == 3:
                raise Interrupted
            return real(omega, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "analyze", logged)
        with pytest.raises(Interrupted):
            run_sweep(fast_config(tmp_path, "raised.csv", last=20, workers=2))
        assert multiprocessing.active_children() == []
        with open(log) as fh:
            starts = [line.split() for line in fh]
        raised = [i for i, (_, index) in enumerate(starts) if index == "3"]
        assert len(raised) == 1
        raiser = starts[raised[0]][0]
        after = [pid for pid, _ in starts[raised[0] + 1:]]
        assert raiser not in after
        assert all(after.count(pid) <= 1 for pid in after)

    def test_other_workers_stop_after_a_dead_worker(self, tmp_path, monkeypatch):
        # the dead worker's run is [0, 8) and the other's [8, 16): once the
        # sweep sees the death, the other starts at most one further row
        log = str(tmp_path / "starts")

        def logged(omega, *args, **kwargs):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{os.getpid()} {omega.index}\n".encode())
            finally:
                os.close(fd)
            if omega.index == 3:
                os._exit(3)
            time.sleep(0.1)
            return AnalysisResult(omega.index, omega.a_lo, omega.a_hi, Status.ERROR,
                                  None, None, 200, 400, 0)

        monkeypatch.setattr(sweep_mod, "analyze", logged)
        with pytest.raises(RuntimeError, match="row 3 is missing"):
            run_sweep(fast_config(tmp_path, "dead.csv", last=20, workers=2))
        assert multiprocessing.active_children() == []
        with open(log) as fh:
            starts = [line.split() for line in fh]
        died = [i for i, (_, index) in enumerate(starts) if index == "3"]
        assert len(died) == 1
        after = [pid for pid, _ in starts[died[0] + 1:]]
        assert len(after) <= 1 and starts[died[0]][0] not in after
        assert not [index for _, index in starts if int(index) >= 16]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_run_starts_without_a_candidate(self, tmp_path, monkeypatch, workers):
        # rows first + 8 j start with an empty candidate cycle, every other
        # row with the one its predecessor left
        log = str(tmp_path / "candidates")

        def logged(omega, *, settings, cycle):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{omega.index} {','.join(map(str, cycle))}\n".encode())
            finally:
                os.close(fd)
            cycle[:] = [omega.index]
            return AnalysisResult(omega.index, omega.a_lo, omega.a_hi, Status.ERROR,
                                  None, None, 200, 400, 0)

        monkeypatch.setattr(sweep_mod, "analyze", logged)
        run_sweep(fast_config(tmp_path, "runs.csv", first=3, last=24, workers=workers))
        with open(log) as fh:
            seen = dict(line.rstrip("\n").split(" ") for line in fh)
        assert sorted(map(int, seen)) == list(range(3, 24))
        for index, candidate in seen.items():
            index = int(index)
            assert candidate == ("" if (index - 3) % 8 == 0 else str(index - 1))

    def test_bool_is_not_a_count(self, tmp_path):
        with pytest.raises(ValueError, match="bisection_steps must be an integer, got True"):
            Settings(bisection_steps=True)
        cfg = SweepConfig(workers=True, output_path=str(tmp_path / "b.csv"))
        with pytest.raises(ValueError, match="workers must be an integer, got True"):
            cfg.validate()
        with pytest.raises(ValueError):
            run_sweep(cfg)
        assert os.listdir(tmp_path) == []

    def test_panic_recorded_and_continues(self, tmp_path, monkeypatch):
        real = sweep_mod.analyze

        def exploding(omega, *args, **kwargs):
            if omega.index == 1:
                raise RuntimeError("boom")
            return real(omega, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "analyze", exploding)
        path = run_sweep(fast_config(tmp_path, "panic.csv", last=3))
        with open(path) as fh:
            rows = [parse_row(s, i) for i, s in enumerate(fh.read().splitlines()[1:], 2)]
        assert [r.index for r in rows] == [0, 1, 2]
        assert rows[1].status is Status.ERROR
        assert rows[0].status is not Status.ERROR

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(), reason="no forkserver"
    )
    def test_workers_ignore_the_default_start_method(self, tmp_path, monkeypatch):
        # forkserver is Linux's default from Python 3.14; the workers must
        # still see a patched analyze and survive their parent watcher
        saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            self.test_panic_recorded_and_continues(tmp_path, monkeypatch)
        finally:
            multiprocessing.set_start_method(saved, force=True)

    def test_unwritable_output_aborts(self, tmp_path):
        cfg = fast_config(tmp_path / "missing-dir", "x.csv")
        with pytest.raises(OSError):
            run_sweep(cfg)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            fast_config(tmp_path, "x.csv", first=3, last=3).validate()
        with pytest.raises(ValueError):
            SweepConfig(workers=0, output_path="x.csv").validate()
        for bad in (dict(k_coarse=1001), dict(k_fine=0), dict(delta0=0.0),
                    dict(delta0=float("inf")), dict(bisection_steps=-1),
                    dict(k_coarse=400.0), dict(k_fine=2000.0)):
            with pytest.raises(ValueError):
                Settings(**bad)
        for bad in (dict(a_min=0.0), dict(a_max=2.5), dict(a_min=float("nan"))):
            with pytest.raises(ValueError):
                SweepConfig(output_path="x.csv", **bad).validate()
        # a count that is not an integer fails before anything is written
        for name, value in (("n", 16.0), ("first", 0.0), ("last", 4.0), ("workers", 2.0)):
            fields = dict(a_min=1.9999, a_max=2.0, n=16, first=0, last=4)
            fields[name] = value
            cfg = SweepConfig(output_path=str(tmp_path / "int.csv"), **fields)
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                run_sweep(cfg)
            assert not os.path.exists(tmp_path / "int.csv")

    def test_settings_that_fail_every_row_write_nothing(self, tmp_path):
        out = str(tmp_path / "x.csv")
        with pytest.raises(ValueError, match="even"):
            run_sweep(SweepConfig(settings=Settings(k_coarse=1001), output_path=out))
        cfg = SweepConfig(a_min=2.5, a_max=3.0, n=4, first=0, last=4, output_path=out)
        with pytest.raises(ValueError, match=r"outside \(0, 2\]"):
            run_sweep(cfg)
        assert os.listdir(tmp_path) == []


class TestPlotData:
    def test_empty_results(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        files = emit_plot_data(str(path))
        assert len(files) == 4
        for f in files:
            assert os.path.getsize(f) == 0

    def test_single_success_row(self, tmp_path):
        res = AnalysisResult(3, 1.5, 1.6, Status.SUCCESS, 0.0005, 0.25, 1000, 2000, 0)
        path = tmp_path / "one.csv"
        path.write_text(CSV_HEADER + "\n" + format_row(res) + "\n")
        files = emit_plot_data(str(path))
        mid = (1.5 + 1.6) / 2
        expect = [
            f"{mid:.17g} {0.0005:.17g}",
            f"{mid:.17g} {0.25:.17g}",
            f"{0.0005:.17g} {0.25:.17g}",
            f"{mid:.17g} {0.0005:.17g} {0.25:.17g}",
        ]
        for f, line in zip(files, expect):
            with open(f) as fh:
                assert fh.read().splitlines() == [line]

    def test_row_counts_match_success_count(self, tmp_path):
        rows = [
            AnalysisResult(0, 1.5, 1.6, Status.SUCCESS, 1e-4, 0.1, 1000, 2000, 0),
            AnalysisResult(1, 1.6, 1.7, Status.NO_EXPANSION_AT_DELTA0, None, None, 1000, 2000, 0),
            AnalysisResult(2, 1.7, 1.8, Status.SUCCESS, 2e-4, 0.2, 1000, 2000, 0),
            AnalysisResult(3, 1.8, 1.9, Status.ERROR, None, None, 1000, 2000, 0),
        ]
        path = tmp_path / "mix.csv"
        path.write_text(CSV_HEADER + "\n" + "".join(format_row(r) + "\n" for r in rows))
        files = emit_plot_data(str(path))
        for f in files:
            with open(f) as fh:
                assert len(fh.read().splitlines()) == 2

    def test_malformed_errors_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nnot,a,row\n")
        with pytest.raises(ValueError, match="line 2"):
            emit_plot_data(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("index,other\n")
        with pytest.raises(ValueError, match="line 1"):
            emit_plot_data(str(path))
