"""Batch driver over a range of grid intervals: dynamic work queue,
ordered checkpointed CSV output, resume by appending, and plot-data
emission.

The sweep's process starts ``min(workers, runs left)`` forked worker
processes (even one worker analyzes in a child) and runs no thread of its
own.  The rows left are cut into runs of ``RUN`` consecutive rows, from
the first row the sweep computes.  The work queue is one shared counter:
each worker claims its next run by moving the counter past it under its
lock, so the queue is dynamic at run granularity and the parent
dispatches nothing.  A worker analyzes a run's rows in order, handing
each analysis the witness cycle of its previous row's first probe (none
for a run's first row): a rejected row whose neighbour's rejecting cycle
still closes with a nonpositive sum skips its graph and solve.  The
candidate changes the work, never a row, and since every run starts
without one, which rows start cold does not depend on the worker count.
A worker sends each ``(index, row)`` over its own one-way pipe; the
parent waits on the pipes' receiving ends, keeps out-of-order rows in a
reorder buffer and writes rows in index order, each flushed as it is
written (so a killed sweep keeps every finished row) and fsynced every
``FSYNC_EVERY`` rows.
Failures: an exception that escapes a worker's analysis (one that is not
an ``Exception``, which only marks its row ``ERROR``) sets the stop mark,
a counter value past the range, and is re-raised in the sweep's process;
a worker that dies holding a run has the stop mark set the same way.
Each worker reads the mark before each row, so after it is set no worker
starts more than one further row, and the others' unfinished runs are
given up; the sweep then raises an error naming the first missing index.
On any exception the sweep's process sets the stop mark, terminates its
workers and joins them before the exception propagates, so no worker
outlives ``run_sweep``.  Workers are always forked, whatever the
platform's default start method, so they see the sweep's module state (a
patched ``analyze`` included) and the grid points, and each exits on its
own when the sweep's process dies.
Beside the results file, ``<output>.config`` records the grid and the
analysis ``Settings``, which decide the rows' bytes; a restart with the
same ones truncates the file just past its contiguous prefix of complete
rows and appends after it (kept rows are never rewritten); any other
restart starts over.  The file bytes are a pure function of the
configuration minus the worker count, so per-row wall time is not
recorded (the elapsed field is left empty).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait

from .expansivity import AnalysisResult, Settings, Status, analyze, require_integers
from .family import ParamInterval
from .partition import subdivide_parameters
from .rigor import representable

__all__ = [
    "SweepConfig",
    "CSV_HEADER",
    "run_sweep",
    "emit_plot_data",
    "format_row",
    "parse_row",
]

CSV_HEADER = (
    "index,a_lo_hex,a_hi_hex,status,delta_hex,lambda_hex,"
    "delta_dec,lambda_dec,k_coarse,k_fine,elapsed_ms"
)

DEFAULT_N = 60000
FSYNC_EVERY = 16
RUN = 8  # rows a worker claims at once; each run starts without a candidate cycle


@dataclass(frozen=True)
class SweepConfig:
    a_min: float = representable("1.4")
    a_max: float = 2.0
    n: int = DEFAULT_N
    first: int = 0
    last: int = DEFAULT_N
    settings: Settings = Settings()
    workers: int = 1
    output_path: str = "results.csv"

    def validate(self) -> None:
        require_integers(self, "n", "first", "last", "workers")
        if not (0.0 < self.a_min and self.a_max <= 2.0):
            raise ValueError(f"parameter range [{self.a_min!r}, {self.a_max!r}] outside (0, 2]")
        if not 0 <= self.first < self.last <= self.n:
            raise ValueError(f"index range [{self.first}, {self.last}) not within [0, {self.n})")
        if self.workers < 1:
            raise ValueError("need at least one worker")


def _hex(x: float | None) -> str:
    return "" if x is None else float(x).hex()


def _dec(x: float | None) -> str:
    return "" if x is None else f"{float(x):.17g}"


def format_row(res: AnalysisResult, include_elapsed: bool = False) -> str:
    """Serialize one result as a CSV line (hex fields bit-exact, decimal
    fields 17-significant-digit conveniences, absent values empty)."""
    elapsed = str(res.elapsed_ms) if include_elapsed else ""
    return ",".join(
        [
            str(res.index),
            float(res.a_lo).hex(),
            float(res.a_hi).hex(),
            res.status.value,
            _hex(res.delta_bar),
            _hex(res.lambda_bar),
            _dec(res.delta_bar),
            _dec(res.lambda_bar),
            str(res.k_coarse),
            str(res.k_fine),
            elapsed,
        ]
    )


def parse_row(line: str, lineno: int = 0) -> AnalysisResult:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 11:
        raise ValueError(f"line {lineno}: expected 11 fields, got {len(parts)}")
    try:
        index = int(parts[0])
        a_lo = float.fromhex(parts[1])
        a_hi = float.fromhex(parts[2])
        status = Status(parts[3])
        delta = float.fromhex(parts[4]) if parts[4] else None
        lam = float.fromhex(parts[5]) if parts[5] else None
        k_coarse = int(parts[8])
        k_fine = int(parts[9])
        elapsed = int(parts[10]) if parts[10] else 0
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return AnalysisResult(index, a_lo, a_hi, status, delta, lam, k_coarse, k_fine, elapsed)


def _exit_with_parent(parent: int) -> None:
    """Start a thread that ends this forked worker once its parent, the
    sweep's process, is gone (a killed sweep cannot stop its workers)."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _analyze_task(omega: ParamInterval, config: SweepConfig, cycle: list[int]) -> tuple[int, str]:
    try:
        res = analyze(omega, settings=config.settings, cycle=cycle)
    except Exception as exc:  # a panic in one interval must not kill the sweep
        print(f"analysis of interval {omega.index} failed: {exc!r}", file=sys.stderr)
        res = AnalysisResult(
            omega.index, omega.a_lo, omega.a_hi, Status.ERROR, None, None,
            config.settings.k_coarse, config.settings.k_fine, 0,
        )
    return omega.index, format_row(res)


def _stop_claims(counter, last: int) -> None:
    """Set the stop mark: a counter value past ``last``, which claims never
    reach (the last run moves the counter to ``last`` exactly)."""
    with counter.get_lock():
        counter.value = last + 1


def _claim_rows(config: SweepConfig, window: list[float], counter, conn, parent: int) -> None:
    """Body of a forked worker: claim the next run of up to ``RUN`` rows
    from the shared counter, analyze its rows in order, each handed its
    predecessor's witness, and send each ``(index, row)`` to the parent,
    until the counter reaches ``config.last``.  The stop mark is read
    before each row.  An exception that escapes the analysis sets the
    stop mark and is sent to the parent."""
    _exit_with_parent(parent)
    cycle: list[int] = []
    try:
        while True:
            with counter.get_lock():
                begin = counter.value
                if begin >= config.last:
                    return
                counter.value = end = min(begin + RUN, config.last)
            cycle.clear()
            for index in range(begin, end):
                if counter.value > config.last:
                    return
                at = index - config.first
                omega = ParamInterval(index, window[at], window[at + 1])
                conn.send(_analyze_task(omega, config, cycle))
    except BaseException as exc:
        _stop_claims(counter, config.last)
        conn.send(exc)


def _config_text(config: SweepConfig) -> str:
    """The configuration that decides the rows' bytes (the grid and the
    analysis settings, not the worker count, index range or output path),
    one ``name value`` line each (a float's repr reads back bit-exactly)."""
    grid = {"a_min": config.a_min, "a_max": config.a_max, "n": config.n}
    fields = {**grid, **asdict(config.settings)}
    return "".join(f"{name} {value!r}\n" for name, value in fields.items())


def _completed_prefix(path: str, config: SweepConfig, window: list[float]) -> tuple[int, int]:
    """Rows to keep from an interrupted results file: how many complete
    rows open it as a valid contiguous prefix of [first, last), and the
    byte offset just past the last of them; (0, 0) keeps nothing.  Nothing
    is kept when the settings file beside it is missing or records other
    settings, or when a row's resolutions or endpoints are not this grid's
    (``window`` holds the grid points first .. last)."""
    try:
        with open(path + ".config", "r", encoding="ascii", errors="replace") as fh:
            if fh.read() != _config_text(config):
                return 0, 0
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return 0, 0
    header = (CSV_HEADER + "\n").encode("ascii")
    if not data.startswith(header):
        return 0, 0
    offset = len(header)
    kept = 0
    for index in range(config.first, config.last):
        end = data.find(b"\n", offset)
        if end < 0:
            break  # a torn final line from a killed run
        try:
            res = parse_row(data[offset:end].decode("ascii"))
        except ValueError:
            break
        if res.index != index:
            break
        at = index - config.first
        if (res.k_coarse, res.k_fine, res.a_lo, res.a_hi) != (
            config.settings.k_coarse, config.settings.k_fine, window[at], window[at + 1]
        ):
            return 0, 0  # file from a different configuration: start over
        kept += 1
        offset = end + 1
    return kept, offset if kept else 0


def run_sweep(config: SweepConfig) -> str:
    """Analyze every grid interval in the configured range, writing one CSV
    row per index in index order.  Restarting with an existing results file
    and the same settings appends after its last complete row; the final
    file is byte-identical for any worker count.  Returns the output path."""
    config.validate()
    grid = subdivide_parameters(config.a_min, config.a_max, config.n)
    window = grid.window(config.first, config.last).tolist()
    kept, offset = _completed_prefix(config.output_path, config, window)
    start = config.first + kept
    next_index = start

    with open(config.output_path, "a", encoding="ascii", newline="\n") as out:
        # rows of other settings are emptied before the settings file names
        # this run's, so a kill in between cannot pass them off as this
        # run's; a lost settings file only costs recomputation, hence no fsync
        out.truncate(offset)
        with open(config.output_path + ".config", "w", encoding="ascii", newline="\n") as fh:
            fh.write(_config_text(config))
        if offset == 0:
            out.write(CSV_HEADER + "\n")
        out.flush()  # the workers fork with a copy of this buffer

        fork = multiprocessing.get_context("fork")
        counter = fork.Value("q", start)
        readers: dict = {}  # each worker's receiving end: its process
        buffered: dict[int, str] = {}
        try:
            for _ in range(min(config.workers, len(range(start, config.last, RUN)))):
                reader, writer = fork.Pipe(duplex=False)
                proc = fork.Process(
                    target=_claim_rows,
                    args=(config, window, counter, writer, os.getpid()),
                    daemon=True,
                )
                proc.start()
                readers[reader] = proc
                # the worker holds the only sending end: its exit is an EOF
                writer.close()
            while readers:
                for reader in wait(list(readers)):
                    try:
                        message = reader.recv()
                    except EOFError:
                        proc = readers.pop(reader)
                        reader.close()
                        proc.join()
                        if proc.exitcode:
                            # it died holding a row: the others finish theirs
                            _stop_claims(counter, config.last)
                        continue
                    if isinstance(message, BaseException):
                        raise message
                    index, row = message
                    buffered[index] = row
                while next_index in buffered:
                    out.write(buffered.pop(next_index) + "\n")
                    out.flush()
                    next_index += 1
                    if (next_index - start) % FSYNC_EVERY == 0:
                        os.fsync(out.fileno())
        except BaseException:
            _stop_claims(counter, config.last)
            for proc in readers.values():
                proc.terminate()
            raise
        finally:
            for reader, proc in readers.items():
                reader.close()
                proc.join()
        out.flush()
        os.fsync(out.fileno())
    if next_index != config.last:
        raise RuntimeError(f"a sweep worker exited without a result: row {next_index} is missing")
    return config.output_path


PLOT_FILES = (
    "delta_by_param.dat",
    "lambda_by_param.dat",
    "lambda_by_delta.dat",
    "param_delta_lambda.dat",
)


def emit_plot_data(results_path: str, out_dir: str | None = None) -> list[str]:
    """Write the four whitespace-separated plot data files from a results
    CSV, using SUCCESS rows only: (a_mid, delta), (a_mid, lambda),
    (delta, lambda), and (a_mid, delta, lambda), in index order."""
    if out_dir is None:
        out_dir = os.path.dirname(os.path.abspath(results_path))
    with open(results_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("line 1: missing or malformed results header")
    successes: list[AnalysisResult] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        res = parse_row(line, lineno)
        if res.status is Status.SUCCESS:
            if res.delta_bar is None or res.lambda_bar is None:
                raise ValueError(f"line {lineno}: SUCCESS row missing certified values")
            successes.append(res)

    paths = [os.path.join(out_dir, name) for name in PLOT_FILES]
    streams = [open(p, "w", encoding="ascii", newline="\n") for p in paths]
    try:
        for res in successes:
            a_mid = (res.a_lo + res.a_hi) / 2.0
            d = f"{res.delta_bar:.17g}"
            lam = f"{res.lambda_bar:.17g}"
            am = f"{a_mid:.17g}"
            streams[0].write(f"{am} {d}\n")
            streams[1].write(f"{am} {lam}\n")
            streams[2].write(f"{d} {lam}\n")
            streams[3].write(f"{am} {d} {lam}\n")
    finally:
        for s in streams:
            s.close()
    return paths
