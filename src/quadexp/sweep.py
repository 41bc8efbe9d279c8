"""Batch driver over a range of grid intervals: dynamic work queue,
ordered checkpointed CSV output, idempotent resume, and plot-data
emission.

Rows are written in index order regardless of completion order (a
reorder buffer holds out-of-order results) and flushed every
``checkpoint_every`` rows.  Beside the results file, ``<output>.config``
records the settings that decide the rows' bytes; a restart with the same
settings skips the contiguous prefix of already-written rows, and any other
restart starts over.  The file bytes are a pure function of the
configuration minus the worker count; per-row wall time is therefore not
recorded in sweep output (the elapsed field is left empty).
"""

from __future__ import annotations

import concurrent.futures
import os
import sys
from dataclasses import dataclass

from .expansivity import (
    DEFAULT_BISECTION_STEPS,
    DEFAULT_DELTA0,
    DEFAULT_K_COARSE,
    DEFAULT_K_FINE,
    AnalysisResult,
    Status,
    analyze,
)
from .family import ParamInterval
from .partition import ParamGrid, subdivide_parameters
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


@dataclass(frozen=True)
class SweepConfig:
    a_min: float = representable("1.4")
    a_max: float = 2.0
    n: int = DEFAULT_N
    first: int = 0
    last: int = DEFAULT_N
    k_coarse: int = DEFAULT_K_COARSE
    k_fine: int = DEFAULT_K_FINE
    delta0: float = DEFAULT_DELTA0
    bisection_steps: int = DEFAULT_BISECTION_STEPS
    workers: int = 1
    output_path: str = "results.csv"
    checkpoint_every: int = 16

    def validate(self) -> None:
        if not 0 <= self.first < self.last <= self.n:
            raise ValueError(f"index range [{self.first}, {self.last}) not within [0, {self.n})")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint interval must be positive")


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


def _analyze_task(args) -> tuple[int, str]:
    index, a_lo, a_hi, k_fine, delta0, steps, k_coarse = args
    omega = ParamInterval(index, a_lo, a_hi)
    try:
        res = analyze(omega, k_fine, delta0, steps, k_coarse)
    except Exception as exc:  # a panic in one interval must not kill the sweep
        print(f"analysis of interval {index} failed: {exc!r}", file=sys.stderr)
        res = AnalysisResult(
            index, a_lo, a_hi, Status.ERROR, None, None, k_coarse, k_fine, 0
        )
    return index, format_row(res)


def _settings(config: SweepConfig) -> str:
    """The configuration fields that decide the rows' bytes (not the
    worker count, index range, output path or checkpoint interval), one
    ``name value`` line each (a float's repr reads back bit-exactly)."""
    fields = ("a_min", "a_max", "n", "k_coarse", "k_fine", "delta0", "bisection_steps")
    return "".join(f"{name} {getattr(config, name)!r}\n" for name in fields)


def _completed_prefix(path: str, config: SweepConfig, grid: ParamGrid) -> list[str]:
    """Rows already present in an interrupted results file: the valid
    contiguous prefix of [config.first, config.last) (a torn final line
    from a killed run is dropped).  Nothing is reused when the settings
    file beside it is missing or records other settings, or when a row's
    resolutions or endpoints differ from this configuration's grid."""
    try:
        with open(path + ".config", "r", encoding="ascii", errors="replace") as fh:
            if fh.read() != _settings(config):
                return []
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return []
    if not lines or lines[0] != CSV_HEADER:
        return []
    rows: list[str] = []
    expect = config.first
    for line in lines[1:]:
        if expect == config.last:
            break
        try:
            res = parse_row(line)
        except ValueError:
            break
        if res.index != expect:
            break
        omega = grid.interval(res.index)
        if (
            res.k_coarse != config.k_coarse
            or res.k_fine != config.k_fine
            or res.a_lo != omega.a_lo
            or res.a_hi != omega.a_hi
        ):
            return []  # file from a different configuration: start over
        rows.append(line)
        expect += 1
    return rows


def run_sweep(config: SweepConfig) -> str:
    """Analyze every grid interval in the configured range, writing one CSV
    row per index in index order.  Restarting with an existing results file
    and the same settings resumes after its last complete row; the final
    file is byte-identical for any worker count.  Returns the output path."""
    config.validate()
    grid = subdivide_parameters(config.a_min, config.a_max, config.n)
    done_rows = _completed_prefix(config.output_path, config, grid)
    start = config.first + len(done_rows)

    out_dir = os.path.dirname(os.path.abspath(config.output_path))
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir!r} is not writable")

    # rows of other settings are emptied before the settings file names
    # this run's, so a kill in between cannot pass them off as this run's;
    # a lost settings file only costs recomputation, hence no fsync
    if not done_rows and os.path.exists(config.output_path):
        os.truncate(config.output_path, 0)
    with open(config.output_path + ".config", "w", encoding="ascii", newline="\n") as fh:
        fh.write(_settings(config))

    def task_args(i: int):
        omega = grid.interval(i)
        return (
            i,
            omega.a_lo,
            omega.a_hi,
            config.k_fine,
            config.delta0,
            config.bisection_steps,
            config.k_coarse,
        )

    with open(config.output_path, "w", encoding="ascii", newline="\n") as out:
        out.write(CSV_HEADER + "\n")
        for line in done_rows:
            out.write(line + "\n")
        out.flush()

        pending = list(range(start, config.last))
        next_index = start
        buffered: dict[int, str] = {}
        written_since_flush = 0

        def drain() -> None:
            nonlocal next_index, written_since_flush
            while next_index in buffered:
                out.write(buffered.pop(next_index) + "\n")
                next_index += 1
                written_since_flush += 1
                if written_since_flush >= config.checkpoint_every:
                    out.flush()
                    os.fsync(out.fileno())
                    written_since_flush = 0

        if config.workers == 1:
            for i in pending:
                buffered[i] = _analyze_task(task_args(i))[1]
                drain()
        else:
            window = config.workers * 4
            with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
                inflight = set()
                it = iter(pending)
                for i in it:
                    inflight.add(pool.submit(_analyze_task, task_args(i)))
                    if len(inflight) >= window:
                        break
                while inflight:
                    finished, inflight = concurrent.futures.wait(
                        inflight, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    for fut in finished:
                        idx, row = fut.result()
                        buffered[idx] = row
                    drain()
                    for i in it:
                        inflight.add(pool.submit(_analyze_task, task_args(i)))
                        if len(inflight) >= window:
                            break
        drain()
        out.flush()
        os.fsync(out.fileno())
    if next_index != config.last:
        raise AssertionError(f"sweep stopped at index {next_index}, expected {config.last}")
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
