import math
import os
import shlex
from pathlib import Path

import pytest

from quadexp.cli import build_parser, main
from quadexp.expansivity import lambda_bound
from quadexp.family import ParamInterval, phase_domain
from quadexp.partition import phase_partition
from quadexp.selfcheck import cells_at
from quadexp.sweep import CSV_HEADER, parse_row


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST_INTERVAL = ["--a-lo", "1.9999", "--a-hi", "2"]


class TestAnalyzeCommand:
    def test_success_row_and_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", *FAST_INTERVAL, "--k-fine", "800", "--k-coarse", "400", "--steps", "8",
        )
        assert code == 0
        row = parse_row(out.strip(), 1)
        assert row.status.value == "SUCCESS"
        assert row.lambda_bar is not None and row.lambda_bar > 0

    def test_flagship_full_resolution(self, capsys):
        # the canonical experiment interval at the default fine cell count
        code, out, _ = run_cli(capsys, "analyze", *FAST_INTERVAL, "--k-fine", "20000")
        assert code == 0
        row = parse_row(out.strip(), 1)
        assert row.status.value == "SUCCESS"
        assert row.lambda_bar is not None and row.lambda_bar > 0.001

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--a-lo", "1.77", "--a-hi", "1.7701",
            "--k-fine", "400", "--k-coarse", "400", "--steps", "4",
        )
        assert code == 1
        assert "NO_EXPANSION_AT_DELTA0" in out

    def test_index_selection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--index", "0", "--n", "60000",
            "--k-fine", "200", "--k-coarse", "200", "--steps", "4",
        )
        assert code == 1
        row = parse_row(out.strip(), 1)
        assert row.index == 0

    def test_invalid_range_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a-lo", "2", "--a-hi", "1"])
        assert exc.value.code == 2
        assert "reversed parameter interval [2.0, 1.0]" in capsys.readouterr().err

    def test_requires_exactly_one_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a-lo", "1.5", "--a-hi", "1.6", "--index", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("index, n", [("3", "2"), ("0", "-5"), ("0", "0"), ("-1", "4")])
    def test_index_outside_grid_usage_error(self, capsys, index, n):
        # an empty grid is no different from an index past its end
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--index", index, "--n", n])
        assert exc.value.code == 2
        assert f"--index {index} outside [0, {n})" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus", "1"])
        assert exc.value.code == 2


class TestLambdaAndKstudy:
    def test_lambda_prints_hex_and_decimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", *FAST_INTERVAL, "--delta", "0.001", "--k", "400"
        )
        assert code == 0
        hex_part, dec_part = out.split()
        assert float.fromhex(hex_part) == float(dec_part)

    def test_kstudy_matches_lambda_bit_exactly(self, capsys):
        code, out_lambda, _ = run_cli(
            capsys, "lambda", *FAST_INTERVAL, "--delta", "0.0005", "--k", "600"
        )
        assert code == 0
        code, out_study, _ = run_cli(
            capsys,
            "kstudy", *FAST_INTERVAL, "--delta", "0.0005", "--k-list", "600",
        )
        assert code == 0
        fields = out_study.split()
        assert fields[0] == "600"
        assert fields[1] == out_lambda.split()[0]

    def test_kstudy_multiple_k(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "kstudy", *FAST_INTERVAL, "--delta", "0.001", "--k-list", "200,400",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split()[0] == "200" and lines[1].split()[0] == "400"

    def test_point_interval_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", "--a-lo", "2", "--a-hi", "2", "--delta", "0.001", "--k", "100"
        )
        assert code == 0
        assert float.fromhex(out.split()[0]) == lambda_bound(ParamInterval(0, 2.0, 2.0), 0.001, 100)

    def test_kstudy_rejects_negative_steps(self, capsys):
        # with a given radius too: a bad flag is not silently ignored
        for radius in ([], ["--delta", "0.001"]):
            code, out, err = run_cli(
                capsys, "kstudy", *FAST_INTERVAL, "--k-list", "100", "--steps", "-1", *radius
            )
            assert code == 1
            assert out == ""
            assert "bisection steps must be >= 0" in err

    def test_kstudy_checks_the_whole_k_list_first(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kstudy", *FAST_INTERVAL, "--k-list", "20000,3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cell count must be even and >= 2, got 3" in err

    def test_hex_float_flag_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "lambda", *FAST_INTERVAL, "--delta", "0x1.0624dd2f1a9fcp-10", "--k", "400"
        )
        assert code == 0


class TestDumps:
    def test_partition_dump(self, capsys):
        code, out, _ = run_cli(
            capsys, "partition", *FAST_INTERVAL, "--delta", "0.01", "--k", "16"
        )
        assert code == 0
        values = [float.fromhex(s) for s in out.split()]
        assert len(values) == 18
        assert values == sorted(values)

    def test_graph_dump_and_mincyclemean(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "graph", *FAST_INTERVAL, "--delta", "0.01", "--k", "60"
        )
        assert code == 0
        assert out.startswith("vertices 61\n")
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(out)

        code, out2, _ = run_cli(capsys, "mincyclemean", "--input", str(graph_file))
        assert code == 0
        # the loaded dump solves to the bits the builder's own graph gives
        code, out3, _ = run_cli(
            capsys, "lambda", *FAST_INTERVAL, "--delta", "0.01", "--k", "60"
        )
        assert code == 0
        assert out2.split()[0] == out3.split()[0]

    def test_mincyclemean_witness_and_none(self, capsys, tmp_path):
        f = tmp_path / "tri.txt"
        f.write_text("vertices 3\n  0 1 0x1p0\n  1 2 0x1p1\n  2 0 0x1.8p1\n")
        code, out, _ = run_cli(
            capsys, "mincyclemean", "--input", str(f), "--witness"
        )
        assert code == 0
        lines = out.splitlines()
        assert float.fromhex(lines[0].split()[0]) == 2.0
        assert lines[1] == "witness 0 1 2"
        f2 = tmp_path / "dag.txt"
        f2.write_text("vertices 2\n  0 1 0x1p0\n")
        code, out, _ = run_cli(capsys, "mincyclemean", "--input", str(f2))
        assert code == 0 and out.strip() == "NONE"

    def test_mincyclemean_has_no_algorithm_choice(self, capsys, tmp_path):
        # the command solves with the pipeline's solver only
        f = tmp_path / "loop.txt"
        f.write_text("vertices 1\n  0 0 0x1p0\n")
        with pytest.raises(SystemExit) as exc:
            main(["mincyclemean", "--input", str(f), "--algorithm", "karp"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --algorithm karp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [("graph", ["--k", "8"]), ("partition", ["--k", "4"]), ("selfcheck", ["--k", "100"])],
    )
    def test_interval_outside_family_fails(self, capsys, command, flags):
        code, out, err = run_cli(
            capsys, command, "--a-lo", "2.5", "--a-hi", "2.6", "--delta", "0.001", *flags
        )
        assert code == 1
        assert out == ""
        assert "outside (0, 2]" in err


class TestSweepAndPlotData:
    def test_sweep_and_plotdata(self, capsys, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--a-min", "1.9999", "--a-max", "2", "--n", "16",
            "--first", "0", "--last", "3",
            "--k-coarse", "200", "--k-fine", "400", "--steps", "5",
            "--workers", "1", "--output", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 4

        code, _, err = run_cli(
            capsys, "plotdata", "--results", str(out_csv), "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "lambda_by_param.dat").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--k-coarse", "1001"], "coarse cell count must be even", id="k-coarse"),
            pytest.param(["--delta0", "5"], "initial radius must be at most 1", id="delta0"),
        ],
    )
    def test_bad_setting_writes_nothing(self, capsys, tmp_path, flags, message):
        code, _, err = run_cli(
            capsys, "sweep", "--a-min", "1.9999", "--a-max", "2", "--n", "16", "--last", "2",
            *flags, "--output", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert message in err
        assert os.listdir(tmp_path) == []

    def test_plotdata_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plotdata", "--results", str(tmp_path / "no.csv"))
        assert code == 1
        assert "error:" in err


class TestDefaults:
    def test_flag_defaults_match_study_parameters(self):
        from quadexp.cli import build_parser

        parser = build_parser()
        analyze_args = parser.parse_args(["analyze", "--index", "0"])
        assert analyze_args.n == 60000
        assert analyze_args.k_fine == 20000
        assert analyze_args.k_coarse == 1000
        assert analyze_args.delta0 == 0.001
        assert analyze_args.steps == 20
        sweep_args = parser.parse_args(["sweep", "--output", "x.csv"])
        assert sweep_args.n == 60000
        assert sweep_args.k_coarse == 1000
        assert sweep_args.k_fine == 20000
        assert sweep_args.delta0 == 0.001
        assert sweep_args.steps == 20


class TestSelfCheck:
    def test_cells_at(self):
        om = ParamInterval(0, 1.8, 1.81)
        part = phase_partition(om, 0.01, 8)
        bounds, sup = part.bounds.tolist(), phase_domain(om)
        # the critical cell is 4, and +-delta are shared with its neighbours
        assert cells_at(bounds, 0.0) == [4]
        assert cells_at(bounds, -0.01) == [3, 4]
        assert cells_at(bounds, 0.01) == [4, 5]
        assert cells_at(bounds, bounds[2]) == [1, 2]
        assert cells_at(bounds, -sup) == [0]
        assert cells_at(bounds, sup) == [8]
        assert cells_at(bounds, math.nextafter(-sup, -math.inf)) == []
        assert cells_at(bounds, math.nextafter(sup, math.inf)) == []

    def test_selfcheck_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "selfcheck", *FAST_INTERVAL, "--delta", "0.001", "--k", "300",
            "--orbits", "20", "--steps", "500", "--seed", "5",
        )
        assert code == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    def test_seed_changes_samples_not_verdict(self, capsys):
        for seed in ("1", "2"):
            code, out, _ = run_cli(
                capsys,
                "selfcheck", *FAST_INTERVAL, "--delta", "0.001", "--k", "300",
                "--orbits", "10", "--steps", "200", "--seed", seed,
            )
            assert code == 0

    @pytest.mark.parametrize("flags", [["--steps", "1"]])
    def test_no_orbit_checked_is_no_pass(self, capsys, flags):
        # one-point orbits give no edge to check
        code, out, _ = run_cli(capsys, "selfcheck", *FAST_INTERVAL, *flags)
        assert code == 1
        assert "FAIL path-inequality: 0 violations over 0 orbits" in out

    @pytest.mark.parametrize(
        "flag, value", [("--orbits", "0"), ("--orbits", "-1"), ("--steps", "0"), ("--steps", "-1")]
    )
    def test_sample_size_below_one_is_a_usage_error(self, capsys, flag, value):
        # no orbit could be checked, so the run is refused before it starts
        with pytest.raises(SystemExit) as exc:
            main(["selfcheck", *FAST_INTERVAL, flag, value])
        assert exc.value.code == 2
        assert f"{flag} {value} is below 1" in capsys.readouterr().err


class TestReadmeExamples:
    def test_command_line_examples_parse(self):
        # every quadexp line of the README's command-line block names
        # subcommands and flags that exist
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("quadexp ")]
        assert len(lines) == 10
        parser = build_parser()
        for line in lines:
            words = shlex.split(line, comments=True)
            if ">" in words:
                words = words[: words.index(">")]
            parser.parse_args(words[1:])
