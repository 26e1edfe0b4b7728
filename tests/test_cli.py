import csv
import io
import json
import math
from pathlib import Path

import pytest

import ptwell.cli as cli
from ptwell.cli import (TableResult, dumps_json, format_csv, main, run_figure1,
                        table_csv_rows)
from ptwell.wkb import wkb_energy_closed, wkb_energy_fourth, wkb_energy_next

DATA = Path(__file__).parent / "data"


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class TestRunConfig:
    @pytest.mark.parametrize("argv", [
        ["table", "--id", "4"],
        ["eigen", "--epsilon", "8", "--format", "xml"],
        # flags only the solving subcommands take
        ["table", "--id", "1", "--radius-factor", "3"],
        ["figure1", "--radius-factor", "2"],
        ["wkb", "--epsilon", "1", "--rtol", "1e-3"],
        ["limit", "--tol", "1e-9"],
        ["period", "--epsilon", "0", "--radius-factor", "2"],
    ])
    def test_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_validation(self, capsys):
        bad = [["eigen", "--epsilon", "8", "--tol", "1e-3"],
               ["table", "--id", "1", "--tol", "0"],
               ["figure1", "--rtol", "1e-3"]]
        bad += [["eigen", "--epsilon", "8", "--rtol", rtol] for rtol in ("0", "0.5")]
        bad += [["eigen", "--epsilon", "8", "--radius-factor", factor]
                for factor in ("0", "-1", "0.5")]
        for argv in bad:
            assert main(argv) == 2, argv
            assert "error" in capsys.readouterr().err


class TestTableCommand:
    def test_table1_csv_layout(self, table1):
        rows = table_csv_rows(table1)
        assert rows[0] == ["epsilon", "E0", "F", "R1", "R2"]
        assert rows[1][0] == "8"
        assert rows[1][3] == "" and rows[1][4] == ""   # blank extrapolants
        assert rows[2][4] == ""
        assert rows[3][4] != ""
        assert rows[1][1] == f"{table1.E0[0]:.5f}"

    def test_table3_columns(self, table3):
        rows = table_csv_rows(table3)
        assert rows[0] == ["epsilon", "E0", "R0", "R1", "R2"]

    def test_csv_round_trip(self, table1, tmp_path):
        text = format_csv(table_csv_rows(table1))
        again = format_csv(parse_csv(text))
        assert again == text

    def test_json_full_precision(self, table1):
        payload = {
            "table_id": table1.table_id,
            "labels": table1.labels,
            "E0": table1.E0,
            **table1.columns,
        }
        text = dumps_json(payload)
        back = json.loads(text)
        assert back["E0"] == table1.E0  # repr round-trip is exact
        assert dumps_json(back) == text

    def test_all_converged(self, table1, table2):
        assert table1.all_converged
        assert table2.all_converged

    @pytest.mark.parametrize("table_id", [0, 4, -1, "1"])
    def test_unknown_table_id(self, monkeypatch, table_id):
        # run_table(4) and run_table(0) returned table 3's R0 columns under
        # the wrong id; any id but 1, 2 and 3 is refused before any solve
        def no_work(*args, **kwargs):
            raise AssertionError("solve before the id was checked")

        monkeypatch.setattr(cli, "solve_level", no_work)
        with pytest.raises(ValueError, match="table_id"):
            cli.run_table(table_id)

    @pytest.mark.parametrize("table_id", ["1", "2", "3"])
    def test_golden_csv_snapshot(self, table_id, tmp_path):
        # tests/data holds the tables as the CLI printed them before the
        # shooting kernel's speed-ups; they must come out byte for byte
        out = tmp_path / "table.csv"
        assert main(["table", "--id", table_id, "--output", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"table{table_id}.csv").read_bytes()


class TestFigure1:
    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            run_figure1(eps_max=12.0, k_max=0, step=1.0)

    @pytest.mark.parametrize("eps_max", [-1.0, math.nan])
    def test_negative_eps_max(self, eps_max, capsys):
        # -1 printed a header-only CSV and exited 0
        with pytest.raises(ValueError, match="eps_max"):
            run_figure1(eps_max=eps_max, k_max=0, step=1.0)
        assert main(["figure1", "--eps-max", str(eps_max)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps_max" in captured.err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step(self, step, capsys):
        # printed the eps = 0 rows alone and exited 0
        with pytest.raises(ValueError, match="step"):
            run_figure1(eps_max=2.0, k_max=0, step=float(step))
        assert main(["figure1", "--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "step" in captured.err

    @pytest.mark.parametrize("step", ["1e-5", "1e-9", "5e-324"])
    def test_grid_point_cap(self, step, capsys):
        # 1e-5 ran a 1e6-point scan for hours, and 1e-9 tried to build a
        # list of 1e10 points by repeated addition
        with pytest.raises(ValueError, match="grid points"):
            run_figure1(eps_max=10.0, k_max=0, step=float(step))
        assert main(["figure1", "--eps-max", "10", "--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid points" in captured.err

    def test_grid_by_multiples(self, monkeypatch):
        # the cap admits eps = 0..10 in steps of 1e-3, each point i * step
        # to 12 decimals, not a sum of steps
        grids = []

        def scan(models, k_max, tol, rtol):
            grids.append([m.epsilon for m in models])
            return []

        monkeypatch.setattr(cli, "scan_levels", scan)
        run_figure1(eps_max=10.0, k_max=0, step=1e-3)
        run_figure1(eps_max=0.3, k_max=0, step=0.1)
        assert len(grids[0]) == cli.MAX_FIGURE1_POINTS
        assert grids[0] == [round(i * 1e-3, 12) for i in range(10_001)]
        assert grids[0][-1] == 10.0
        assert grids[1] == [0.0, 0.1, 0.2, 0.3]
        with pytest.raises(ValueError, match="grid points"):
            run_figure1(eps_max=10.0, k_max=0, step=0.999e-3)

    def test_small_scan(self):
        curves, failures, ok = run_figure1(eps_max=2.0, k_max=1, step=1.0)
        assert ok and not failures
        k0 = dict(curves)[0]
        assert k0[0][0] == 0.0
        assert k0[0][1] == pytest.approx(1.0, abs=1e-8)
        k1 = dict(curves)[1]
        assert k1[0][1] == pytest.approx(3.0, abs=1e-8)
        for pts in curves.values():
            energies = [E for _, E in pts]
            assert all(b > a for a, b in zip(energies, energies[1:]))


class TestMainEntry:
    def test_parser_built_once_parses_afresh(self, monkeypatch, capsys):
        # the parser is shared by every main() call in a process; a table
        # run with its own tolerance leaves nothing behind for the next
        seen = []

        def table(table_id, tol, rtol):
            seen.append(("table", table_id, tol, rtol))
            return TableResult(table_id, [8.0], [1.0], {"F": [1.0]})

        def eigen(args):
            seen.append(("eigen", vars(args)))
            return {"results": [{"k": args.k, "E": 1.0}]}, True

        monkeypatch.setattr(cli, "run_table", table)
        monkeypatch.setattr(cli, "run_eigen", eigen)
        assert main(["table", "--id", "2", "--tol", "1e-7", "--rtol", "1e-9"]) == 0
        assert main(["eigen", "--epsilon", "3", "--k", "2"]) == 0
        capsys.readouterr()
        assert cli._build_parser() is cli._build_parser()
        assert seen[0] == ("table", 2, 1e-7, 1e-9)
        assert seen[1] == ("eigen", {
            "command": "eigen", "M": 1, "epsilon": 3.0, "k": 2,
            "tol": cli.DEFAULT_TOL, "rtol": cli.DEFAULT_RTOL,
            "radius_factor": 1.0, "format": "json", "output": None})

    def test_eigen_json(self, capsys):
        rc = main(["eigen", "--M", "1", "--epsilon", "0", "--k", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["model"] == {"M": 1, "epsilon": 0.0}
        assert payload["results"][0]["E"] == pytest.approx(3.0, abs=1e-8)
        assert payload["results"][0]["converged"] is True
        assert payload["results"][0]["iterations"] == \
            cli.solve_level(cli.ModelSpec(1, 0.0), 1).iterations

    def test_eigen_reports_iterations(self, capsys):
        # JSON and CSV carry the solve's Newton iteration count
        res = cli.solve_level(cli.ModelSpec(1, 2.0), 12)
        assert main(["eigen", "--epsilon", "2", "--k", "12"]) == 0
        result, = json.loads(capsys.readouterr().out)["results"]
        assert result["iterations"] == res.iterations == 1
        assert main(["eigen", "--epsilon", "2", "--k", "12", "--format", "csv"]) == 0
        header, row = parse_csv(capsys.readouterr().out)
        assert header == ["k", "E", "E_imag", "residual", "iterations", "converged"]
        assert row[header.index("iterations")] == "1"
        assert float(row[header.index("E")]) == res.E.real

    @pytest.mark.parametrize("command", ["eigen", "table", "figure1"])
    def test_tol_help_names_newton(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "Newton convergence tolerance" in out
        assert "secant" not in out

    def test_limit_levels(self, capsys):
        rc = main(["limit", "--M", "2", "--k-max", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        nus = [lv["nu"] for lv in payload["levels"]]
        assert nus == pytest.approx([1 / 3, 2 / 3, 4 / 3, 5 / 3])

    def test_period(self, capsys):
        rc = main(["period", "--epsilon", "0", "--E", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T"] == pytest.approx(2.0 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--epsilon", "1", "--E", "nan"],   # printed "T": NaN, exit 0
        ["--epsilon", "1", "--E", "inf"],
        ["--epsilon", "nan", "--E", "1"],
        ["--epsilon", "inf", "--E", "1"],
    ])
    def test_period_non_finite(self, argv, capsys):
        assert main(["period"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_wkb_closed(self, capsys):
        rc = main(["wkb", "--M", "1", "--epsilon", "0", "--k", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["E"] == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("order, energy",
                             [(1, wkb_energy_closed), (2, wkb_energy_next),
                              (4, wkb_energy_fourth)])
    def test_wkb_prints_the_energy_function(self, M, order, energy, capsys):
        for eps, k in ((0.0, 0), (1.0, 3), (8.0, 0), (58.0, 7)):
            rc = main(["wkb", "--M", str(M), "--epsilon", str(eps),
                       "--k", str(k), "--order", str(order)])
            assert rc == 0
            assert json.loads(capsys.readouterr().out) == {
                "model": {"M": M, "epsilon": eps},
                "results": [{"k": k, "order": order,
                             "E": energy(k, eps, M)}]}

    @pytest.mark.parametrize("flag, value", [("--M", "0"), ("--epsilon", "nan"),
                                             ("--k", "-1")])
    @pytest.mark.parametrize("order", ["1", "2", "4"])
    def test_wkb_domain(self, flag, value, order, capsys):
        args = {"--M": "1", "--epsilon": "1", "--k": "0", "--order": order,
                flag: value}
        assert main(["wkb"] + [a for pair in args.items() for a in pair]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("argv", [["wkb", "--M", "1", "--epsilon", "1e160"],
                                      ["eigen", "--M", "1", "--epsilon", "1e200"]])
    def test_overflow_is_a_usage_error(self, argv, capsys):
        # the leading WKB energy overflows once sin(pi M/N) underflows: an
        # error line and exit 2, not a traceback and exit 1 ("not converged")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_output_file_and_csv(self, tmp_path, capsys):
        out = tmp_path / "period.csv"
        rc = main(["period", "--epsilon", "100", "--E", "4",
                   "--format", "csv", "--output", str(out)])
        assert rc == 0
        text = out.read_text()
        rows = parse_csv(text)
        assert rows[0][0] == "epsilon"
        # csv cells hold reprs: reparse and compare
        t_col = rows[0].index("T_asymptotic")
        assert float(rows[1][t_col]) == pytest.approx(4.0 * math.pi / 200.0)
        assert format_csv(parse_csv(text)) == text

    def test_unwritable_output(self, tmp_path, capsys):
        # exit 1 means "not converged": an output error is a usage error
        target = tmp_path / "missing" / "x.json"
        rc = main(["eigen", "--epsilon", "1", "--output", str(target)])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not target.exists()

    def test_usage_error_exit_code(self, capsys):
        # next-order WKB exists for every M; order 3 is the usage error
        assert main(["wkb", "--M", "2", "--epsilon", "1", "--order", "2"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["wkb", "--M", "2", "--epsilon", "1", "--order", "3"])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err
        for bad in (["--rtol", "0"], ["--radius-factor", "0.5"]):
            rc = main(["eigen", "--epsilon", "8"] + bad)
            assert rc == 2
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["limit", "--k-max", "-1", "--format", "csv"],   # IndexError traceback
        ["limit", "--k-max", "-1"],                      # "levels": [], exit 0
        ["figure1", "--k-max", "-1"],                    # range() arg 3 is zero
    ])
    def test_negative_k_max(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k_max" in captured.err

    def test_figure1_csv(self, capsys):
        rc = main(["figure1", "--eps-max", "1", "--k-max", "0", "--step", "1"])
        assert rc == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["k", "epsilon", "E"]
        assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-8)
