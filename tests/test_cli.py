"""Sweep runner, CSV persistence, the SVG emitter and the console entry point."""

import csv
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import seesawqec as q
from seesawqec import cli
from seesawqec.cli import SweepConfig, SweepRecord, run_sweep, write_csv, write_svg_plot


def read_csv(path):
    """The records of a CSV written by ``write_csv``."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(SweepRecord(
                gamma=float(row["gamma"]), mode=row["mode"],
                fidelity=float(row["fidelity"]),
                inner_iterations_total=int(row["inner_iterations_total"]),
                outer_rounds=int(row["outer_rounds"]),
                restarts_used=int(row["restarts_used"]),
                converged=row["converged"] == "true",
                wall_time_ms=float(row["wall_time_ms"])))
    return out


def small_options():
    return q.SolveOptions(seed=3, restarts=2, max_outer_rounds=15)


@pytest.fixture(scope="module")
def small_sweep():
    config = SweepConfig(gamma_min=0.0, gamma_max=0.4, steps=3,
                         options=small_options())
    return config, run_sweep(config)


class TestRunSweep:
    def test_nocoding_analytic_value(self):
        config = SweepConfig(gamma_min=0.36, gamma_max=0.36, steps=2,
                             modes=("nocoding",))
        records = run_sweep(config)
        for r in records:
            assert abs(r.fidelity - 0.81) < 1e-12

    def test_all_modes_one_at_gamma_zero(self, small_sweep):
        _, records = small_sweep
        for r in records:
            if r.gamma == 0.0:
                assert r.fidelity == 1.0

    def test_mode_ordering_and_sorting(self, small_sweep):
        _, records = small_sweep
        keys = [(r.mode, r.gamma) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 9

    def test_seesaw_dominates_fixed_code(self, small_sweep):
        _, records = small_sweep
        by = {(r.mode, r.gamma): r.fidelity for r in records}
        for g in [0.2, 0.4]:
            assert by[("seesaw", g)] >= by[("leung_optrec", g)] - 1e-9
            assert by[("seesaw", g)] > by[("leung_optrec", g)]

    def test_fidelities_in_unit_interval(self, small_sweep):
        _, records = small_sweep
        assert all(0.0 <= r.fidelity <= 1.0 for r in records)

    def test_invalid_config_names_field(self):
        with pytest.raises(ValueError, match="steps"):
            SweepConfig(steps=1)
        with pytest.raises(ValueError, match="modes"):
            SweepConfig(modes=("bogus",))
        with pytest.raises(ValueError, match="gamma_min"):
            SweepConfig(gamma_min=0.8, gamma_max=0.2)
        with pytest.raises(ValueError, match="copies"):
            SweepConfig(copies=3)

    @pytest.mark.parametrize("field", ["gamma_min", "gamma_max"])
    def test_rejects_a_string_gamma(self, field):
        # Used to raise a bare TypeError from the range comparison.
        with pytest.raises(ValueError, match=rf"{field} must lie in \[0, 1\], got '0.3'"):
            SweepConfig(**{field: "0.3"})

    @pytest.mark.parametrize("field, value", [
        ("steps", 3.0), ("copies", 4.0), ("copies", True), ("steps", "3")])
    def test_rejects_non_integer_counts(self, field, value):
        # 3.0 and 4.0 used to construct and then fail inside run_sweep;
        # copies=True ran as one copy.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SweepConfig(modes=("seesaw",), **{field: value})

    def test_rejects_repeated_modes(self):
        # A repeated mode used to run its curve twice and write every row twice.
        with pytest.raises(ValueError, match=r"repeats \['nocoding'\]"):
            SweepConfig(modes=("nocoding", "seesaw", "nocoding"))

    def test_rejects_options_that_are_not_solve_options(self):
        # Used to fail only inside the fixed-code run, on "'NoneType' object
        # has no attribute 'seed'".
        with pytest.raises(ValueError, match="options must be a SolveOptions, got NoneType"):
            SweepConfig(modes=("leung_optrec",), options=None)

    def test_accepts_numpy_integer_counts(self):
        config = SweepConfig(steps=np.int64(3), copies=np.int32(4))
        assert (config.steps, config.copies) == (3, 4)

    def test_seesaw_rows_equal_a_chain_of_warm_started_calls(self):
        # Each seesaw point after the first runs with the previous point's
        # winning encoder as an extra restart.
        opts = q.SolveOptions(seed=7, restarts=2)
        config = SweepConfig(gamma_min=0.2, gamma_max=0.3, steps=2, copies=3,
                             modes=("seesaw",), options=opts)
        first = q.seesaw(q.amplitude_damping(0.2), 3, opts)
        second = q.seesaw(q.amplitude_damping(0.3), 3, opts, warm=first.encoder)
        records = run_sweep(config)
        assert [r.gamma for r in records] == [0.2, 0.3]
        for r, res in zip(records, (first, second)):
            assert (r.fidelity, r.inner_iterations_total, r.outer_rounds, r.restarts_used,
                    r.converged) == (res.fidelity, res.inner_iterations_total,
                                     res.outer_rounds, res.restarts_used, res.converged)
        assert second.restarts_used == first.restarts_used + 1

    def test_seesaw_is_called_once_per_gamma_in_grid_order(self, monkeypatch):
        # A caller may wrap cli.seesaw to keep each point's result, as the
        # benchmark does: the cold restarts run ahead, but every point
        # still gets one call, in order, returning that point's result.
        calls, original = [], cli.seesaw

        def keep(noise_single, *args, **kwargs):
            res = original(noise_single, *args, **kwargs)
            calls.append((noise_single, res))
            return res

        monkeypatch.setattr(cli, "seesaw", keep)
        config = SweepConfig(gamma_min=0.1, gamma_max=0.5, steps=5, copies=3, modes=("seesaw",),
                             options=q.SolveOptions(seed=7, restarts=3, max_outer_rounds=20))
        records = run_sweep(config)
        assert len(calls) == len(records) == config.steps
        for r, (noise_single, res) in zip(records, calls):
            np.testing.assert_array_equal(noise_single.kraus, q.amplitude_damping(r.gamma).kraus)
            assert res.fidelity == r.fidelity
            noise = q.tensor_power(noise_single, config.copies)
            f = q.channel_fidelity(q.compose(q.compose(res.encoder, noise), res.recovery))
            assert abs(f - r.fidelity) < 1e-9


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        lines = path.read_text().splitlines()
        assert lines == ["gamma,mode,fidelity,inner_iterations_total,"
                         "outer_rounds,restarts_used,converged,wall_time_ms"]

    def test_roundtrip(self, small_sweep, tmp_path):
        _, records = small_sweep
        path = tmp_path / "sweep.csv"
        write_csv(records, str(path))
        back = read_csv(str(path))
        assert back == sorted(records, key=lambda r: (r.mode, r.gamma))

    def test_gamma_zero_nocoding_row(self, small_sweep, tmp_path):
        _, records = small_sweep
        path = tmp_path / "sweep.csv"
        write_csv(records, str(path))
        rows = [l for l in path.read_text().splitlines()
                if l.startswith("0,nocoding")]
        assert len(rows) == 1
        assert rows[0].split(",")[2] == "1"

    def test_deterministic_rerun(self, small_sweep, tmp_path):
        config, records = small_sweep
        again = run_sweep(config)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(records, str(a))
        write_csv(again, str(b))

        def strip_walltime(p):
            return ["," .join(l.split(",")[:-1]) for l in p.read_text().splitlines()]

        # wall_time_ms is measured, everything else must be byte-identical
        assert strip_walltime(a) == strip_walltime(b)

    def test_unwritable_path(self, small_sweep):
        _, records = small_sweep
        with pytest.raises(OSError, match="/no/such/dir"):
            write_csv(records, "/no/such/dir/out.csv")


class TestSvg:
    def test_three_polylines_and_valid_xml(self, small_sweep, tmp_path):
        _, records = small_sweep
        path = tmp_path / "plot.svg"
        write_svg_plot(records, str(path))
        root = ET.fromstring(path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polys = root.findall(f".//{ns}polyline") + root.findall(f".//{ns}path")
        assert len(polys) == 3

    def test_curve_x_coordinates_increase(self, small_sweep, tmp_path):
        _, records = small_sweep
        path = tmp_path / "plot.svg"
        write_svg_plot(records, str(path))
        root = ET.fromstring(path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        for poly in root.findall(f".//{ns}polyline"):
            xs = [float(p.split(",")[0]) for p in poly.get("points").split()]
            assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            write_svg_plot([], "/tmp/unused.svg")


class TestMain:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        rc = cli.main(["--gamma-min", "0", "--gamma-max", "0.2", "--steps", "2",
                       "--modes", "nocoding", "--csv", str(csv_path),
                       "--svg", str(svg_path)])
        assert rc == 0
        assert csv_path.exists() and svg_path.exists()
        out = capsys.readouterr().out
        assert "nocoding" in out

    def test_usage_error_exit_code(self, capsys):
        rc = cli.main(["--steps", "1", "--modes", "nocoding"])
        assert rc != 0
        assert "steps" in capsys.readouterr().err

    def test_repeated_mode_is_an_error(self, capsys):
        rc = cli.main(["--steps", "3", "--modes", "nocoding,nocoding"])
        assert rc == 1
        assert "repeats ['nocoding']" in capsys.readouterr().err

    def test_nan_tolerance_is_an_error(self, capsys):
        rc = cli.main(["--tol", "nan", "--steps", "2", "--modes", "nocoding"])
        assert rc == 1
        assert "outer_tol must be positive" in capsys.readouterr().err

    def test_infinite_tolerance_is_an_error(self, capsys):
        rc = cli.main(["--tol", "inf", "--steps", "2", "--modes", "nocoding"])
        assert rc == 1
        assert "outer_tol must be positive and finite" in capsys.readouterr().err

    def test_parser_defaults_are_the_dataclass_defaults(self):
        args = cli.build_parser().parse_args([])
        config, opts = SweepConfig(), q.SolveOptions()
        assert (args.gamma_min, args.gamma_max, args.steps, args.copies) == (
            config.gamma_min, config.gamma_max, config.steps, config.copies)
        assert tuple(args.modes.split(",")) == config.modes
        assert (args.restarts, args.tol, args.max_outer, args.seed) == (
            opts.restarts, opts.outer_tol, opts.max_outer_rounds, opts.seed)

    def test_module_runs_once_under_python_m(self):
        # The package root does not import the CLI, so runpy finds no
        # half-run seesawqec.cli and raises no RuntimeWarning.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "seesawqec.cli",
             "--steps", "2", "--modes", "nocoding"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("nocoding") == 2
