import hashlib
import json
import warnings

import numpy as np
import pytest

from cablehaptics import (
    ModuleAnchor,
    ModuleLayout,
    NoisyPlant,
    SolverConfig,
    TensionBounds,
    ValidationProtocol,
)
from cablehaptics.cli import build_parser, main
from cablehaptics.config import save_layout


@pytest.fixture()
def identity_layout_file(tmp_path):
    layout = ModuleLayout(
        (
            ModuleAnchor("x", np.array([1.0, 0.0, 0.0])),
            ModuleAnchor("y", np.array([0.0, 1.0, 0.0])),
            ModuleAnchor("z", np.array([0.0, 0.0, 1.0])),
        ),
        TensionBounds(0.5, 6.0),
    )
    path = tmp_path / "identity.yaml"
    save_layout(layout, path)
    return path


@pytest.fixture()
def single_module_layout_file(tmp_path):
    layout = ModuleLayout((ModuleAnchor("top", np.array([0.0, 0.0, 2.0])),))
    path = tmp_path / "single.yaml"
    save_layout(layout, path)
    return path


def read_csv_rows(path):
    return [line.split(",") for line in path.read_text().strip().splitlines()]


class TestParser:
    def test_solve_flags(self):
        args = build_parser().parse_args(["solve", "--force", "0,0,1"])
        assert args.command == "solve"
        np.testing.assert_array_equal(args.force, [0.0, 0.0, 1.0])
        assert args.layout is None
        assert not hasattr(args, "out")

    def test_validate_defaults(self):
        args = build_parser().parse_args(["validate"])
        assert args.plant == "ideal"
        assert args.samples == 182
        assert args.radius == 1.5
        assert args.seed == 42

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--force", "0,0,1"],
            ["validate"],
            ["workspace", "--grid-min", "0,0,0", "--grid-max", "1,1,1", "--grid-res", "1,1,1"],
            ["material", "--material", "m.yaml", "--trajectory", "t.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_solver_defaults_are_the_config_defaults(self, argv):
        args = build_parser().parse_args(argv)
        built = SolverConfig(max_iterations=args.max_iterations, tolerance=args.tolerance)
        assert built == SolverConfig()

    def test_validate_defaults_are_the_dataclass_defaults(self):
        args = build_parser().parse_args(["validate"])
        protocol = ValidationProtocol(
            sphere_radius=args.radius, sample_count=args.samples, samples_per_hold=args.ticks
        )
        plant = NoisyPlant(
            force_noise_std=args.noise_std,
            frame_rotation_z=args.frame_rot_z,
            tension_bias=args.tension_bias,
            seed=args.seed,
        )
        assert protocol == ValidationProtocol()
        assert plant == NoisyPlant()

    def test_max_iterations_help_shows_the_default(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--help"])
        assert f"(default: {SolverConfig.max_iterations})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["workspace", "--grid-min", "0,0,0", "--grid-max", "1,1,1", "--grid-res", "1,1,1", "--ee", "0,0,1"],
            ["material", "--material", "m.yaml", "--trajectory", "t.csv", "--ee", "0,0,1"],
            ["solve", "--force", "0,0,1", "--out", "somewhere"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_options_a_command_does_not_read_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("1,2", "expected 'x,y,z', got '1,2'"), ("1,a,0", "bad vector '1,a,0'")],
        ids=["two-components", "bad-number"],
    )
    def test_bad_vector_rejected(self, text, message, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["solve", "--force", text])
        assert caught.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_plant_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "--plant", "magic"])


class TestSolveCommand:
    def test_default_layout_feasible_force(self, capsys):
        rc = main(["solve", "--force", "0,0,1.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "feasible_exact"
        assert len(payload["tensions"]) == 4
        assert all(0.5 - 1e-12 <= t <= 6.0 + 1e-12 for t in payload["tensions"])
        assert payload["force_residual"] <= 1e-7
        np.testing.assert_allclose(payload["rendered_force"], [0.0, 0.0, 1.0], atol=1e-7)

    def test_infeasible_direction_exits_2(self, identity_layout_file, capsys):
        rc = main(
            [
                "solve",
                "--layout",
                str(identity_layout_file),
                "--ee",
                "0,0,0",
                "--force=-1,0,0",
            ]
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "nearest_feasible"
        np.testing.assert_allclose(payload["tensions"], [0.5, 0.5, 0.5], atol=1e-9)

    def test_huge_force_prints_strict_json(self, capsys):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        # just below the 1e100 N limit, which must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--force=0,0,9.99e99"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["status"] == "nearest_feasible"
        assert payload["force_residual"] == pytest.approx(9.99e99, rel=1e-12)

    def test_force_near_the_largest_float_exits_1_naming_the_limit(self, capsys):
        # each component is finite, but far beyond the 1e100 N limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--force=1.5e308,1.5e308,0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: force must be below 1e+100 in size")

    def test_missing_layout_file_exits_1(self, tmp_path, capsys):
        rc = main(["solve", "--layout", str(tmp_path / "missing.yaml"), "--force", "0,0,1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--force", "0,0"], "expected 'x,y,z', got '0,0'"),
            (["solve"], "the following arguments are required: --force"),
            ([], "the following arguments are required: command"),
        ],
        ids=["bad-vector", "no-force", "no-command"],
    )
    def test_usage_error_exits_1_not_the_nearest_feasible_2(self, argv, message, capsys):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: cablehaptics" in capsys.readouterr().out

    def test_iteration_cap_exits_3(self, capsys):
        rc = main(["solve", "--force", "0,0,1.0", "--max-iterations", "1"])
        assert rc == 3

    def test_degenerate_ee_exits_1(self, single_module_layout_file, capsys):
        rc = main(
            [
                "solve",
                "--layout",
                str(single_module_layout_file),
                "--ee",
                "0,0,2.0",
                "--force",
                "0,0,1",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestValidateCommand:
    def test_ideal_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["validate", "--out", str(out), "--samples", "32", "--ticks", "10"])
        assert rc == 0
        rows = read_csv_rows(out / "validation.csv")
        assert rows[0] == [
            "cx", "cy", "cz", "mx", "my", "mz", "angle_err_deg", "mag_err_N", "feasible",
        ]
        assert len(rows) == 33
        summary = json.loads((out / "validation_summary.json").read_text())
        assert summary["aggregates"]["fraction_within_45deg"] == 1.0
        assert summary["hardware_reference"]["mean_angle_error_deg"] == 14.0
        assert summary["protocol"]["sample_count"] == 32
        assert summary["plant"] == {"type": "ideal"}
        assert len(summary["layout"]["anchors"]) == 4

    def test_full_default_run_is_fully_aligned(self, tmp_path):
        out = tmp_path / "full"
        rc = main(["validate", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "validation_summary.json").read_text())
        assert summary["aggregates"]["fraction_within_45deg"] == 1.0
        assert summary["aggregates"]["sample_count"] == 182
        assert summary["protocol"]["samples_per_hold"] == 1000

    def test_single_sample_yields_one_row(self, tmp_path):
        out = tmp_path / "one"
        rc = main(["validate", "--out", str(out), "--samples", "1", "--ticks", "5"])
        assert rc == 0
        assert len(read_csv_rows(out / "validation.csv")) == 2

    def test_noisy_runs_are_bitwise_identical(self, tmp_path):
        args = [
            "validate",
            "--plant",
            "noisy",
            "--seed",
            "42",
            "--noise-std",
            "0.3",
            "--frame-rot-z",
            "0.0873",
            "--tension-bias",
            "0.1",
            "--samples",
            "24",
            "--ticks",
            "40",
        ]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "validation.csv").read_bytes() == (
            out_b / "validation.csv"
        ).read_bytes()
        assert (out_a / "validation_summary.json").read_bytes() == (
            out_b / "validation_summary.json"
        ).read_bytes()

    @pytest.mark.parametrize(
        "plant", [[], ["--plant", "noisy", "--noise-std", "0.3"]], ids=["ideal", "noisy"]
    )
    def test_near_zero_radius_exits_1_for_both_plants(self, tmp_path, capsys, plant):
        # the ideal plant measures about 0 N too, which must not hide the
        # zero commanded force behind a 180 degree score
        out = tmp_path / "tiny"
        argv = ["validate", "--radius", "1e-13", "--samples", "8", "--ticks", "5"]
        rc = main([*argv, *plant, "--out", str(out)])
        assert rc == 1
        assert "angle undefined for a (near-)zero vector" in capsys.readouterr().err
        assert not (out / "validation.csv").exists()

    # just below the 1e100 N limit every norm, dot product and mean stays
    # finite
    @pytest.mark.parametrize("radius", [1e90, 9.99e99])
    @pytest.mark.parametrize("plant", ["ideal", "noisy"])
    def test_huge_radius_writes_finite_reports_without_warning(self, tmp_path, radius, plant):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        out = tmp_path / "huge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["validate", "--plant", plant, "--radius", repr(radius)]
            rc = main([*argv, "--samples", "8", "--ticks", "5", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "validation_summary.json").read_text(), parse_constant=reject)
        aggregates = summary["aggregates"]
        assert aggregates["mean_magnitude_error_n"] == pytest.approx(radius, rel=1e-12)
        assert 0.0 <= aggregates["max_angle_error_deg"] < 90.0
        rows = read_csv_rows(out / "validation.csv")[1:]
        assert [float(row[7]) for row in rows] == pytest.approx([radius] * 8, rel=1e-12)
        assert all(0.0 <= float(row[6]) < 90.0 for row in rows)

    def test_negative_seed_exits_1_naming_the_field(self, tmp_path, capsys):
        out = tmp_path / "neg"
        rc = main(["validate", "--plant", "noisy", "--seed", "-3", "--out", str(out)])
        assert rc == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    # a std of the 1e100 N limit or more is refused, and near the largest
    # float the normal draws themselves would overflow to inf
    @pytest.mark.parametrize("std", ["1e100", "1e150", "1e308"])
    def test_noise_std_that_overflows_exits_1_naming_the_field(self, tmp_path, capsys, std):
        out = tmp_path / "loud"
        argv = ["validate", "--plant", "noisy", "--noise-std", std]
        rc = main([*argv, "--samples", "2", "--ticks", "5", "--out", str(out)])
        assert rc == 1
        assert "force_noise_std must be below 1e+100 in size" in capsys.readouterr().err
        assert not out.exists()

    # the noisy plant draws a hold's mean in constant time and memory, so a
    # hold of 10**12 ticks runs; a count of 1e100 or more is refused by
    # name and exits 1 before any file is written
    def test_noisy_hold_length_is_free_up_to_the_float_range(self, tmp_path, capsys):
        argv = ["validate", "--plant", "noisy", "--noise-std", "0.3", "--samples", "4"]
        assert main([*argv, "--ticks", str(10**12), "--out", str(tmp_path / "long")]) == 0
        out = tmp_path / "endless"
        assert main([*argv, "--ticks", str(10**400), "--out", str(out)]) == 1
        assert "samples_per_hold must be below 1e+100 in size" in capsys.readouterr().err
        assert not out.exists()

    def test_tensions_stay_in_bounds_under_noise(self, tmp_path):
        # the noisy plant corrupts measurements, never the commanded tensions;
        # every measured force must still be finite and every record present
        out = tmp_path / "noisy"
        rc = main(
            [
                "validate",
                "--plant",
                "noisy",
                "--noise-std",
                "0.5",
                "--samples",
                "12",
                "--ticks",
                "20",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "validation.csv")[1:]
        assert len(rows) == 12
        for row in rows:
            assert all(np.isfinite(float(cell)) for cell in row[:8])


class TestWorkspaceCommand:
    def test_validation_pose_fully_capable(self, tmp_path):
        out = tmp_path / "ws"
        rc = main(
            [
                "workspace",
                "--grid-min",
                "0,0,0.3",
                "--grid-max",
                "0,0,0.3",
                "--grid-res",
                "1,1,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "workspace.csv")
        assert rows[0] == ["x", "y", "z", "feasible_fraction"]
        assert float(rows[1][3]) == 1.0

    def test_far_above_top_module_not_fully_capable(self, tmp_path):
        out = tmp_path / "ws"
        rc = main(
            [
                "workspace",
                "--grid-min",
                "0,0,3.5",
                "--grid-max",
                "0,0,3.5",
                "--grid-res",
                "1,1,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "workspace.csv")
        assert float(rows[1][3]) < 1.0

    def test_single_module_reaches_almost_nothing(self, single_module_layout_file, tmp_path):
        out = tmp_path / "ws"
        rc = main(
            [
                "workspace",
                "--layout",
                str(single_module_layout_file),
                "--grid-min=-0.5,-0.5,0",
                "--grid-max",
                "0.5,0.5,1",
                "--grid-res",
                "2,2,2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        for row in read_csv_rows(out / "workspace.csv")[1:]:
            assert float(row[3]) <= 1.0 / 26.0

    def test_grid_spans_expected_points(self, tmp_path):
        out = tmp_path / "ws"
        rc = main(
            [
                "workspace",
                "--grid-min=-0.2,-0.2,0.2",
                "--grid-max",
                "0.2,0.2,0.4",
                "--grid-res",
                "2,2,3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert len(read_csv_rows(out / "workspace.csv")) == 1 + 2 * 2 * 3

    def test_readme_grid_is_byte_stable(self, tmp_path):
        # Every fraction is k/26 and the smallest feasibility margin on this
        # grid is about 1e-3 N, so the digest does not depend on BLAS rounding.
        out = tmp_path / "ws"
        rc = main(
            [
                "workspace",
                "--grid-min=-1,-1,0.1",
                "--grid-max",
                "1,1,1.5",
                "--grid-res",
                "11,11,8",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        digest = hashlib.sha256((out / "workspace.csv").read_bytes()).hexdigest()
        assert digest == "c90bb1493cc1729aaafa9d5d83a43e1b904e743a94bb41778116cda35f2d8b14"

    def test_point_on_an_anchor_reads_zero(self, tmp_path):
        # (1, 0, 0) is the built-in layout's anchor m1: no direction is
        # renderable there, and the point is written, not an error
        out = tmp_path / "ws"
        rc = main(
            [
                "workspace",
                "--grid-min=1,0,0",
                "--grid-max",
                "1,0,0",
                "--grid-res",
                "1,1,1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "workspace.csv").read_text().splitlines() == [
            "x,y,z,feasible_fraction",
            "1.0,0.0,0.0,0.0",
        ]

    def test_invalid_grid_exits_1(self, tmp_path, capsys):
        rc = main(
            [
                "workspace",
                "--grid-min",
                "1,0,0",
                "--grid-max",
                "0,0,0",
                "--grid-res",
                "2,2,2",
                "--out",
                str(tmp_path / "ws"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "corner, given",
        [
            (
                ["--grid-min=nan,0,0.1", "--grid-max", "1,1,1.5"],
                "--grid-min must be a finite 3-vector, got [nan, 0.0, 0.1]",
            ),
            (
                ["--grid-min=-1,-1,0.1", "--grid-max", "1,1,inf"],
                "--grid-max must be a finite 3-vector, got [1.0, 1.0, inf]",
            ),
        ],
        ids=["nan-min", "inf-max"],
    )
    def test_non_finite_grid_exits_1_before_writing(self, tmp_path, capsys, corner, given):
        out = tmp_path / "ws"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["workspace", *corner, "--grid-res", "2,2,2", "--out", str(out)])
        assert rc == 1
        assert given in capsys.readouterr().err
        assert not out.exists()

    def test_zero_resolution_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["workspace", "--grid-min", "0,0,0", "--grid-max", "1,1,1", "--grid-res", "0,1,1"]
            )


class TestMaterialCommand:
    @pytest.fixture()
    def damper_file(self, tmp_path):
        path = tmp_path / "damper.yaml"
        path.write_text("type: damper\ncoefficient: 2.0\n")
        return path

    @pytest.fixture()
    def line_trajectory_file(self, tmp_path):
        path = tmp_path / "line.csv"
        rows = ["t,x,y,z,vx,vy,vz"]
        for t in np.linspace(0.0, 1.0, 6):
            rows.append(f"{t},{0.05 * t},0.0,0.3,0.05,0,0")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_damper_renders_constant_opposing_force(self, damper_file, line_trajectory_file, tmp_path):
        out = tmp_path / "mat"
        rc = main(
            [
                "material",
                "--material",
                str(damper_file),
                "--trajectory",
                str(line_trajectory_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "material.csv")
        assert rows[0][:7] == ["t", "px", "py", "pz", "fx", "fy", "fz"]
        assert rows[0][7:] == ["tension_0", "tension_1", "tension_2", "tension_3"]
        forces = np.array([[float(c) for c in row[4:7]] for row in rows[1:]])
        np.testing.assert_allclose(forces, [[-0.1, 0.0, 0.0]] * 6, atol=1e-12)
        tensions = np.array([[float(c) for c in row[7:]] for row in rows[1:]])
        assert np.all(tensions >= 0.5 - 1e-12) and np.all(tensions <= 6.0 + 1e-12)

    def test_composite_dampers_match_single_equivalent(self, tmp_path, line_trajectory_file):
        single = tmp_path / "single.yaml"
        single.write_text("type: damper\ncoefficient: 3.0\n")
        combined = tmp_path / "combined.yaml"
        combined.write_text(
            "type: composite\n"
            "children:\n"
            "- {type: damper, coefficient: 1.0}\n"
            "- {type: damper, coefficient: 2.0}\n"
        )
        out_single = tmp_path / "out_single"
        out_combined = tmp_path / "out_combined"
        assert main(
            [
                "material",
                "--material",
                str(single),
                "--trajectory",
                str(line_trajectory_file),
                "--out",
                str(out_single),
            ]
        ) == 0
        assert main(
            [
                "material",
                "--material",
                str(combined),
                "--trajectory",
                str(line_trajectory_file),
                "--out",
                str(out_combined),
            ]
        ) == 0
        rows_single = read_csv_rows(out_single / "material.csv")
        rows_combined = read_csv_rows(out_combined / "material.csv")
        assert rows_single[0] == rows_combined[0]
        values_single = np.array([[float(c) for c in row] for row in rows_single[1:]])
        values_combined = np.array([[float(c) for c in row] for row in rows_combined[1:]])
        np.testing.assert_allclose(values_combined, values_single, atol=1e-12)

    def test_magnetic_force_flips_across_target(self, tmp_path):
        material = tmp_path / "magnet.yaml"
        material.write_text(
            "type: magnetic\ntarget: [0.0, 0.0, 0.3]\ngain: 3.0\nmax_force: 6.0\n"
        )
        trajectory = tmp_path / "through.csv"
        rows = ["t,x,y,z"]
        for k, x in enumerate(np.linspace(-0.2, 0.2, 9)):
            rows.append(f"{0.1 * k},{x},0.0,0.3")
        trajectory.write_text("\n".join(rows) + "\n")
        out = tmp_path / "mat"
        rc = main(
            [
                "material",
                "--material",
                str(material),
                "--trajectory",
                str(trajectory),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv_rows(out / "material.csv")[1:]
        fx = [float(row[4]) for row in rows]
        assert fx[0] > 0.0  # pulled toward +x before the target
        assert fx[-1] < 0.0  # pulled back toward -x after crossing

    def test_bad_material_file_exits_1(self, tmp_path, line_trajectory_file, capsys):
        material = tmp_path / "bad.yaml"
        material.write_text("type: levitation\n")
        rc = main(
            [
                "material",
                "--material",
                str(material),
                "--trajectory",
                str(line_trajectory_file),
                "--out",
                str(tmp_path / "mat"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_row_on_an_anchor_writes_nothing(self, tmp_path, capsys):
        # the third row sits on the built-in layout's top anchor m4
        material = tmp_path / "magnet.yaml"
        material.write_text(
            "type: magnetic\ntarget: [0.0, 0.0, 0.5]\ngain: 3.0\nmax_force: 6.0\n"
        )
        good = tmp_path / "good.csv"
        good.write_text("t,x,y,z\n0.0,0.0,0.0,0.3\n0.001,0.0,0.0,0.31\n0.002,0.0,0.0,0.32\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y,z\n0.0,0.0,0.0,0.3\n0.001,0.0,0.0,0.31\n0.002,0.0,0.0,2.3\n")

        def run(trajectory, out):
            return main(
                ["material", "--material", str(material), "--trajectory", str(trajectory), "--out", str(out)]
            )

        fresh = tmp_path / "fresh"
        assert run(bad, fresh) == 1
        err = capsys.readouterr().err
        assert "'m4'" in err
        assert f"{bad}: row 3 (t=0.002): " in err
        assert not (fresh / "material.csv").exists()

        used = tmp_path / "used"
        assert run(good, used) == 0
        before = (used / "material.csv").read_bytes()
        assert len(before.splitlines()) == 4
        assert run(bad, used) == 1
        assert (used / "material.csv").read_bytes() == before

    def test_row_whose_force_reaches_the_limit_writes_nothing(self, tmp_path, capsys):
        # 1e99 N/m against a wall at z = 0.3: 1e96 N at 1 mm deep, within
        # the 1e100 N limit, and 1.01e100 N at 10.1 m deep on the third row
        material = tmp_path / "wall.yaml"
        material.write_text(
            "type: spring\nsurface_point: [0.0, 0.0, 0.3]\nnormal: [0.0, 0.0, 1.0]\n"
            "stiffness: 1.0e+99\n"
        )
        trajectory = tmp_path / "press.csv"
        trajectory.write_text("t,x,y,z\n0.0,0.0,0.0,0.31\n0.001,0.0,0.0,0.299\n0.002,0.0,0.0,-9.8\n")
        out = tmp_path / "out"
        argv = ["material", "--material", str(material), "--trajectory", str(trajectory)]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{trajectory}: row 3 (t=0.002): force must be below 1e+100 in size" in captured.err
        assert not (out / "material.csv").exists()

    def test_trajectory_whose_velocities_would_overflow_writes_nothing(self, tmp_path, capsys):
        # a 1e10 m jump in 1e-300 s: np.gradient overflowed to an inf velocity
        material = tmp_path / "magnet.yaml"
        material.write_text("type: magnetic\ntarget: [0.0, 0.0, 0.5]\ngain: 3.0\nmax_force: 6.0\n")
        trajectory = tmp_path / "jump.csv"
        trajectory.write_text("t,x,y,z\n0.0,0.0,0.0,0.3\n1e-300,1e10,0.0,0.3\n")
        out = tmp_path / "out"
        argv = ["material", "--material", str(material), "--trajectory", str(trajectory)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {trajectory}: to difference velocities")
        assert "at least 1e-100 s" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "material, velocity, named",
        [
            # refused where it enters, before any row is evaluated
            ("type: damper\ncoefficient: 1.0e+300\n", "1e10", "bad damper: coefficient must be below"),
            # 1e160 m/s would square to inf, leaving the force uncapped at -0.0
            (
                "type: friction\ncoefficient: 1.5\nmax_force: 2.0\ntangent_plane_normal: [0, 1, 0]\n",
                "1e160",
                "row 1 (t=0.0): velocity must be below",
            ),
        ],
        ids=["damper", "friction"],
    )
    def test_material_values_above_the_limit_are_refused(
        self, tmp_path, capsys, material, velocity, named
    ):
        path = tmp_path / "material.yaml"
        path.write_text(material)
        trajectory = tmp_path / "fast.csv"
        trajectory.write_text(f"t,x,y,z,vx,vy,vz\n0.0,0.0,0.0,0.3,{velocity},0,0\n")
        out = tmp_path / "out"
        argv = ["material", "--material", str(path), "--trajectory", str(trajectory)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err and "1e+100 in size" in captured.err
        assert not out.exists()


class TestSolverFlags:
    """Every solving command forwards --max-iterations and --tolerance: each
    changes the output, and passing the defaults explicitly changes nothing."""

    @pytest.fixture()
    def runs(self, tmp_path):
        material = tmp_path / "magnet.yaml"
        material.write_text("type: magnetic\ntarget: [0.0, 0.0, 0.5]\ngain: 3.0\nmax_force: 6.0\n")
        trajectory = tmp_path / "path.csv"
        rows = ["t,x,y,z"] + [f"{0.1 * k},{x!r},0.1,0.4" for k, x in enumerate((-0.3, 0.0, 0.3))]
        trajectory.write_text("\n".join(rows) + "\n")
        return {
            "validate": (["validate", "--samples", "12", "--ticks", "2"], "validation.csv"),
            # a point where every probe is feasible with the default settings
            "workspace": (
                ["workspace", "--grid-min", "0,0,1.2", "--grid-max", "0,0,1.2", "--grid-res", "1,1,1"],
                "workspace.csv",
            ),
            "material": (
                ["material", "--material", str(material), "--trajectory", str(trajectory)],
                "material.csv",
            ),
        }

    @pytest.mark.parametrize("command", ["validate", "workspace", "material"])
    def test_flags_reach_the_solver(self, command, runs, tmp_path):
        argv, name = runs[command]

        def output(*flags):
            out = tmp_path / ("run" + "".join(flags))
            assert main(argv + ["--out", str(out), *flags]) == 0
            return (out / name).read_bytes()

        default = output()
        assert output("--max-iterations", "1") != default
        assert output("--tolerance", "0.5") != default
        explicit = output(
            "--max-iterations",
            str(SolverConfig.max_iterations),
            "--tolerance",
            repr(SolverConfig.tolerance),
        )
        assert explicit == default
