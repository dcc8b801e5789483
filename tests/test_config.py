import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from cablehaptics import (
    Composite,
    ConfigError,
    Damper,
    Magnetic,
    ModuleAnchor,
    ModuleLayout,
    Spring,
    TensionBounds,
)
from cablehaptics import config
from cablehaptics.config import (
    layout_from_dict,
    layout_to_dict,
    load_layout,
    load_material,
    load_trajectory,
    material_from_dict,
    save_layout,
)


def sample_layout():
    return ModuleLayout(
        (
            ModuleAnchor("left", np.array([-1.0, 0.1, 0.30000000000000004])),
            ModuleAnchor("right", np.array([1.0, -0.2, 2.5e-09])),
            ModuleAnchor("top", np.array([0.0, 0.0, 2.3])),
        ),
        TensionBounds(0.5, 6.0),
    )


class TestLayoutRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        layout = sample_layout()
        path = tmp_path / "layout.yaml"
        save_layout(layout, path)
        loaded = load_layout(path)
        assert [a.id for a in loaded.anchors] == [a.id for a in layout.anchors]
        for original, reread in zip(layout.anchors, loaded.anchors):
            np.testing.assert_array_equal(original.position, reread.position)
        assert loaded.bounds == layout.bounds

    def test_per_module_bounds_round_trip(self, tmp_path):
        layout = ModuleLayout(
            (
                ModuleAnchor("a", np.array([0.0, 0.0, 0.0])),
                ModuleAnchor("b", np.array([1.0, 0.0, 0.0])),
            ),
            (TensionBounds(0.5, 6.0), TensionBounds(1.0, 4.0)),
        )
        path = tmp_path / "layout.yaml"
        save_layout(layout, path)
        assert load_layout(path).bounds == layout.bounds

    def test_default_bounds_when_missing(self):
        layout = layout_from_dict({"anchors": [{"id": "a", "position": [1, 0, 0]}]})
        assert layout.bounds == TensionBounds()

    def test_dict_form_is_plain_data(self):
        data = layout_to_dict(sample_layout())
        assert data["anchors"][0] == {
            "id": "left",
            "position": [-1.0, 0.1, 0.30000000000000004],
        }
        assert data["bounds"] == {"t_min": 0.5, "t_max": 6.0}


class TestLayoutErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_layout(tmp_path / "nope.yaml")

    def test_missing_anchors_key(self):
        with pytest.raises(ConfigError):
            layout_from_dict({"bounds": {"t_min": 0.5, "t_max": 6.0}})

    def test_anchor_without_position(self):
        with pytest.raises(ConfigError):
            layout_from_dict({"anchors": [{"id": "a"}]})

    def test_bad_bounds_values(self):
        with pytest.raises(ConfigError):
            layout_from_dict(
                {
                    "anchors": [{"id": "a", "position": [1, 0, 0]}],
                    "bounds": {"t_min": 6.0, "t_max": 0.5},
                }
            )

    @pytest.mark.parametrize("field", ["t_min", "t_max"])
    @pytest.mark.parametrize("bad", ["0.5", [0.5], None])
    def test_non_numeric_bounds_rejected_naming_the_field(self, field, bad):
        bounds = {"t_min": 0.5, "t_max": 6.0, field: bad}
        with pytest.raises(ConfigError, match=f"{field} must be a finite real number"):
            layout_from_dict({"anchors": [{"id": "a", "position": [1, 0, 0]}], "bounds": bounds})

    @pytest.mark.parametrize("word", ["yes", "no", "true", "on"])
    def test_yaml_bool_bounds_rejected_naming_the_field(self, tmp_path, word):
        # YAML 1.1 reads these as bools, which are not tensions
        path = tmp_path / "layout.yaml"
        path.write_text(
            f"anchors:\n- id: a\n  position: [1.0, 0.0, 0.0]\nbounds: {{t_min: {word}, t_max: 6.0}}\n"
        )
        with pytest.raises(ConfigError, match="t_min must be a finite real number"):
            load_layout(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("anchors: [unclosed")
        with pytest.raises(ConfigError):
            load_layout(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_layout(path)


README = Path(__file__).resolve().parents[1] / "README.md"
# The loaders _load_yaml may use: libyaml's where PyYAML has it, and the
# pure-Python one, which must read every file the same way.
LOADERS = [
    pytest.param(getattr(yaml, name), id=name)
    for name in ("CSafeLoader", "SafeLoader")
    if hasattr(yaml, name)
]


def readme_yaml_examples() -> list[str]:
    """The README's YAML blocks: the layout example, then the material one."""
    return re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)


def readme_python_example() -> str:
    """The README's one Python block, the library quick start."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    return block


def test_readme_python_quick_start_runs(capsys):
    exec(compile(readme_python_example(), str(README), "exec"), {})
    status = capsys.readouterr().out.split()[0]
    assert status == "feasible_exact"


class TestYamlLoaders:
    def test_the_loader_is_libyaml_where_pyyaml_has_it(self):
        assert config._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    def test_readme_examples_load_to_the_same_data(self, tmp_path, monkeypatch):
        examples = readme_yaml_examples()
        assert len(examples) == 2
        for k, text in enumerate(examples):
            path = tmp_path / f"example{k}.yaml"
            path.write_text(text)
            loaded = []
            for param in LOADERS:
                monkeypatch.setattr(config, "_YAML_LOADER", param.values[0])
                loaded.append(config._load_yaml(path))
            # repr also tells 2 from 2.0
            assert all(repr(data) == repr(loaded[0]) for data in loaded)
        layout = load_layout(tmp_path / "example0.yaml")
        assert [a.id for a in layout.anchors] == ["m1", "m2", "m3", "m4"]
        assert layout.bounds == TensionBounds(0.5, 6.0)
        material = load_material(tmp_path / "example1.yaml")
        assert isinstance(material, Composite) and len(material.children) == 5

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize(
        "text, message",
        [
            ("anchors: [unclosed", "invalid YAML"),
            ("anchors:\n  - id: a\n bad: indent\n", "invalid YAML"),
            ("key: [1, 2]\nkey2: {a: 1\n", "invalid YAML"),
            ("\tanchors: []\n", "invalid YAML"),
            ("- 1\n- 2\n", "expected a mapping"),
            ("just a string\n", "expected a mapping"),
            ("", "expected a mapping"),
        ],
    )
    def test_bad_files_raise_config_error(self, tmp_path, monkeypatch, loader, text, message):
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            config._load_yaml(path)


class TestMaterialParsing:
    def test_damper(self):
        material = material_from_dict({"type": "damper", "coefficient": 2.0})
        assert material == Damper(2.0)

    def test_magnetic(self):
        material = material_from_dict(
            {"type": "magnetic", "target": [1, 0, 0], "gain": 3.0, "max_force": 6.0}
        )
        assert isinstance(material, Magnetic)
        np.testing.assert_array_equal(material.target, [1.0, 0.0, 0.0])

    def test_quoted_material_numbers_rejected_naming_the_field(self):
        with pytest.raises(ConfigError, match="gain must be a finite real number"):
            material_from_dict({"type": "magnetic", "target": [1, 0, 0], "gain": "3.0", "max_force": 6.0})

    def test_composite_recurses(self):
        material = material_from_dict(
            {
                "type": "composite",
                "children": [
                    {"type": "damper", "coefficient": 1.0},
                    {
                        "type": "spring",
                        "surface_point": [0, 0, 0],
                        "normal": [0, 1, 0],
                        "stiffness": 100.0,
                    },
                ],
            }
        )
        assert isinstance(material, Composite)
        assert isinstance(material.children[0], Damper)
        assert isinstance(material.children[1], Spring)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "material.yaml"
        path.write_text("type: damper\ncoefficient: 2.5\n")
        assert load_material(path) == Damper(2.5)

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            material_from_dict({"type": "antigravity"})

    def test_missing_field(self):
        with pytest.raises(ConfigError):
            material_from_dict({"type": "damper"})

    def test_bad_value_reported_with_context(self):
        with pytest.raises(ConfigError, match="children\\[0\\]"):
            material_from_dict(
                {
                    "type": "composite",
                    "children": [{"type": "damper", "coefficient": -1.0}],
                }
            )


class TestTrajectoryLoading:
    def test_explicit_velocities(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y,z,vx,vy,vz\n0.0,0,0,0,1,0,0\n0.5,0.5,0,0,1,0,0\n")
        times, positions, velocities = load_trajectory(path)
        np.testing.assert_array_equal(times, [0.0, 0.5])
        np.testing.assert_array_equal(positions[1], [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(velocities, [[1, 0, 0], [1, 0, 0]])

    def test_finite_difference_velocities(self, tmp_path):
        path = tmp_path / "traj.csv"
        rows = ["t,x,y,z"] + [f"{t},{t * 2.0},0,0" for t in np.linspace(0, 1, 11)]
        path.write_text("\n".join(rows) + "\n")
        _, _, velocities = load_trajectory(path)
        np.testing.assert_allclose(velocities[:, 0], 2.0, atol=1e-9)
        np.testing.assert_allclose(velocities[:, 1:], 0.0, atol=1e-12)

    def test_single_row_gets_zero_velocity(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y,z\n0.0,1,2,3\n")
        _, positions, velocities = load_trajectory(path)
        np.testing.assert_array_equal(positions, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(velocities, [[0.0, 0.0, 0.0]])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("time,x,y,z\n0,0,0,0\n")
        with pytest.raises(ConfigError):
            load_trajectory(path)

    def test_bad_cell(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y,z\n0,zero,0,0\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_trajectory(path)

    def test_non_increasing_times_rejected_without_velocities(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("t,x,y,z\n0,0,0,0\n0,1,0,0\n")
        with pytest.raises(ConfigError):
            load_trajectory(path)

    def test_differencing_within_the_limits_raises_no_floating_point_error(self, tmp_path):
        # seeded trajectories with steps from the 1e-100 s floor up and times
        # and positions up to just below 1e100; a case whose steps round
        # below the floor in floats must be refused instead
        rng = np.random.default_rng(31)
        path = tmp_path / "traj.csv"
        loaded = refused = 0
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            steps = np.where(rng.random(n - 1) < 0.25, 1e-100, 10.0 ** rng.uniform(-100, 98, n - 1))
            if rng.random() < 0.5:
                # from 0, in ascending steps: no step is lost in the time it follows
                start = 0.0
                steps.sort()
            else:
                start = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 99) / 2.0
            times = start + np.concatenate([[0.0], np.cumsum(steps)])
            size = 10.0 ** rng.uniform(-300, 100, (n, 3))
            size[rng.random((n, 3)) < 0.25] = 0.999e100
            positions = np.minimum(size, 0.999e100) * rng.choice([-1.0, 0.0, 1.0], (n, 3))
            rows = ["t,x,y,z"] + [
                ",".join(map(repr, [t, *p])) for t, p in zip(times.tolist(), positions.tolist())
            ]
            path.write_text("\n".join(rows) + "\n")
            with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
                warnings.simplefilter("error")
                if np.diff(times).min() < 1e-100:
                    with pytest.raises(ConfigError, match="to difference velocities"):
                        load_trajectory(path)
                    refused += 1
                    continue
                _, _, velocities = load_trajectory(path)
            assert np.isfinite(velocities).all()
            loaded += 1
        assert loaded > 1000 and refused > 0


DIFFERENCE = (
    "to difference velocities, times and positions must be below 1e+100 in size "
    "and times must step by at least 1e-100 s"
)
ANCHORS = "anchors:\n- {id: a, position: [1.0, 0.0, 0.0]}\n- {id: b, position: [0.0, 1.0, 0.0]}\n"


@pytest.mark.parametrize(
    "load, text, names",
    [
        (load_layout, ANCHORS + "bounds: [5.0, {t_min: 0.5, t_max: 6.0}]\n", "bounds[0]: bounds entry must be a mapping"),
        (load_layout, ANCHORS + "bounds: {t_min: 0.5}\n", "bounds need t_min and t_max; missing 't_max'"),
        (load_layout, "anchors:\n- {id: a, position: [1.0, 0.0]}\n", "anchor 0: position"),
        (
            load_layout,
            "anchors:\n- {id: a, position: [1.0, 0.0, 0.0]}\n- {id: b, position: [1.0, 0.0, 0.0]}\n",
            "anchors 'a' and 'b' coincide",
        ),
        (load_material, "gain: 3.0\n", "material entry needs a 'type'"),
        (load_material, "type: composite\nchildren: {type: damper}\n", "composite needs a 'children' list"),
        (load_trajectory, None, "cannot read"),
        (load_trajectory, "\n\n", "empty trajectory"),
        (load_trajectory, "t,x,y,z\n0.0,1.0,2.0\n", "line 2: expected 4 columns, got 3"),
        (load_trajectory, "t,x,y,z\n", "no data rows"),
        (load_trajectory, "t,x,y,z\n0.0,nan,0.0,0.3\n", "line 2: non-finite"),
        # the first three overflowed or divided by zero in np.gradient or np.diff
        (load_trajectory, "t,x,y,z\n0.0,0.0,0.0,0.3\n1e-300,1e10,0.0,0.3\n", DIFFERENCE),
        (load_trajectory, "t,x,y,z\n0.0,0,0,0.3\n1e-200,0,0,0.3\n3e-200,0,0,0.3\n", DIFFERENCE),
        (load_trajectory, "t,x,y,z\n-1.7e308,0,0,0.3\n1.7e308,0,0,0.3\n", DIFFERENCE),
        (load_trajectory, "t,x,y,z\n0.0,0,0,0.3\n1.0,0,-1e100,0.3\n", DIFFERENCE),
        (load_trajectory, "t,x,y,z\n0.0,0,0,0.3\n1e100,0,0,0.3\n", DIFFERENCE),
        (load_trajectory, "t,x,y,z\n\n0.0,0,0,0.3\n0.001,0,a,0.31\n", "line 4: "),
        (load_trajectory, "t,x,y,z,vx\n0.0,0,0,0.3\n0.001,0,0,0.31\n", "header must be t,x,y,z or t,x,y,z,vx,vy,vz, got ['t', 'x', 'y', 'z', 'vx']"),
        (load_trajectory, "t,x,y,z,vx,vy,vz,extra\n0.0,0,0,0.3,0,0,0\n", "header must be t,x,y,z or t,x,y,z,vx,vy,vz, got ['t', 'x', 'y', 'z', 'vx', 'vy', 'vz', 'extra']"),
        (load_trajectory, "t,x,y,z,foo,bar,baz\n0.0,0,0,0.3,0,0,0\n", "header must be t,x,y,z or t,x,y,z,vx,vy,vz, got ['t', 'x', 'y', 'z', 'foo', 'bar', 'baz']"),
    ],
    ids=[
        "bounds-entry-not-a-mapping",
        "bounds-without-t_max",
        "anchor-bad-position",
        "coincident-anchors",
        "material-without-type",
        "composite-without-children-list",
        "unreadable-trajectory",
        "empty-trajectory",
        "wrong-column-count",
        "header-without-rows",
        "nan-cell",
        "overflowing-velocity-quotient",
        "zero-product-of-steps",
        "overflowing-step",
        "position-at-the-limit",
        "time-at-the-limit",
        "blank-line-before-a-bad-cell",
        "partial-velocity-header",
        "extra-header-column",
        "unknown-velocity-names",
    ],
)
def test_loader_errors_name_the_file_and_field(tmp_path, load, text, names):
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError) as caught:
        load(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ") or message.startswith(f"cannot read {path}: ")
    assert names in message
