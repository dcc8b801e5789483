import re
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
