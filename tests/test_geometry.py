import copy
import pickle

import numpy as np
import pytest

from cablehaptics import (
    DegenerateGeometry,
    ModuleAnchor,
    ModuleLayout,
    StructureMatrix,
    TensionBounds,
    actuation_rank,
    cable_directions,
    solve,
    structure_matrix,
)
from cablehaptics.simulation import default_validation_layout


def make_layout(*positions):
    return ModuleLayout(
        tuple(ModuleAnchor(f"m{k}", np.array(p, dtype=float)) for k, p in enumerate(positions))
    )


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestCableDirections:
    def test_axis_aligned_unit_case(self):
        layout = make_layout((1.0, 0.0, 0.0))
        dirs = cable_directions(layout, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(dirs, [[1.0, 0.0, 0.0]])

    def test_overhead_module_normalizes_to_plus_z(self):
        layout = make_layout((0.0, 0.0, 2.0))
        dirs = cable_directions(layout, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(dirs, [[0.0, 0.0, 1.0]])

    def test_translation_invariance_of_direction(self):
        layout = make_layout((1.0, 1.0, 5.0))
        dirs = cable_directions(layout, (1.0, 1.0, 0.0))
        np.testing.assert_allclose(dirs, [[0.0, 0.0, 1.0]])

    def test_directions_are_unit_norm(self):
        layout, ee = default_validation_layout()
        dirs = cable_directions(layout, ee + np.array([0.3, 0.0, 0.0]))
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_degenerate_when_ee_on_anchor(self):
        layout = make_layout((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        with pytest.raises(DegenerateGeometry):
            cable_directions(layout, (1.0, 0.0, 5e-7))

    def test_random_translation_invariance(self):
        rng = np.random.default_rng(7)
        layout, ee = default_validation_layout()
        base = cable_directions(layout, ee)
        for _ in range(25):
            shift = rng.normal(scale=3.0, size=3)
            moved = ModuleLayout(
                tuple(
                    ModuleAnchor(a.id, a.position + shift) for a in layout.anchors
                ),
                layout.bounds,
            )
            np.testing.assert_allclose(
                cable_directions(moved, ee + shift), base, atol=1e-12
            )


class TestStructureMatrix:
    def test_identity_columns(self):
        layout = make_layout((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        A = structure_matrix(layout, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(A.columns, np.eye(3))

    def test_antagonistic_pair(self):
        layout = make_layout((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
        A = structure_matrix(layout, (0.0, 0.0, 0.0))
        np.testing.assert_allclose(A.columns, [[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_columns_match_directions_at_offset_pose(self):
        layout, ee = default_validation_layout()
        pose = ee + np.array([0.0, 0.3, 0.0])
        A = structure_matrix(layout, pose)
        np.testing.assert_allclose(A.columns, cable_directions(layout, pose).T)
        np.testing.assert_allclose(np.linalg.norm(A.columns, axis=0), 1.0, atol=1e-12)

    def test_all_ones_tension_sums_directions(self):
        layout, ee = default_validation_layout()
        A = structure_matrix(layout, ee)
        dirs = cable_directions(layout, ee)
        np.testing.assert_allclose(
            A.columns @ np.ones(len(layout)), dirs.sum(axis=0), atol=1e-12
        )

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        layout, ee = default_validation_layout()
        base = structure_matrix(layout, ee).columns
        for _ in range(25):
            rot = random_rotation(rng)
            rotated = ModuleLayout(
                tuple(ModuleAnchor(a.id, rot @ a.position) for a in layout.anchors),
                layout.bounds,
            )
            np.testing.assert_allclose(
                structure_matrix(rotated, rot @ ee).columns, rot @ base, atol=1e-12
            )

    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError):
            StructureMatrix(np.array([[2.0], [0.0], [0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        cols = np.array([[bad, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            StructureMatrix(cols)

    def test_columns_can_never_change(self):
        layout, ee = default_validation_layout()
        source = np.array(cable_directions(layout, ee).T)
        A = StructureMatrix(source)
        kept = A.columns.tobytes()
        f = [0.3, -0.4, 1.2]
        before = solve(A, f, layout.bounds)
        with pytest.raises(ValueError):
            A.columns.setflags(write=True)
        with pytest.raises(ValueError):
            A.columns[0, 0] = 0.0
        # the source's writes, with unit columns still, reach neither A
        # nor a solve on it: the solver knows A by identity
        source[:] = source[:, ::-1]
        assert A.columns.tobytes() == kept
        after = solve(A, f, layout.bounds)
        assert after.tensions.tobytes() == before.tensions.tobytes()
        assert after.rendered_force.tobytes() == before.rendered_force.tobytes()
        assert solve(source, f, layout.bounds).tensions.tobytes() != before.tensions.tobytes()
        # nor can a copy's or an unpickled matrix's
        for copied in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
            assert copied.columns.tobytes() == kept
            with pytest.raises(ValueError):
                copied.columns.setflags(write=True)


def planar_columns(*angles):
    """Unit columns in the XY plane at the given angles (radians)."""
    return np.vstack([np.cos(angles), np.sin(angles), np.zeros(len(angles))])


class TestActuationRank:
    # two columns 1e-12 rad apart sit under the 1e-9 relative cutoff;
    # 1e-6 rad apart they are independent
    @pytest.mark.parametrize(
        "columns, rank",
        [
            pytest.param(np.eye(3), 3, id="identity"),
            pytest.param(planar_columns(0.0, 0.0), 1, id="collinear"),
            pytest.param(planar_columns(0.0, np.pi), 1, id="antagonistic-pair"),
            pytest.param(planar_columns(0.0, 1e-12), 1, id="1e-12-rad-apart"),
            pytest.param(planar_columns(0.0, 1e-6), 2, id="1e-6-rad-apart"),
            pytest.param(planar_columns(0.3, 1.9, 3.4, 4.8), 2, id="coplanar-four"),
            pytest.param(
                structure_matrix(*default_validation_layout()).columns, 3, id="default-four-module"
            ),
        ],
    )
    def test_rank(self, columns, rank):
        assert actuation_rank(StructureMatrix(columns)) == rank


class TestLayoutValidation:
    def test_needs_at_least_one_anchor(self):
        with pytest.raises(ValueError):
            ModuleLayout(())

    def test_rejects_duplicate_ids(self):
        anchors = (
            ModuleAnchor("a", np.array([0.0, 0.0, 0.0])),
            ModuleAnchor("a", np.array([1.0, 0.0, 0.0])),
        )
        with pytest.raises(ValueError):
            ModuleLayout(anchors)

    def test_rejects_coincident_anchors(self):
        anchors = (
            ModuleAnchor("a", np.array([0.0, 0.0, 0.0])),
            ModuleAnchor("b", np.array([0.0, 0.0, 5e-10])),
        )
        with pytest.raises(ValueError):
            ModuleLayout(anchors)

    def test_rejects_non_finite_anchor(self):
        with pytest.raises(ValueError):
            ModuleAnchor("a", np.array([np.nan, 0.0, 0.0]))

    def test_per_module_bounds_length_checked(self):
        anchors = (
            ModuleAnchor("a", np.array([0.0, 0.0, 0.0])),
            ModuleAnchor("b", np.array([1.0, 0.0, 0.0])),
        )
        with pytest.raises(ValueError):
            ModuleLayout(anchors, (TensionBounds(),))

    def test_positions_read_only(self):
        anchor = ModuleAnchor("a", np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            anchor.position[0] = 9.0

    @pytest.mark.parametrize("bad_id", [3, 3.0, None, b"m1", ("m1",)])
    def test_rejects_non_string_id(self, bad_id):
        # a non-string id would be saved but read back through str(), where
        # 3 and "3" collide
        with pytest.raises(ValueError, match="id must be a string"):
            ModuleAnchor(bad_id, np.array([0.0, 0.0, 0.0]))


class TestAnchorPositions:
    def test_stacked_once_read_only(self):
        layout, _ = default_validation_layout()
        positions = layout.anchor_positions
        assert positions is layout.anchor_positions
        assert positions.shape == (4, 3)
        np.testing.assert_array_equal(positions, [a.position for a in layout.anchors])
        with pytest.raises(ValueError):
            positions[0, 0] = 9.0

    def test_layouts_compare_by_anchors_alone(self):
        layout, _ = default_validation_layout()
        assert layout == ModuleLayout(layout.anchors, layout.bounds)
        assert "_positions" not in repr(layout)

    def test_structure_matrix_bytes_equal_the_per_call_stack(self):
        rng = np.random.default_rng(12)
        layout = make_layout(*rng.uniform(-2.0, 2.0, size=(7, 3)))
        for ee in rng.uniform(-1.0, 1.0, size=(50, 3)):
            offsets = np.array([a.position for a in layout.anchors]) - ee
            norms = np.linalg.norm(offsets, axis=1)
            expected = (offsets / norms[:, None]).T
            assert structure_matrix(layout, ee).columns.tobytes() == expected.tobytes()
