import numpy as np
import pytest

import swirlfem as sf
from swirlfem import vtkio
from swirlfem import diagnostics as dg

from conftest import zero_state


class TestVtkRoundTrip:
    def test_mesh_and_fields_exact(self, small_mesh, tmp_path):
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        path = tmp_path / "snap.vtk"
        vtkio.write_snapshot_vtk(path, small_mesh, state)
        nodes, tets, pdata, cdata = vtkio.read_vtk(path)
        assert np.array_equal(nodes, small_mesh.nodes)
        assert np.array_equal(tets, small_mesh.tets)
        assert np.array_equal(pdata["velocity"], state.velocity)
        assert np.array_equal(pdata["pressure"], state.pressure)

    def test_cell_data_and_int_fields(self, small_mesh, tmp_path):
        labels = np.arange(small_mesh.n_tets) % 4
        path = tmp_path / "mesh.vtk"
        vtkio.write_vtk(path, small_mesh.nodes, small_mesh.tets,
                        cell_data={"region": labels})
        _, _, pdata, cdata = vtkio.read_vtk(path)
        assert pdata == {}
        assert np.array_equal(cdata["region"], labels)
        assert cdata["region"].dtype.kind == "i"

    def test_awkward_floats_roundtrip(self, tmp_path):
        nodes = np.array([[1e-17, -2.0 / 3.0, 0.1],
                          [np.pi, 1.0 + 2 ** -52, -1e300],
                          [5e-324, 0.0, -0.0],
                          [1.0, 2.0, 3.0]])
        tets = np.array([[0, 1, 2, 3]])
        path = tmp_path / "weird.vtk"
        vtkio.write_vtk(path, nodes, tets)
        back, _, _, _ = vtkio.read_vtk(path)
        assert np.array_equal(back, nodes)

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.vtk"
        path.write_text("not a vtk file\n")
        with pytest.raises(ValueError):
            vtkio.read_vtk(path)

    def test_writer_validates_field_length(self, small_mesh, tmp_path):
        with pytest.raises(ValueError):
            vtkio.write_vtk(tmp_path / "x.vtk", small_mesh.nodes,
                            small_mesh.tets,
                            point_data={"v": np.zeros(3)})


class TestCheckpoint:
    def test_roundtrip(self, small_mesh, tmp_path):
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        state.step_index = 17
        state.time = 17 * 0.0125
        rows = [[1.0, 2.0], [3.0, 4.0]]
        path = tmp_path / "chk.npz"
        vtkio.write_checkpoint(path, state, rows, "mesh: {n_r: 4}\n")
        back, stored = vtkio.read_checkpoint(path, small_mesh.n_nodes,
                                             "mesh: {n_r: 4}\n")
        assert back.step_index == 17
        assert back.time == state.time
        assert np.array_equal(back.velocity, state.velocity)
        assert np.array_equal(back.pressure, state.pressure)
        assert np.array_equal(stored, np.array(rows))

    def test_node_count_mismatch(self, small_mesh, tmp_path):
        state = zero_state(small_mesh)
        path = tmp_path / "chk.npz"
        vtkio.write_checkpoint(path, state, [], "")
        with pytest.raises(ValueError, match="nodes"):
            vtkio.read_checkpoint(path, small_mesh.n_nodes + 1)

    def test_other_config_refused(self, small_mesh, tmp_path):
        path = tmp_path / "chk.npz"
        vtkio.write_checkpoint(path, zero_state(small_mesh), [[0.0]],
                               "domain: {kind: straight}\n")
        with pytest.raises(ValueError, match="chk.npz.*another config"):
            vtkio.read_checkpoint(path, small_mesh.n_nodes,
                                  "domain: {kind: curved}\n")
        # without a config to compare, the stored one is not checked
        vtkio.read_checkpoint(path, small_mesh.n_nodes)

    def test_format_1_refused(self, small_mesh, tmp_path):
        state = zero_state(small_mesh)
        path = tmp_path / "chk.npz"
        np.savez(path, format=np.int64(1), step_index=np.int64(0),
                 time=np.float64(0.0), velocity=state.velocity,
                 pressure=state.pressure)
        with pytest.raises(ValueError, match="chk.npz.*format 1"):
            vtkio.read_checkpoint(path, small_mesh.n_nodes)


class TestDiagnosticsCsv:
    @staticmethod
    def one_record(mesh, spec):
        state = sf.sample_initial_state(
            mesh, sf.ProfileKind.STRAIGHT_FRAME, spec)
        return dg.compute_record(state, mesh, spec)

    def test_column_layout(self):
        cols = vtkio.csv_columns((50.0, 250.0, 750.0))
        assert cols[0] == "t"
        assert cols[-3:] == ["structures_q50", "structures_q250",
                             "structures_q750"]
        assert "E_total" in cols and "L_mag" in cols and "c_z3" in cols

    def test_csv_roundtrip_values(self, straight_spec, tmp_path):
        mesh = sf.cross_section_planes(
            straight_spec, 10, sf.build_straight_mesh(straight_spec, 4, 5))
        rec = self.one_record(mesh, straight_spec)
        path = tmp_path / "diag.csv"
        q = (50.0, 250.0, 750.0)
        vtkio.write_csv_rows(path, [vtkio.record_to_row(rec, q)], q)
        data = vtkio.read_csv(path)
        assert data["t"][0] == rec.t
        assert data["E_total"][0] == rec.e_total
        assert data["L_z"][0] == rec.l_total[2]
        assert data["planes_skipped"][0] == rec.planes_skipped

    def test_row_holds_record_and_deltas_from_previous_row(
            self, straight_spec):
        mesh = sf.cross_section_planes(
            straight_spec, 10, sf.build_straight_mesh(straight_spec, 4, 5))
        q = (50.0, 250.0, 750.0)
        rec = self.one_record(mesh, straight_spec)
        state = sf.sample_initial_state(
            mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        state.velocity *= 0.5
        state.time = 0.25
        rec2 = dg.compute_record(state, mesh, straight_spec)

        row = vtkio.record_to_row(rec, q)
        assert row[0] == rec.t
        assert row[3] == rec.e_total
        assert np.array_equal(row[8:11], rec.l_total)
        assert np.array_equal(row[18:30], rec.curve.coeffs.ravel())
        assert row[32:] == [float(rec.structure_counts[c]) for c in q]
        assert row[16:18] == [0.0, 0.0]     # first row: no previous one

        row2 = vtkio.record_to_row(rec2, q, prev_row=row)
        assert row2[16] == abs(rec2.e_total - rec.e_total) > 0.0
        assert row2[17] == np.linalg.norm(rec2.l_total - rec.l_total) > 0.0
        # the same deltas from a row read back as floats (a resumed run)
        back = [float(v) for v in np.asarray(row)]
        assert vtkio.record_to_row(rec2, q, prev_row=back) == row2
