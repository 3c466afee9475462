"""Command line interface: config parsing, VTK export, subcommand contracts."""

import logging
import re
import time

import numpy as np
import pytest

import egns.assembly
import egns.cli
from egns.cli import ConfigError, RunConfig, load_config, main, worker_count, write_vtk
from egns.eg_space import EGField, interpolate
from egns.mesh import build_rect_uniform, export_mesh


def _cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _section(lines, header, count):
    """Rows following a VTK section header."""
    i = lines.index(header)
    if lines[i + 1].startswith("LOOKUP_TABLE"):
        i += 1
    return lines[i + 1 : i + 1 + count]


def _floats(rows):
    return np.array([[float(tok) for tok in r.split()] for r in rows])


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        path = _cfg(tmp_path, "[mesh]\nresolution = 8\n\n[physics]\nnu = 0.5\n")
        cfg = load_config(path)
        assert cfg.resolution == 8
        assert cfg.nu == 0.5
        assert cfg.levels is None
        assert cfg.continuation is False

    def test_levels_list(self, tmp_path):
        cfg = load_config(_cfg(tmp_path, "[mesh]\nlevels = 16 32 64\n"))
        assert cfg.levels == [16, 32, 64]

    def test_unknown_key_rejected(self, tmp_path):
        path = _cfg(tmp_path, "[mesh]\nwobble = 3\n")
        with pytest.raises(ConfigError, match="wobble"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = _cfg(tmp_path, "[junk]\na = 1\n")
        with pytest.raises(ConfigError, match="junk"):
            load_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = _cfg(tmp_path, "[physics]\nnu = fast\n")
        with pytest.raises(ConfigError, match="nu"):
            load_config(path)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, tmp_path, raw, capsys):
        path = _cfg(tmp_path, f"[physics]\nforcing_scale = {raw}\n")
        with pytest.raises(ConfigError, match="forcing_scale.*not finite"):
            load_config(path)
        assert main(["cavity", "--config", path, "--out", str(tmp_path)]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_nu_reynolds_conflict(self, tmp_path):
        path = _cfg(tmp_path, "[physics]\nnu = 0.1\nreynolds = 10\n")
        with pytest.raises(ConfigError, match="reynolds"):
            load_config(path)

    def test_boundary_recipes(self, tmp_path):
        path = _cfg(tmp_path, "[boundary]\n1 = noslip\n2 = outflow\n3 = velocity 1 0\n")
        cfg = load_config(path)
        assert cfg.boundary == {1: "noslip", 2: "outflow", 3: "velocity 1 0"}

    def test_boundary_tag_must_be_integer(self, tmp_path):
        path = _cfg(tmp_path, "[boundary]\nleft = noslip\n")
        with pytest.raises(ConfigError, match="tag"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.ini"))

    def test_continuation_flag(self, tmp_path):
        cfg = load_config(_cfg(tmp_path, "[physics]\ncontinuation = yes\n"))
        assert cfg.continuation is True
        cfg = load_config(_cfg(tmp_path, "[physics]\ncontinuation = off\n", "b.ini"))
        assert cfg.continuation is False
        with pytest.raises(ConfigError):
            load_config(_cfg(tmp_path, "[physics]\ncontinuation = maybe\n", "c.ini"))


class TestWorkerCount:
    def test_serial_forces_one(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "8")
        assert worker_count(True, 4) == 1

    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "3")
        assert worker_count(False, 8) == 3

    def test_jobs_cap(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "16")
        assert worker_count(False, 2) == 2

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "lots")
        assert worker_count(False, 4) >= 1


class TestWriteVtk:
    def test_zero_solution_layout(self, tmp_path):
        mesh = build_rect_uniform(1, 1)
        path = tmp_path / "zero.vtk"
        write_vtk(mesh, (EGField.zeros(mesh), np.zeros(mesh.num_triangles)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert "POINTS 4 double" in lines
        assert "CELLS 2 8" in lines
        assert "CELL_TYPES 2" in lines
        assert "POINT_DATA 4" in lines
        assert "CELL_DATA 2" in lines
        for name in ("pressure", "kinematic_pressure", "divergence", "vorticity"):
            assert f"SCALARS {name} double 1" in lines
        assert "VECTORS velocity double" in lines
        assert "VECTORS reconstructed_velocity double" in lines

        types = _section(lines, "CELL_TYPES 2", 2)
        assert types == ["5", "5"]
        for header, count in [
            ("VECTORS velocity double", 4),
            ("SCALARS pressure double 1", 2),
            ("SCALARS kinematic_pressure double 1", 2),
            ("SCALARS divergence double 1", 2),
            ("SCALARS vorticity double 1", 2),
            ("VECTORS reconstructed_velocity double", 2),
        ]:
            vals = _floats(_section(lines, header, count))
            assert np.all(vals == 0.0), header

    def test_byte_identical_rerun(self, tmp_path):
        mesh = build_rect_uniform(3, 2)
        rng = np.random.default_rng(3)
        fld = EGField(
            rng.standard_normal((mesh.num_vertices, 2)),
            rng.standard_normal(mesh.num_edges),
        )
        p = rng.standard_normal(mesh.num_triangles)
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        write_vtk(mesh, (fld, p), a)
        write_vtk(mesh, (fld, p), b)
        assert a.read_bytes() == b.read_bytes()

    def test_shear_field_diagnostics(self, tmp_path):
        mesh = build_rect_uniform(3, 3)

        def shear(xy):
            y = xy[..., 1]
            return np.stack([y, np.zeros_like(y)], axis=-1)

        fld = interpolate(mesh, shear)
        path = tmp_path / "shear.vtk"
        write_vtk(mesh, (fld, np.zeros(mesh.num_triangles)), path)
        lines = path.read_text().splitlines()
        nt = mesh.num_triangles
        vort = _floats(_section(lines, "SCALARS vorticity double 1", nt))[:, 0]
        assert np.abs(vort + 1.0).max() < 1e-12
        div = _floats(_section(lines, "SCALARS divergence double 1", nt))[:, 0]
        assert np.abs(div).max() < 1e-12
        recon = _floats(_section(lines, "VECTORS reconstructed_velocity double", nt))
        assert np.all(recon[:, 2] == 0.0)

    def test_constant_field_kinematic_pressure(self, tmp_path):
        mesh = build_rect_uniform(2, 2)
        fld = interpolate(
            mesh,
            lambda xy: np.broadcast_to(
                np.array([2.0, -1.0]), xy.shape
            ).copy(),
        )
        path = tmp_path / "const.vtk"
        write_vtk(mesh, (fld, np.zeros(mesh.num_triangles)), path)
        lines = path.read_text().splitlines()
        nt = mesh.num_triangles
        kin = _floats(_section(lines, "SCALARS kinematic_pressure double 1", nt))[:, 0]
        assert np.abs(kin + 2.5).max() < 1e-13
        recon = _floats(_section(lines, "VECTORS reconstructed_velocity double", nt))
        assert np.abs(recon[:, 0] - 2.0).max() < 1e-13
        assert np.abs(recon[:, 1] + 1.0).max() < 1e-13


class TestMainPlumbing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_path(self, tmp_path, capsys):
        rc = main(["noflow", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        path = _cfg(tmp_path, "[mesh]\nwobble = 1\n")
        assert main(["noflow", "--config", path]) == 2


class TestNoflowCommand:
    def test_hydrostatic_balance(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nresolution = 16\n")
        rc = main(["noflow", "--config", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        got = {}
        for comp in ("u0_x", "u0_y", "u_b"):
            m = re.search(rf"max \|{re.escape(comp)}\| += ([0-9.eE+-]+)", out)
            assert m, out
            got[comp] = float(m.group(1))
        assert got["u0_x"] < 1e-6
        assert got["u0_y"] < 1e-6
        assert "noflow: PASS" in out

    def test_zero_rayleigh_is_exact(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nresolution = 8\n\n[physics]\nra = 0\n")
        rc = main(["noflow", "--config", path])
        out = capsys.readouterr().out
        assert rc == 0
        m = re.search(r"max \|u0_x\| += ([0-9.eE+-]+)", out)
        assert float(m.group(1)) == 0.0

    def test_threshold_failure_exit(self, tmp_path, capsys):
        path = _cfg(
            tmp_path, "[mesh]\nresolution = 8\n\n[physics]\nthreshold = 1e-30\n"
        )
        rc = main(["noflow", "--config", path])
        assert rc == 1
        assert "noflow: FAIL" in capsys.readouterr().out


class TestConvergeCommand:
    def test_two_levels(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nlevels = 8 16\n")
        rc = main(["converge", "--config", path, "--out", str(tmp_path), "--serial"])
        assert rc == 0
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv[0] == "h,e_l2,order,e_h1,order,e_p,order"
        assert len(csv) == 3
        row = csv[2].split(",")
        assert 1.5 < float(row[2]) < 2.5
        assert 0.6 < float(row[4]) < 1.4
        assert 0.6 < float(row[6]) < 1.4

    def test_single_level_blank_orders(self, tmp_path):
        path = _cfg(tmp_path, "[mesh]\nlevels = 8\n")
        rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(csv) == 2
        cells = csv[1].split(",")
        assert len(cells) == 7
        assert cells[2] == "" and cells[4] == "" and cells[6] == ""

    def test_low_viscosity_needs_continuation(self, tmp_path, capsys):
        path = _cfg(
            tmp_path,
            "[mesh]\nlevels = 8\n\n[physics]\nnu = 1e-5\n\n[newton]\nmax_iter = 80\n",
        )
        rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 1
        assert "failed" in capsys.readouterr().err
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv == ["h,e_l2,order,e_h1,order,e_p,order"]

    def test_failed_level_cancels_queued_levels(self, tmp_path, monkeypatch, capsys):
        started = []

        def fake_mesh(nx, ny):
            started.append(nx)
            if nx == 1:
                raise egns.cli.SolverError("fails at once")
            time.sleep(0.5)
            raise egns.cli.SolverError("slow level")

        monkeypatch.setattr(egns.cli, "build_rect_uniform", fake_mesh)
        monkeypatch.setenv("EGNS_THREADS", "2")
        path = _cfg(tmp_path, "[mesh]\nlevels = " + " ".join(map(str, range(1, 11))) + "\n")
        rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 1
        assert "level n=1 failed: fails at once" in capsys.readouterr().err
        # level 2 runs beside level 1, and the freed worker may take level 3
        # before the failure is seen; the other seven never start
        assert len(started) <= 3

    def test_continuation_through_cli(self, tmp_path):
        path = _cfg(
            tmp_path,
            "[mesh]\nlevels = 8\n\n[physics]\nnu = 2.5e-4\ncontinuation = yes\n",
        )
        rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "convergence.csv").is_file()


class TestCavityCommand:
    def test_gradient_forcing_invariance(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nresolution = 8\n")
        rc = main(["cavity", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"relative velocity difference = ([0-9.eE+-]+)", out)
        assert m, out
        assert float(m.group(1)) < 1e-6
        for name in ("cavity_f1.vtk", "cavity_f2.vtk", "cavity_diff.vtk"):
            assert (tmp_path / name).is_file()

    def test_zero_forcing_scale_identical(self, tmp_path, capsys):
        path = _cfg(
            tmp_path, "[mesh]\nresolution = 6\n\n[physics]\nforcing_scale = 0\n"
        )
        rc = main(["cavity", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"relative velocity difference = ([0-9.eE+-]+)", out)
        assert float(m.group(1)) == 0.0
        f1 = (tmp_path / "cavity_f1.vtk").read_bytes()
        f2 = (tmp_path / "cavity_f2.vtk").read_bytes()
        assert f1 == f2


class TestStepCommand:
    def test_recirculation_behind_step(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nh = 0.5\n\n[physics]\nreynolds = 100\n")
        rc = main(["step", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recirculation: True" in out
        assert "reattachment" in out
        assert (tmp_path / "step.vtk").is_file()

    def test_bad_inlet_profile(self, tmp_path):
        path = _cfg(tmp_path, "[physics]\ninlet = swirl\n")
        assert main(["step", "--config", path]) == 2


class TestRunCommand:
    def test_lid_driven_setup(self, tmp_path):
        path = _cfg(
            tmp_path,
            "[mesh]\ngenerator = unit_square\nresolution = 8\n\n"
            "[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n4 = noslip\n3 = velocity 1 0\n",
        )
        rc = main(["run", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "run.vtk").is_file()

    def test_channel_with_outflow(self, tmp_path):
        path = _cfg(
            tmp_path,
            "[mesh]\ngenerator = unit_square\nresolution = 8\n\n"
            "[physics]\nnu = 0.1\n\n"
            "[boundary]\n1 = noslip\n3 = noslip\n4 = parabolic 4 0 1\n2 = outflow\n",
        )
        rc = main(["run", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "run.vtk").is_file()

    def test_imported_mesh(self, tmp_path):
        mesh_file = tmp_path / "square.mesh"
        export_mesh(build_rect_uniform(4, 4), mesh_file)
        path = _cfg(
            tmp_path,
            f"[mesh]\ngenerator = import\npath = {mesh_file}\n\n"
            "[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n4 = noslip\n3 = velocity 1 0\n",
        )
        rc = main(["run", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "run.vtk").is_file()

    @pytest.mark.parametrize(
        "body, cause",
        [
            # a unit square plus a vertex no triangle uses
            (
                "5 2 4\n0 0\n1 0\n0 1\n1 1\n0.5 0.5\n0 1 3\n0 3 2\n"
                "0 1 1\n1 3 1\n2 3 1\n0 2 1\n",
                "vertex 4 is used by no triangle",
            ),
            # two unit squares one unit apart
            (
                "8 4 8\n0 0\n1 0\n0 1\n1 1\n2 0\n3 0\n2 1\n3 1\n"
                "0 1 3\n0 3 2\n4 5 7\n4 7 6\n"
                "0 1 1\n1 3 1\n2 3 1\n0 2 1\n4 5 1\n5 7 1\n6 7 1\n4 6 1\n",
                "2 parts that share no edge",
            ),
        ],
        ids=["unused-vertex", "two-parts"],
    )
    def test_defective_imported_mesh(self, tmp_path, capsys, body, cause):
        mesh_file = tmp_path / "bad.m2d"
        mesh_file.write_text(body)
        path = _cfg(
            tmp_path,
            f"[mesh]\ngenerator = import\npath = {mesh_file}\n\n"
            "[physics]\nnu = 1.0\n\n[boundary]\n1 = noslip\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert cause in capsys.readouterr().err

    def test_lid_corners_match_cavity(self, tmp_path):
        # the README's [boundary] section: the lid keeps both top corners
        path = _cfg(
            tmp_path,
            "[mesh]\ngenerator = unit_square\nresolution = 8\n\n"
            "[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n4 = noslip\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        cav = _cfg(tmp_path, "[mesh]\nresolution = 8\n\n[physics]\nnu = 1.0\n", "cav.ini")
        assert main(["cavity", "--config", cav, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "run.vtk").read_bytes() == (tmp_path / "cavity_f1.vtk").read_bytes()

    def test_continuation_stages_share_boundary_data(self, tmp_path, caplog, monkeypatch):
        calls = []
        build = egns.assembly.dirichlet_dof_map

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(egns.assembly, "dirichlet_dof_map", counted)
        path = _cfg(
            tmp_path,
            "[mesh]\ngenerator = unit_square\nresolution = 8\n\n"
            "[physics]\nreynolds = 4000\ncontinuation = yes\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n4 = noslip\n",
        )
        with caplog.at_level(logging.INFO):
            assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        stages = [r.message for r in caplog.records if "continuation stage" in r.message]
        assert len(stages) >= 2
        assert stages[-1].startswith(f"continuation stage {len(stages) - 1}: nu=0.00025 accepted")
        assert sum("overrid" in r.message for r in caplog.records) == 1
        assert len(calls) == 1

    def test_missing_boundary_section(self, tmp_path):
        path = _cfg(
            tmp_path, "[mesh]\nresolution = 8\n\n[physics]\nnu = 1.0\n"
        )
        assert main(["run", "--config", path]) == 2

    def test_unknown_recipe(self, tmp_path):
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 8\n\n[physics]\nnu = 1.0\n\n[boundary]\n1 = wiggle\n",
        )
        assert main(["run", "--config", path]) == 2

    def test_non_finite_recipe_number(self, tmp_path, capsys):
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 4\n\n[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n4 = noslip\n3 = velocity nan 0\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert "non-finite number in boundary recipe" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_recipe_data_is_config_error(self, tmp_path, capsys):
        # finite numbers whose samples overflow: the dof map rejects them
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 4\n\n[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n3 = noslip\n4 = parabolic 1e308 0 1e308\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "tags (4,)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run.vtk").exists()

    def test_viscosity_required(self, tmp_path):
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 8\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n3 = noslip\n4 = noslip\n",
        )
        assert main(["run", "--config", path]) == 2

    def test_uncovered_boundary_tag(self, tmp_path):
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 8\n\n[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n",
        )
        assert main(["run", "--config", path]) == 2
