"""Command line interface: config parsing, VTK export, subcommand contracts."""

import gc
import importlib
import logging
import os
import re
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import egns.assembly
import egns.cli
import egns.solver
from egns.cli import ConfigError, RunConfig, load_config, main, worker_count, write_vtk
from egns.eg_space import element_divergence, element_ops, interpolate, vertex_values
from egns.mesh import build_rect_uniform, export_mesh
from egns.reconstruction import rt_at_centroids
from egns.verification import kinematic_pressure


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

    def test_reynolds_whose_reciprocal_overflows(self, tmp_path, capsys):
        # 1e-320 is positive, but nu = 1 / 1e-320 is infinite
        path = _cfg(tmp_path, "[mesh]\nh = 1.0\n\n[physics]\nreynolds = 1e-320\n")
        assert main(["step", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [physics] reynolds 1e-320 is too small")
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    def test_rel_tol_below_machine_epsilon(self, tmp_path, capsys):
        # a relative update below eps cannot be reached: the solve would
        # end in a failed line search at a residual of roundoff size
        path = _cfg(tmp_path, "[mesh]\nresolution = 2\n\n[newton]\nrel_tol = 1e-300\n")
        assert main(["cavity", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: [newton] rel_tol must be at least machine epsilon 2.22e-16")
        eps = float(np.finfo(float).eps)
        assert load_config(_cfg(tmp_path, f"[newton]\nrel_tol = {eps!r}\n")).rel_tol == eps

    @pytest.mark.parametrize("command, key, value", [
        pytest.param("step", "h", "1e-300", id="h"),
        pytest.param("step", "h", "5e-324", id="h-inverse-inf"),
        pytest.param("noflow", "resolution", "46341", id="resolution"),  # 46341^2 > 2^31 - 1
        pytest.param("converge", "levels", "4 46341", id="levels"),
    ])
    def test_grid_beyond_int32_indices_named(self, tmp_path, capsys, command, key, value):
        # refused before any grid array is allocated
        path = _cfg(tmp_path, f"[mesh]\n{key} = {value}\n")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [mesh] {key}: ")
        assert "has more than 2^31 - 1 cells" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            pytest.param(command, section, key, value, id=key)
            for command, section, key, value in [
                ("noflow", "physics", "nu", "-1"),
                ("noflow", "physics", "reynolds", "0"),
                ("noflow", "mesh", "resolution", "0"),
                ("converge", "mesh", "levels", "0 4"),
                ("step", "mesh", "h", "-0.5"),
                ("noflow", "physics", "ra", "-1"),
                ("noflow", "newton", "rel_tol", "0"),
                ("noflow", "newton", "max_iter", "0"),
                ("noflow", "physics", "threshold", "-1"),
            ]
        ],
    )
    def test_out_of_range_value_named(self, tmp_path, capsys, command, section, key, value):
        path = _cfg(tmp_path, f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} ")):
            load_config(path, command)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"[{section}] {key} " in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    def test_first_error_in_file_order_named(self, tmp_path):
        # a key's range is checked as it is read, before the keys after it
        path = _cfg(tmp_path, "[mesh]\nresolution = 0\nbogus = 1\n")
        with pytest.raises(ConfigError, match=re.escape("[mesh] resolution must be at least 1")):
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
        # obsolete: every command continues; the key is parsed, then dropped
        for i, raw in enumerate(["yes", "off"]):
            cfg = load_config(_cfg(tmp_path, f"[physics]\ncontinuation = {raw}\n", f"{i}.ini"))
            assert cfg == RunConfig()
            assert not hasattr(cfg, "continuation")
        with pytest.raises(ConfigError, match="continuation"):
            load_config(_cfg(tmp_path, "[physics]\ncontinuation = maybe\n", "c.ini"))


class TestWorkerCount:
    def test_serial_forces_one(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "1")
        assert worker_count(4) == 1

    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "3")
        assert worker_count(8) == 3

    def test_jobs_cap(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "16")
        assert worker_count(2) == 2

    def test_affinity_caps_workers(self, monkeypatch):
        monkeypatch.delenv("EGNS_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert worker_count(8) == 2

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("EGNS_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert worker_count(8) == 3

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "lots")
        assert worker_count(4) >= 1


def _reference_vtk(mesh, fld, pressure):
    """write_vtk's bytes, formatted value by value from numpy scalars."""
    fmt = "{:.15e}".format
    ops = element_ops(mesh)
    loc = fld[ops["l2g"]]
    cell_scalars = [
        ("pressure", pressure),
        ("kinematic_pressure", kinematic_pressure(mesh, fld, pressure)),
        ("divergence", element_divergence(mesh, fld)),
        ("vorticity", np.einsum("tk,tk->t", ops["curl"], loc[:, :6])),
    ]

    def vectors(rows):
        return [f"{fmt(a + 0.0)} {fmt(b + 0.0)} {fmt(0.0)}" for a, b in rows]

    nv, nt = mesh.num_vertices, mesh.num_triangles
    out = ["# vtk DataFile Version 3.0", "incompressible flow solution", "ASCII",
           "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    out += vectors(mesh.vertices)
    out += [f"CELLS {nt} {4 * nt}"] + [f"3 {i} {j} {k}" for i, j, k in mesh.triangles]
    out += [f"CELL_TYPES {nt}"] + ["5"] * nt
    out += [f"POINT_DATA {nv}", "VECTORS velocity double"] + vectors(vertex_values(mesh, fld))
    out.append(f"CELL_DATA {nt}")
    for name, arr in cell_scalars:
        out += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        out += [fmt(v + 0.0) for v in arr]
    out += ["VECTORS reconstructed_velocity double"] + vectors(rt_at_centroids(mesh, fld))
    return "\n".join(out) + "\n"


class TestWriteVtk:
    def test_zero_solution_layout(self, tmp_path):
        mesh = build_rect_uniform(1, 1)
        path = tmp_path / "zero.vtk"
        zero = np.zeros(2 * mesh.num_vertices + mesh.num_edges)
        write_vtk(mesh, (zero, np.zeros(mesh.num_triangles)), path)
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

    def test_bytes_match_per_value_formatter(self, tmp_path):
        mesh = build_rect_uniform(3, 2)
        rng = np.random.default_rng(5)

        def values(shape):
            # signed zeros, and magnitudes from 1e-300 to 1e300
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            v[rng.random(shape) < 0.3] = -0.0
            return v

        vertex = values((mesh.num_vertices, 2))
        fld = np.concatenate([vertex[:, 0], vertex[:, 1], values(mesh.num_edges)])
        vertex_values(mesh, fld)[:, 1] = -0.0
        p = values(mesh.num_triangles)
        path = tmp_path / "signed.vtk"
        with np.errstate(over="ignore", invalid="ignore"):
            write_vtk(mesh, (fld, p), path)
            want = _reference_vtk(mesh, fld, p)
        got = path.read_text()
        assert "-0.000000000000000e+00" not in got
        assert got == want

    def test_byte_identical_rerun(self, tmp_path):
        mesh = build_rect_uniform(3, 2)
        rng = np.random.default_rng(3)
        fld = rng.standard_normal(2 * mesh.num_vertices + mesh.num_edges)
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

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin.ini"
        path.write_bytes(b"[mesh]\n# r\xe9solution\nresolution = 8\xff\n")
        assert main(["noflow", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert list(tmp_path.iterdir()) == [path]

    def test_console_script_resolves(self):
        # the installed `egns` is pyproject.toml's [project.scripts] entry;
        # read by hand, as Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        entries = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', section, re.M)
        assert entries == [("egns", "egns.cli", "main")]
        assert getattr(importlib.import_module(entries[0][1]), entries[0][2]) is main

    def test_help_describes_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one line per command
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("converge", "noflow", "cavity", "step", "run"):
            assert re.search(rf"^ +{name} +\w", out, re.M), out


class TestCommandKeys:
    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("noflow", "mesh", "generator", "import"),
            ("noflow", "mesh", "path", "/nonexistent"),
            ("noflow", "mesh", "levels", "8 16"),
            ("noflow", "physics", "inlet", "constant"),
            ("step", "mesh", "resolution", "8"),
            ("step", "mesh", "levels", "8"),
            ("step", "physics", "ra", "10"),
            ("converge", "mesh", "resolution", "8"),
            ("cavity", "physics", "threshold", "1"),
            ("run", "mesh", "levels", "8"),
        ],
    )
    def test_unread_key_rejected(self, tmp_path, capsys, command, section, key, value):
        path = _cfg(tmp_path, f"[{section}]\n{key} = {value}\n")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} is not read by the {command} command" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize(
        "mesh, message",
        [
            ("generator = step\nresolution = 7\n", "resolution is not read by the step"),
            ("h = 0.01\n", "h is not read by the unit_square"),
            ("generator = unit_square\npath = mesh.msh\n", "path is not read by the unit_square"),
            ("generator = import\npath = mesh.msh\nh = 0.5\n", "h is not read by the import"),
        ],
    )
    def test_key_unread_by_the_generator_rejected(self, tmp_path, capsys, mesh, message):
        path = _cfg(tmp_path, f"[mesh]\n{mesh}\n[boundary]\n1 = noslip\n")
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        assert f"[mesh] {message} generator" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.ini"]

    @pytest.mark.parametrize("command", ["converge", "noflow", "cavity", "step"])
    def test_boundary_section_only_for_run(self, tmp_path, capsys, command):
        path = _cfg(tmp_path, "[boundary]\n1 = noslip\n")
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"[boundary] is not read by the {command} command" in err

    @pytest.mark.parametrize("command", ["converge", "noflow", "cavity", "step", "run"])
    def test_obsolete_continuation_key_read_by_every_command(self, tmp_path, capsys, command):
        path = _cfg(tmp_path, "[physics]\ncontinuation = yes\n")
        assert load_config(path, command) == RunConfig()
        path = _cfg(tmp_path, "[physics]\ncontinuation = maybe\n", "bad.ini")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert "continuation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[experiment]\nname = sweep\n", "unknown config section"),
            ("[physics]\nreynolds_scale = 2\n", "unknown key 'reynolds_scale'"),
            ("[output]\ndirectory = results\n", r"unknown config section \[output\]"),
        ],
    )
    def test_removed_keys_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            load_config(_cfg(tmp_path, text))


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
    def test_two_levels(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EGNS_THREADS", "1")
        path = _cfg(tmp_path, "[mesh]\nlevels = 8 16\n")
        rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert csv[0] == "h,e_l2,order,e_h1,order,e_p,order"
        assert len(csv) == 3
        row = csv[2].split(",")
        assert 1.5 < float(row[2]) < 2.5
        assert 0.6 < float(row[4]) < 1.4
        assert 0.6 < float(row[6]) < 1.4

    def test_single_level_blank_orders(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nlevels = 8\n")
        rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(csv) == 2
        cells = csv[1].split(",")
        assert len(cells) == 7
        assert cells[2] == "" and cells[4] == "" and cells[6] == ""
        table = capsys.readouterr().out.splitlines()
        assert table[1].split()[0::2] == ["0.125000", "-", "-", "-"]

    @pytest.mark.parametrize("levels, blank", [("8 4", False), ("8 8", True)])
    def test_unordered_levels_write_table(self, tmp_path, monkeypatch, levels, blank):
        monkeypatch.setenv("EGNS_THREADS", "1")
        path = _cfg(tmp_path, f"[mesh]\nlevels = {levels}\n")
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(csv) == 3
        orders = csv[2].split(",")[2::2]
        if blank:
            assert orders == ["", "", ""]
        else:
            assert all(0.5 < float(o) < 2.5 for o in orders), orders

    def test_low_viscosity_needs_continuation(self, tmp_path, caplog):
        # plain Newton from rest fails here; no switch is needed to continue
        path = _cfg(tmp_path, "[mesh]\nlevels = 8\n\n[physics]\nnu = 1e-5\n")
        with caplog.at_level(logging.INFO):
            rc = main(["converge", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        stages = [r.message for r in caplog.records if "continuation stage" in r.message]
        start = egns.solver._NU_START
        assert stages[0].startswith(f"continuation stage 0: nu={start:.6g} accepted")
        assert "nu=1e-05 accepted" in stages[-1]
        csv = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(csv) == 2 and csv[1].startswith("0.125,")

    def test_level_line_counts_factorizations(self, tmp_path, monkeypatch, caplog, capsys):
        # stderr tells the factorizations of every stage; stdout stays the table
        factored, splu = [], egns.solver.spla.splu
        monkeypatch.setattr(egns.solver.spla, "splu",
                            lambda *a, **k: factored.append(1) or splu(*a, **k))
        path = _cfg(tmp_path, "[mesh]\nlevels = 8\n\n[physics]\nnu = 1e-5\n")
        with caplog.at_level(logging.INFO):
            assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        messages = [r.getMessage() for r in caplog.records]
        level = [m for m in messages if m.startswith("level n=8:")]
        assert len(level) == 1
        assert re.search(rf"\(\d+ Newton iterations, {len(factored)} factorizations\)$", level[0])
        summary = [m.splitlines()[-1] for m in messages if "wall_time=" in m]
        assert len(summary) == 1 and " factorizations=" in summary[0]
        assert "factorizations" not in capsys.readouterr().out

    def test_failed_level_cancels_queued_levels(self, tmp_path, monkeypatch, capsys):
        started = []

        def fake_mesh(nx, ny):
            started.append(nx)
            if nx == 10:
                raise egns.cli.SolverError("fails at once")
            time.sleep(0.5)
            raise egns.cli.SolverError("slow level")

        monkeypatch.setattr(egns.cli, "build_rect_uniform", fake_mesh)
        # levels start largest first in either listed order, so level 10
        # fails first also when it is listed last. Two workers: level 9
        # runs beside level 10, and the freed worker may take level 8
        # before the failure is seen. One worker may take level 9 before
        # the failure is seen. The other levels never start.
        for levels in (range(1, 11), range(10, 0, -1)):
            path = _cfg(tmp_path, "[mesh]\nlevels = " + " ".join(map(str, levels)) + "\n")
            for threads, most in (("2", 3), ("1", 2)):
                started.clear()
                monkeypatch.setenv("EGNS_THREADS", threads)
                rc = main(["converge", "--config", path, "--out", str(tmp_path)])
                assert rc == 1
                assert "level n=10 failed: fails at once" in capsys.readouterr().err
                assert 1 <= len(started) <= most, (list(levels), threads)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_finished_level_freed_before_heap_release(self, tmp_path, monkeypatch, threads):
        # each worker hands its level's pages back once the level, its LU
        # and operators are freed: at every release the level the calling
        # thread just ran is gone. gc stays off, so a reference cycle that
        # kept a level alive would show here too
        last, released, build = {}, [], egns.cli.build_rect_uniform

        def tracked_mesh(nx, ny):
            mesh = build(nx, ny)
            last[threading.get_ident()] = (nx, weakref.ref(mesh))
            return mesh

        def spied_trim(pad):
            n, ref = last[threading.get_ident()]
            released.append((n, ref() is None))
            return 0

        monkeypatch.setenv("EGNS_THREADS", threads)
        monkeypatch.setattr(egns.cli, "build_rect_uniform", tracked_mesh)
        monkeypatch.setattr(egns.cli, "_malloc_trim", spied_trim)
        path = _cfg(tmp_path, "[mesh]\nlevels = 4 12 8 6\n")
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        finally:
            if enabled:
                gc.enable()
        assert sorted(released) == [(4, True), (6, True), (8, True), (12, True)]

    def test_table_without_heap_release(self, tmp_path, monkeypatch):
        # where the C library has no malloc_trim, converge writes the same table
        path = _cfg(tmp_path, "[mesh]\nlevels = 4 8\n")
        written = []
        for trim in (egns.cli._malloc_trim, None):
            monkeypatch.setattr(egns.cli, "_malloc_trim", trim)
            out = tmp_path / str(trim is None)
            assert main(["converge", "--config", path, "--out", str(out)]) == 0
            written.append((out / "convergence.csv").read_bytes())
        assert written[0] == written[1]

    def test_continuation_assembles_the_load_once(self, tmp_path, monkeypatch,
                                                   fail_first_solve_at):
        # the vortex load is L0 + nu L1: its two parts are assembled once,
        # not once per stage; the failed first trial at the target makes
        # the stages outnumber two
        loads, real = [], egns.assembly.assemble_load
        monkeypatch.setattr(egns.assembly, "assemble_load",
                            lambda *a: loads.append(1) or real(*a))
        calls = fail_first_solve_at(1e-5)
        path = _cfg(tmp_path, "[mesh]\nlevels = 8\n\n[physics]\nnu = 1e-5\n")
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) >= 3
        assert len(loads) == 2

    @pytest.mark.parametrize("nu", ["1e200", "1e300"])
    def test_viscosity_beyond_load_range_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         nu):
        # nu times the viscous load overflows: refused, named, before any factorization
        def splu(*args, **kwargs):
            raise AssertionError("factored a load beyond float64 range")

        monkeypatch.setattr(egns.solver.spla, "splu", splu)
        path = _cfg(tmp_path, f"[mesh]\nlevels = 4 8\n\n[physics]\nnu = {nu}\n")
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [physics] nu: body force is beyond float64 range")
        assert "Traceback" not in err
        assert not (tmp_path / "convergence.csv").exists()

    def test_continuation_through_cli(self, tmp_path):
        # the obsolete switch changes nothing
        physics = "[mesh]\nlevels = 8\n\n[physics]\nnu = 2.5e-4\n"
        written = []
        for i, text in enumerate([physics + "continuation = yes\n", physics]):
            out = tmp_path / str(i)
            path = _cfg(tmp_path, text, f"{i}.ini")
            assert main(["converge", "--config", path, "--out", str(out)]) == 0
            written.append((out / "convergence.csv").read_bytes())
        assert written[0] == written[1]


class TestCavityCommand:
    def test_gradient_forcing_invariance(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nresolution = 8\n")
        rc = main(["cavity", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        m = re.search(r"relative velocity difference = ([0-9.eE+-]+)", out)
        assert m, out
        assert re.fullmatch(r"\d\.\d{3}e[+-]\d{2}", m.group(1)), out  # 4 digits
        assert float(m.group(1)) < 1e-6
        for name in ("cavity_f1.vtk", "cavity_f2.vtk", "cavity_diff.vtk"):
            assert (tmp_path / name).is_file()

    def test_continuation_matches_lid_run(self, tmp_path):
        # from rest, Newton fails at Re = 4000 on n = 8; continuation reaches it
        physics = (
            "[mesh]\nresolution = 8\n\n[physics]\nreynolds = 4000\n\n"
            "[newton]\nrel_tol = 1e-7\nmax_iter = 200\n"
        )
        cav = _cfg(tmp_path, physics, "cav.ini")
        assert main(["cavity", "--config", cav, "--out", str(tmp_path)]) == 0
        # the README lid recipe with the same physics
        run = _cfg(
            tmp_path,
            physics.replace(
                "[mesh]\n", "[mesh]\ngenerator = unit_square\n"
            ) + "\n[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n4 = noslip\n",
        )
        assert main(["run", "--config", run, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "run.vtk").read_bytes() == (tmp_path / "cavity_f1.vtk").read_bytes()

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

    def test_overflowing_forcing_scale_is_config_error(self, tmp_path, capsys):
        # finite in the config, infinite in the load: named before any solve
        path = _cfg(
            tmp_path, "[mesh]\nresolution = 4\n\n[physics]\nforcing_scale = 1e308\n"
        )
        assert main(["cavity", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: forcing_scale: body force is not finite")
        assert not list(tmp_path.glob("*.vtk"))


class TestDataBeyondRange:
    """Data beyond float64 range, whose norms in the solver would overflow,
    is a config error naming its key or tag, refused before the first
    factorization; no overflow warning escapes (warnings are errors here)."""

    @pytest.mark.parametrize("command, text, cause", [
        ("noflow", "[physics]\nra = 1e300\n", "ra: body force"),
        ("cavity", "[physics]\nforcing_scale = 1e150\n", "forcing_scale: body force"),
        ("run", "[physics]\nnu = 1\n\n[boundary]\n1 = noslip\n2 = noslip\n"
         "3 = velocity 1e200 0\n4 = noslip\n", "boundary recipes: Dirichlet data on tags (3,)"),
        ("run", "[physics]\nnu = 1\n\n[boundary]\n1 = noslip\n2 = outflow\n"
         "3 = noslip\n4 = parabolic 1e100 0 1\n",
         "boundary recipes: Dirichlet data on tags (4,)"),
    ], ids=["ra", "forcing_scale", "velocity", "parabolic"])
    def test_refused_before_factoring(self, tmp_path, capsys, monkeypatch, command, text,
                                      cause):
        def splu(*args, **kwargs):
            raise AssertionError("factored data beyond float64 range")

        monkeypatch.setattr(egns.solver.spla, "splu", splu)
        path = _cfg(tmp_path, "[mesh]\nresolution = 4\n\n" + text)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cause} is beyond float64 range")
        assert not list(tmp_path.glob("*.vtk"))


class TestStepCommand:
    @pytest.mark.parametrize("physics, nu", [("reynolds = 400", 1 / 400), ("nu = 0.5", 0.5),
                                             ("", 0.01)])
    def test_viscosity_reaches_the_problem(self, tmp_path, monkeypatch, physics, nu):
        # the parabolic inlet has unit mean speed, so Re = 1/nu; the default is Re = 100
        seen = []

        def record(problem, config):
            seen.append(problem.nu)
            raise egns.solver.SolverError("recorded")

        monkeypatch.setattr(egns.cli, "nu_continuation", record)
        path = _cfg(tmp_path, f"[mesh]\nh = 1.0\n\n[physics]\n{physics}\n")
        assert main(["step", "--config", path, "--out", str(tmp_path)]) == 1
        assert seen == [nu]

    def test_recirculation_behind_step(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[mesh]\nh = 0.5\n\n[physics]\nreynolds = 100\n")
        rc = main(["step", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recirculation: True" in out
        assert "reattachment" in out
        assert (tmp_path / "step.vtk").is_file()

    def test_bad_inlet_profile(self, tmp_path, capsys):
        path = _cfg(tmp_path, "[physics]\ninlet = swirl\n")
        assert main(["step", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == "config error: [physics] inlet: unknown inlet profile 'swirl'\n"


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
            # a unit square with vertex 3 at (nan, 1): the Dirichlet data
            # sampled there is NaN too, which is not the cause
            (
                "4 2 4\n0 0\n1 0\n0 1\nnan 1\n0 1 3\n0 3 2\n"
                "0 1 1\n1 3 1\n2 3 1\n0 2 1\n",
                "vertex 3 has a NaN or infinite coordinate",
            ),
            # triangle 1, on line 7, has area 5e-16: the broken operators
            # could not invert it
            (
                "4 2 4\n0 0\n1 0\n0.5 1\n0.5 -1e-15\n0 1 2\n1 0 3\n"
                "0 2 1\n1 2 1\n1 3 1\n0 3 1\n",
                "line 7: triangle 1 has area 5.000e-16, below 1.250e-14",
            ),
        ],
        ids=["unused-vertex", "two-parts", "nan-vertex", "sliver"],
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
        err = capsys.readouterr().err
        assert err.startswith("mesh error:") and cause in err

    def test_non_utf8_mesh_is_mesh_error(self, tmp_path, capsys):
        mesh_file = tmp_path / "latin.m2d"
        mesh_file.write_bytes(b"# maill\xe9 \xff\n3 1 3\n0 0\n1 0\n0 1\n0 1 2\n")
        path = _cfg(
            tmp_path,
            f"[mesh]\ngenerator = import\npath = {mesh_file}\n\n"
            "[physics]\nnu = 1.0\n\n[boundary]\n1 = noslip\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mesh error:") and str(mesh_file) in err

    def test_one_triangle_mesh(self, tmp_path):
        mesh_file = tmp_path / "one.m2d"
        mesh_file.write_text("3 1 3\n0 0\n1 0\n0 1\n0 1 2\n0 1 1\n1 2 1\n0 2 1\n")
        path = _cfg(
            tmp_path,
            f"[mesh]\ngenerator = import\npath = {mesh_file}\n\n"
            "[physics]\nnu = 1e-4\n\n[boundary]\n1 = noslip\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "run.vtk").is_file()

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
            "[physics]\nreynolds = 4000\n\n"
            "[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n4 = noslip\n",
        )
        with caplog.at_level(logging.INFO):
            assert main(["run", "--config", path, "--out", str(tmp_path)]) == 0
        stages = [r.message for r in caplog.records if "continuation stage" in r.message]
        assert len(stages) >= 2
        assert stages[-1].startswith(f"continuation stage {len(stages) - 1}: nu=0.00025 accepted")
        assert sum("overrid" in r.message for r in caplog.records) == 1
        assert len(calls) == 1

    def test_outflow_only_boundary_is_config_error(self, tmp_path, capsys):
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 4\n\n[physics]\nnu = 1.0\n\n"
            "[boundary]\n1 = outflow\n2 = outflow\n3 = outflow\n4 = outflow\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: boundary recipes: no Dirichlet segment")
        assert not (tmp_path / "run.vtk").exists()

    @pytest.mark.parametrize("spelling", ["03", "+3"])
    def test_tag_given_twice_is_config_error(self, tmp_path, capsys, spelling):
        # the later spelling of tag 3 would silently replace the lid
        path = _cfg(
            tmp_path,
            "[mesh]\nresolution = 4\n\n[physics]\nnu = 1.0\n\n"
            f"[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n4 = noslip\n"
            f"{spelling} = noslip\n",
        )
        assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: [boundary] tag 3 is given twice\n"
        assert "Traceback" not in err
        assert not (tmp_path / "run.vtk").exists()

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
