"""End-to-end acceptance gate.

One test per acceptance criterion, each asserting the pinned tolerance
and its wall-clock budget.  The nu = 1 vortex convergence study is shared
by the robustness and stability criteria through module fixtures.
"""

import logging
import time

import numpy as np
import pytest
import scipy.sparse.linalg

import egns.assembly
from egns.assembly import (
    _sparse,
    _viscous_unit,
    assemble_convection_newton,
    dirichlet_dof_map,
)
from egns.cli import main
from egns.eg_space import (
    element_divergence,
    element_ops,
    energy_norm,
    interpolate,
    vertex_values,
)
from egns.mesh import (
    TAG_BOTTOM,
    TAG_LEFT,
    TAG_RIGHT,
    TAG_TOP,
    build_rect_uniform,
    build_step_domain,
)
from egns.quadrature import quadrature_rule
from egns.reconstruction import reconstruct
from egns.solver import newton_solve, nu_continuation
from egns.verification import (
    STEP_RECIRCULATION_BOX,
    case_cavity,
    case_noflow,
    case_step,
    case_vortex_2d,
    convergence_table,
    error_norms,
    recirculation_detect,
    velocity_l2_difference,
    velocity_l2_norm,
)

pytestmark = pytest.mark.slow

LEVELS = (16, 32, 64, 128)

# Reference error magnitudes for the vortex benchmark on these meshes.
# Computed errors must land within a factor of two of each entry: the
# loose magnitude band absorbs triangulation-orientation and quadrature
# differences, while the order thresholds below stay tight.
REF_ERRORS_NU1 = np.array(
    [
        [1.440e-3, 8.004e-2, 3.402e-1],
        [3.640e-4, 4.026e-2, 1.702e-1],
        [9.134e-5, 2.017e-2, 8.509e-2],
        [2.287e-5, 1.009e-2, 4.254e-2],
    ]
)

ALL_SIDES = (TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT)


def rt_divergence_all(mesh, u):
    """Oracle: divergence of the reconstruction per element, (NT,)."""
    coeff = u[2 * mesh.num_vertices + mesh.triangle_edges]
    L = mesh.edge_lengths[mesh.triangle_edges]
    return (L * mesh.triangle_edge_sign * coeff).sum(axis=1) / mesh.areas


def _force_l2_norm(mesh, f):
    rule = quadrature_rule(8)
    X = rule.physical_points(mesh)
    fv = np.asarray(f(X.reshape(-1, 2))).reshape(X.shape)
    return float(
        np.sqrt((mesh.areas * np.einsum("q,tqd->t", rule.weights, fv**2)).sum())
    )


@pytest.fixture(scope="module")
def vortex_nu1():
    """Vortex benchmark at nu = 1 on the four study meshes."""
    case = case_vortex_2d(1.0)
    t0 = time.perf_counter()
    runs = []
    errors = []
    for n in LEVELS:
        mesh = build_rect_uniform(n, n)
        sol, _ = newton_solve(case.problem(mesh))
        errors.append(
            error_norms(mesh, sol, case.velocity, case.pressure,
                        case.velocity_gradient)
        )
        runs.append((mesh, sol))
    wall = time.perf_counter() - t0
    return {"runs": runs, "errors": np.array(errors), "wall": wall}


@pytest.fixture(scope="module")
def vortex_nu1e5(vortex_nu1):
    """Same study at nu = 1e-5, solved through viscosity continuation."""
    case = case_vortex_2d(1e-5)
    t0 = time.perf_counter()
    errors = []
    for mesh, _ in vortex_nu1["runs"]:
        sol, _ = nu_continuation(case.problem(mesh))
        errors.append(
            error_norms(mesh, sol, case.velocity, case.pressure,
                        case.velocity_gradient)
        )
    wall = time.perf_counter() - t0
    return {"errors": np.array(errors), "wall": wall}


def test_vortex_convergence_orders_nu1(vortex_nu1):
    errors = vortex_nu1["errors"]
    h = 1.0 / np.array(LEVELS, dtype=float)
    table = convergence_table(h, errors)
    finest = table.orders[-1]
    assert finest[0] >= 1.90, f"velocity L2 order {finest[0]:.3f} below 1.90"
    assert finest[1] >= 0.95, f"velocity H1 order {finest[1]:.3f} below 0.95"
    assert finest[2] >= 0.95, f"pressure L2 order {finest[2]:.3f} below 0.95"

    ratio = errors / REF_ERRORS_NU1
    assert ratio.max() <= 2.0, f"error magnitudes above band:\n{ratio}"
    assert ratio.min() >= 0.5, f"error magnitudes below band:\n{ratio}"
    assert vortex_nu1["wall"] <= 300.0, f"study took {vortex_nu1['wall']:.0f}s"


def test_vortex_pressure_robustness_nu1e5(vortex_nu1, vortex_nu1e5):
    ratio = vortex_nu1e5["errors"] / vortex_nu1["errors"]
    assert ratio.max() <= 1.3, (
        f"small-viscosity errors degrade beyond 1.3x:\n{ratio}"
    )
    assert vortex_nu1e5["wall"] <= 900.0, f"study took {vortex_nu1e5['wall']:.0f}s"


def test_classical_twin_is_not_pressure_robust(monkeypatch, classical_load):
    """The paper's contrast: from nu = 1 to 1e-2 the L2 velocity error of
    a classical twin, its load tested against the P1 hats, grows like
    1/nu; egns's, with the load tested against the RT0 reconstruction,
    does not.  Same mesh, solver and continuation."""
    mesh = build_rect_uniform(16, 16)

    def l2_errors():
        errors = []
        for nu in (1.0, 1e-2):
            case = case_vortex_2d(nu)
            sol, _ = nu_continuation(case.problem(mesh))
            errors.append(error_norms(mesh, sol, case.velocity, case.pressure,
                                      case.velocity_gradient)[0])
        return errors

    egns_errors = l2_errors()
    monkeypatch.setattr(egns.assembly, "assemble_load", classical_load)
    twin_errors = l2_errors()
    assert max(egns_errors) <= 1.1 * min(egns_errors), egns_errors
    assert twin_errors[1] >= 50.0 * twin_errors[0], twin_errors


def test_noflow_velocity_machine_zero():
    t0 = time.perf_counter()
    mesh = build_rect_uniform(32, 32)
    (u, _), _ = newton_solve(case_noflow(1000.0).problem(mesh, nu=1.0))
    wall = time.perf_counter() - t0
    assert np.abs(vertex_values(mesh, u)).max() <= 1e-6
    assert wall <= 60.0, f"no-flow run took {wall:.0f}s"


def test_gradient_forcing_leaves_velocity_invariant():
    t0 = time.perf_counter()
    mesh = build_rect_uniform(32, 32)
    (base, _), _ = newton_solve(case_cavity("f1").problem(mesh))
    (forced, _), _ = newton_solve(case_cavity("f2").problem(mesh))
    wall = time.perf_counter() - t0
    rel = velocity_l2_difference(mesh, base, forced) / velocity_l2_norm(mesh, base)
    assert rel <= 1e-6, f"gradient forcing moved the velocity by {rel:.3e}"
    assert wall <= 120.0, f"invariance run took {wall:.0f}s"


def test_discrete_structure_property_suite(vortex_nu1):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    mesh = build_rect_uniform(4, 4)
    zero = lambda xy: np.zeros_like(xy)
    dm = dirichlet_dof_map(mesh, [(ALL_SIDES, zero)])
    free = dm.free_indices()
    nv, ne = mesh.num_vertices, mesh.num_edges

    def random_dofs():  # vertex values drawn as (nv, 2) rows, then the edges
        vertex = rng.standard_normal((nv, 2))
        return np.concatenate([vertex[:, 0], vertex[:, 1], rng.standard_normal(ne)])

    # diffusion form value equals viscosity times the squared energy norm
    nu = 0.37
    A = nu * _viscous_unit(mesh)
    for _ in range(100):
        x = np.zeros(2 * nv + ne)
        x[free] = rng.standard_normal(free.size)
        quad = float(x @ (A @ x))
        en = energy_norm(mesh, x)
        assert abs(quad - nu * en**2) <= 1e-12 * quad, "diffusion/energy mismatch"

    # convection form vanishes when the last two arguments coincide
    l2g = element_ops(mesh)["l2g"]
    for _ in range(100):
        # the element blocks on the edge rows, summed into one matrix
        C = _sparse(l2g[:, 6:], l2g, assemble_convection_newton(mesh, random_dofs()),
                    (2 * nv + ne,) * 2)
        w = np.zeros(2 * nv + ne)
        w[2 * nv :] = rng.standard_normal(ne)
        cw = C @ w
        scale = np.linalg.norm(cw) * np.linalg.norm(w) + 1e-300
        assert abs(float(w @ cw)) <= 1e-13 * scale, "convection form not skew"

    # reconstructed divergence equals the broken divergence, bitwise
    for _ in range(100):
        u = random_dofs()
        assert np.array_equal(
            rt_divergence_all(mesh, u),
            element_divergence(mesh, u),
        ), "reconstruction changed the elementwise divergence"

    # reconstructed normal flux at edge midpoints matches the edge dofs
    # as seen from every incident element
    u = random_dofs()
    midpts = mesh.vertices[mesh.edges[mesh.triangle_edges]].mean(axis=2)
    vals = reconstruct(mesh, u, midpts)
    flux = np.einsum("tkd,tkd->tk", vals, mesh.edge_normal[mesh.triangle_edges])
    want = u[2 * nv + mesh.triangle_edges]
    scale = max(1.0, np.abs(want).max())
    assert np.abs(flux - want).max() <= 1e-12 * scale, "midpoint flux mismatch"

    # interpolation commutes with the divergence in the mean, cubic data
    def cubic(xy):
        x, y = xy[..., 0], xy[..., 1]
        return np.stack(
            [x**3 + 2 * x**2 * y - x * y**2 + 3 * y,
             x**2 * y - 3 * x * y**2 + y**3 - 2 * x],
            axis=-1,
        )

    def cubic_div(x, y):
        return 4 * x**2 - 2 * x * y + 2 * y**2

    rule = quadrature_rule(5)  # the divergence is quadratic
    X = rule.physical_points(mesh)
    mean_div = np.einsum("q,tq->t", rule.weights, cubic_div(X[..., 0], X[..., 1]))
    got = element_divergence(mesh, interpolate(mesh, cubic))
    dscale = max(1.0, np.abs(mean_div).max())
    assert np.abs(got - mean_div).max() <= 1e-12 * dscale, (
        "interpolant divergence is not the mean divergence"
    )

    # stiffness restricted to the free dofs is positive definite
    small = build_rect_uniform(2, 2)
    dm2 = dirichlet_dof_map(small, [(ALL_SIDES, zero)])
    f2 = dm2.free_indices()
    Af = _viscous_unit(small)[f2][:, f2].toarray()
    eigs = np.linalg.eigvalsh(0.5 * (Af + Af.T))
    assert eigs.min() > 0, f"free stiffness block not PD, min eig {eigs.min():.3e}"

    # discrete energy stability of the converged vortex solutions at nu = 1
    case = case_vortex_2d(1.0)
    force = lambda xy: case.body_force(xy) + case.nu * case.force_per_nu(xy)
    for mesh_l, (u_l, _) in vortex_nu1["runs"]:
        bound = 1.01 * _force_l2_norm(mesh_l, force) / 1.0
        assert energy_norm(mesh_l, u_l) <= bound, "energy stability violated"

    wall = time.perf_counter() - t0
    assert wall <= 60.0, f"property suite took {wall:.0f}s"


def test_step_recirculation_smoke():
    t0 = time.perf_counter()
    mesh = build_step_domain(0.25)
    case = case_step(re=100.0, inlet="parabolic")
    (u, _), report = newton_solve(case.problem(mesh))
    wall = time.perf_counter() - t0
    assert report.iterations <= 1000
    hit, min_ux, _ = recirculation_detect(mesh, u, STEP_RECIRCULATION_BOX)
    assert hit, f"no recirculation detected (min u_x = {min_ux:.3e})"
    assert wall <= 180.0, f"step run took {wall:.0f}s"


def test_lid_cavity_re2000_continuation_from_rest(tmp_path, caplog, monkeypatch):
    """egns run reaches Re = 2000 on n = 64 from rest, with no schedule
    given, in at most 20 factorizations (16 from rest at nu = 1e-2)."""
    factored, splu = [], scipy.sparse.linalg.splu

    def counted(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    cfg = tmp_path / "re2000.ini"
    cfg.write_text(
        "[mesh]\ngenerator = unit_square\nresolution = 64\n\n"
        "[physics]\nreynolds = 2000\n\n"
        "[boundary]\n1 = noslip\n2 = noslip\n3 = velocity 1 0\n4 = noslip\n"
    )
    t0 = time.perf_counter()
    with caplog.at_level(logging.INFO):
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    wall = time.perf_counter() - t0
    assert rc == 0
    stages = [r.message for r in caplog.records if "continuation stage" in r.message]
    assert "nu=0.0005 accepted" in stages[-1]
    assert len(factored) <= 20, f"{len(factored)} factorizations"
    assert (tmp_path / "run.vtk").is_file()
    assert wall <= 300.0, f"Re = 2000 cavity took {wall:.0f}s"


def test_excluded_large_benchmarks():
    pytest.skip(
        "excluded by design: high-Reynolds lid cavity (Re = 22000 on h = 1/250), "
        "cylinder contour figures, and all 3D cases exceed desk-scale runtime"
    )
