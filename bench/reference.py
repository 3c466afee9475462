"""Pinned values the benchmark checks its outputs against.

The acceptance band, the order thresholds and the robustness factor are
those of the slow acceptance gate in ``tests/test_acceptance.py``.  The
pinned errors are what commit b7bad69 (the code this benchmark was
written against) writes to ``convergence.csv`` for the benchmark's own
configs (seven significant digits, as written); each error divided by
its pinned value gives ``err_ratio``, which is exactly 1.0 there.
"""

# velocity L2, velocity H1, pressure L2 at nu = 1, per mesh level; a
# computed error must lie within [BAND_LOW, BAND_HIGH] times its entry
REF_ERRORS_NU1 = {
    16: (1.440e-3, 8.004e-2, 3.402e-1),
    32: (3.640e-4, 4.026e-2, 1.702e-1),
    64: (9.134e-5, 2.017e-2, 8.509e-2),
    128: (2.287e-5, 1.009e-2, 4.254e-2),
}
# the gate has no n = 96 row: scale the n = 64 row by the expected orders
# 2, 1, 1 over the mesh ratio 64/96
REF_ERRORS_NU1[96] = tuple(
    e * (64 / 96) ** p for e, p in zip(REF_ERRORS_NU1[64], (2, 1, 1))
)
BAND_LOW, BAND_HIGH = 0.5, 2.0

# observed orders between the two finest levels
MIN_ORDERS = (1.90, 0.95, 0.95)

# nu = 1e-5 errors may exceed the nu = 1 errors on the same mesh by this
ROBUSTNESS_MAX = 1.3

# cavity: relative velocity change caused by the gradient forcing
CAVITY_INVARIANCE_MAX = 1e-6

PINNED_ERRORS = {
    "vortex-refine": {
        16: (1.046228e-03, 4.973979e-02, 2.405748e-01),
        32: (2.641986e-04, 2.491783e-02, 1.203249e-01),
        64: (6.627393e-05, 1.245888e-02, 6.016624e-02),
        96: (2.948190e-05, 8.304662e-03, 4.011111e-02),
    },
    "vortex-continuation": {
        64: (7.622649e-05, 1.253663e-02, 6.013882e-02),
    },
}
PINNED_NU1 = PINNED_ERRORS["vortex-refine"]

# the step has no exact solution: its err_ratio is 1 plus the relative
# drift of the printed minimum streamwise velocity behind the step
PINNED_STEP_MIN_UX = -1.591553e-01

# counts that a traced run must reproduce exactly
EXPECTED_COUNTS = {
    "vortex-continuation": {
        "solver.factorizations": 10,
        "solver.saddle_dim": 28289,
        "solver.saddle_nnz": 407556,
        "solver.stages": 8,
        "solver.newton_iters": 10,
    },
    "vortex-refine": {"solver.factorizations": 8},
    "step": {"solver.newton_iters": 15, "solver.saddle_dim": 19136},
}
