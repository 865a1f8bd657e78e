"""Acceptance gate: nine numbered criteria, one printed verdict line each.

The heavy fixtures (three full sweeps over D in {5, 50, 500, 5000} with
3 x 3 seeds, plus one relaxation trajectory at D = 5000) are session
scoped; everything else derives from them.  Criterion lines print
through the capture so the verdicts are visible in a normal pytest run.
"""

from __future__ import annotations

import numpy as np
import pytest

import dechist.experiments as experiments
from dechist.experiments import (
    FIT_METRICS,
    InitFamily,
    SweepSpec,
    fit_points,
    run_sweep,
)
from dechist import histories
from dechist.histories import (
    HistoryGrid,
    compute_df,
    marginalize,
)
from dechist.metrics import delta_max, epsilon_average, macro_dynamics
from dechist.model import (
    BlockHamiltonian,
    ModelConfig,
    Regime,
    build_coarsening,
    build_hamiltonian,
    derive_coupling,
)
from dechist.spectral import eigendecompose, evolve_batch, sample_haar_state

from oracles import df_by_chains, leaves, range_projectors

D_GRID = (5, 50, 500, 5000)
BASE_SEED = 0
NUM_STEPS = 4  # five-time grids
D_LARGE = 5000


def announce(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {label}] {detail}: {'PASS' if ok else 'FAIL'}")


def spread(values) -> float:
    """Cross-realization relative spread: sample std over mean."""
    arr = np.asarray(values, dtype=float)
    return float(arr.std(ddof=1) / arr.mean())


@pytest.fixture(scope="session")
def weak_sweep():
    spec = SweepSpec(d_grid=D_GRID, base_seed=BASE_SEED, num_steps=NUM_STEPS)
    return spec, run_sweep(spec)


@pytest.fixture(scope="session")
def strong_sweep():
    spec = SweepSpec(
        d_grid=D_GRID, base_seed=BASE_SEED, num_steps=NUM_STEPS,
        regime=Regime.STRONG,
    )
    return spec, run_sweep(spec)


@pytest.fixture(scope="session")
def eigen_sweep():
    spec = SweepSpec(
        d_grid=D_GRID, base_seed=BASE_SEED, num_steps=NUM_STEPS,
        init_family=InitFamily.EIGENSTATE,
    )
    return spec, run_sweep(spec)


@pytest.fixture(scope="session")
def relaxation_run():
    """One D = 5000 model, trajectories for cold and equilibrium starts.

    The model is the weak sweep's (D = 5000, h = 0) matrix, so its
    decomposition comes from the store instead of a second eigensolve.
    """
    spec = SweepSpec(d_grid=(D_LARGE,), base_seed=BASE_SEED)
    config = spec.model_config(D_LARGE, 0)
    coupling = derive_coupling(config)
    sd = experiments._decomposition(config)
    coarsening = build_coarsening(config)
    kwargs = dict(t_max=20.0 * coupling.tau, dt=0.1 * coupling.tau)
    cold = macro_dynamics(
        sd, coarsening,
        sample_haar_state(coarsening, (1.0, 0.0, 0.0), spec.state_seed(0, 0)),
        **kwargs,
    )
    equilibrium = macro_dynamics(
        sd, coarsening,
        sample_haar_state(coarsening, (0.2, 0.6, 0.2), spec.state_seed(0, 1)),
        **kwargs,
    )
    return coupling.tau, cold, equilibrium


def alpha(results, metric, length):
    """Fitted exponent of one metric over the successful realizations."""
    column = FIT_METRICS[metric]
    points = [(r.d, getattr(r.per_length[length], column)) for r in results if not r.failed]
    return fit_points(points, metric, length).alpha


def at_dimension(results, d):
    picked = [r for r in results if r.d == d and not r.failed]
    assert len(picked) == 9, f"expected 9 realizations at D={d}"
    return picked


def test_criterion_1_weak_epsilon_scaling(weak_sweep, capsys):
    _, results = weak_sweep
    alphas = {l: alpha(results, "epsilon", l) for l in (2, 3, 4, 5)}
    ok = all(0.35 <= a <= 0.65 for a in alphas.values())
    detail = "weak suppression exponents " + ", ".join(
        f"L{l}={a:.3f}" for l, a in alphas.items()
    ) + " all in [0.35, 0.65]"
    announce(capsys, "1", ok, detail)
    assert ok


def test_criterion_2_weak_delta_scaling(weak_sweep, capsys):
    _, results = weak_sweep
    alphas = {l: alpha(results, "delta", l) for l in (2, 3, 4, 5)}
    ok = all(0.25 <= a <= 0.60 for a in alphas.values())
    detail = "weak worst-case exponents " + ", ".join(
        f"L{l}={a:.3f}" for l, a in alphas.items()
    ) + " all in [0.25, 0.60]"
    announce(capsys, "2", ok, detail)
    assert ok


def test_criterion_3_strong_coupling_contrast(weak_sweep, strong_sweep, capsys):
    _, weak = weak_sweep
    _, strong = strong_sweep
    weak5 = alpha(weak, "epsilon", 5)
    strong5 = alpha(strong, "epsilon", 5)
    strong2 = alpha(strong, "epsilon", 2)
    ok = strong5 <= weak5 - 0.15 and 0.35 <= strong2 <= 0.65
    detail = (
        f"strong L5 exponent {strong5:.3f} vs weak {weak5:.3f} "
        f"(gap >= 0.15), strong L2 {strong2:.3f} in [0.35, 0.65]"
    )
    announce(capsys, "3", ok, detail)
    assert ok


def test_criterion_4_eigenstate_initial_states(weak_sweep, eigen_sweep, capsys):
    _, weak = weak_sweep
    _, eigen = eigen_sweep
    weak_spread = spread(
        [r.per_length[5].epsilon_avg for r in at_dimension(weak, D_LARGE)]
    )
    eigen_spread = spread(
        [r.per_length[5].epsilon_avg for r in at_dimension(eigen, D_LARGE)]
    )
    exponent = alpha(eigen, "epsilon", 5)
    ok = eigen_spread > weak_spread and exponent > 0.0
    detail = (
        f"eigenstate spread {eigen_spread:.3f} > equilibrium spread "
        f"{weak_spread:.3f} at D={D_LARGE}, exponent {exponent:.3f} > 0"
    )
    announce(capsys, "4", ok, detail)
    assert ok


def test_criterion_5_relaxation_dynamics(relaxation_run, capsys):
    tau, cold, equilibrium = relaxation_run
    window = cold[cold[:, 0] >= 7.0 * tau]
    avg = window[:, 1:].mean(axis=0)
    target = np.array([0.2, 0.6, 0.2])
    dev = float(np.abs(avg - target).max())
    ok = dev <= 0.05
    detail = (
        f"cold start settles to ({avg[0]:.3f}, {avg[1]:.3f}, {avg[2]:.3f}), "
        f"max deviation {dev:.3f} <= 0.05 over the late window"
    )
    announce(capsys, "5", ok, detail)
    assert ok
    # An equilibrium start should never leave the band at this size.
    eq_dev = float(np.abs(equilibrium[:, 1:] - target).max())
    assert eq_dev <= 0.05


def test_criterion_6_arrow_symmetry(weak_sweep, capsys):
    _, results = weak_sweep
    picked = at_dimension(results, D_LARGE)
    gaps = {}
    for l in (3, 4, 5):
        forward = np.mean([r.per_length[l].p_forward for r in picked])
        backward = np.mean([r.per_length[l].p_backward for r in picked])
        gaps[l] = abs(forward - backward)
    ok = all(gap <= 0.02 for gap in gaps.values())
    detail = "direction-count imbalance " + ", ".join(
        f"L{l}={gap:.4f}" for l, gap in gaps.items()
    ) + " all <= 0.02"
    announce(capsys, "6", ok, detail)
    assert ok


def test_criterion_7_most_probable_history(weak_sweep, capsys):
    _, results = weak_sweep
    picked = at_dimension(results, D_LARGE)
    keys = list(picked[0].per_length[3].histogram)
    averaged = {
        k: float(np.mean([r.per_length[3].histogram[k] for r in picked]))
        for k in keys
    }
    top = max(averaged, key=averaged.get)
    prob = averaged[top]
    ok = top == "0,0,0" and abs(prob - 0.216) > 0.01
    detail = (
        f"most probable three-step history {top!r} with mean weight {prob:.4f}, "
        f"|weight - 0.216| = {abs(prob - 0.216):.4f} > 0.01"
    )
    announce(capsys, "7", ok, detail)
    assert ok


def test_criterion_8_distance_trend(weak_sweep, capsys):
    _, results = weak_sweep
    picked = at_dimension(results, D_LARGE)
    mean_d1 = float(np.mean([r.distance_bins[1][0] for r in picked]))
    mean_d4 = float(np.mean([r.distance_bins[4][0] for r in picked]))
    ok = mean_d4 > mean_d1
    detail = (
        f"mean pairwise overlap at label distance 4 ({mean_d4:.4f}) exceeds "
        f"distance 1 ({mean_d1:.4f})"
    )
    announce(capsys, "8", ok, detail)
    assert ok


# Criterion 9 is a property suite; each part prints its own verdict line.


def haar_realization(v_minus, h_seed, state_seed, num_steps=NUM_STEPS):
    config = ModelConfig(v_minus=v_minus, hamiltonian_seed=h_seed)
    coupling = derive_coupling(config)
    sd = eigendecompose(build_hamiltonian(config))
    coarsening = build_coarsening(config)
    d = config.dimension
    psi0 = sample_haar_state(
        coarsening, tuple(v / d for v in config.volumes), state_seed
    )
    grid = HistoryGrid.constant(num_steps, coupling.tau)
    return sd, coarsening, psi0, grid


def test_criterion_9_functional_invariants(capsys):
    worst_herm = worst_trace = worst_cs = worst_sum = 0.0
    for v_minus in (10, 100):  # D = 50 and D = 500
        sd, coarsening, psi0, grid = haar_realization(v_minus, 17, 23)
        final = histories._branch_tree(sd, coarsening, psi0[None], grid)[1][:, 0]
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        entries = df.entries
        worst_herm = max(worst_herm, float(np.abs(entries - entries.conj().T).max()))
        worst_trace = max(worst_trace, abs(float(np.trace(entries).real) - 1.0))
        diag = df.diagonal()
        bound = np.sqrt(np.outer(diag, diag))
        worst_cs = max(worst_cs, float((np.abs(entries) - bound).max()))
        total = leaves(final, coarsening.ranges).sum(axis=0)
        expected = psi0
        for k in range(1, grid.length):
            dt = grid.times[k] - grid.times[k - 1]
            expected = evolve_batch(sd, expected[None], dt)[0]
        worst_sum = max(worst_sum, float(np.abs(total - expected).max()))
    ok = (
        worst_herm <= 1e-12
        and worst_trace <= 1e-10
        and worst_cs <= 1e-12
        and worst_sum <= 1e-9
    )
    detail = (
        f"functional invariants at D=50, 500: hermiticity {worst_herm:.1e}, "
        f"trace {worst_trace:.1e}, pair bound {worst_cs:.1e}, "
        f"branch sum {worst_sum:.1e}"
    )
    announce(capsys, "9", ok, detail)
    assert ok


def test_criterion_9_containment(capsys):
    worst = 0.0
    for v_minus in (10, 100):
        sd, coarsening, psi0, grid = haar_realization(v_minus, 29, 31)
        df = compute_df(sd, coarsening, psi0[None], grid)[0]
        for keep in (2, 3, 4):
            reduced = marginalize(df, range(keep))
            short = compute_df(
                sd, coarsening, psi0[None], HistoryGrid.from_times(grid.times[:keep])
            )[0]
            worst = max(worst, float(np.abs(reduced.entries - short.entries).max()))
    ok = worst <= 1e-10
    announce(
        capsys, "9", ok,
        f"trailing marginalization equals direct shorter grids, worst {worst:.1e}",
    )
    assert ok


def test_criterion_9_commuting_coarsening(capsys):
    # Uncoupled bands commute exactly with the band projectors, so both
    # measures must vanish identically.
    config = ModelConfig(v_minus=2)
    diag = np.zeros(10)
    diag[:2] = [0.0, 2.0]
    diag[2:8] = np.linspace(0.0, 2.0, 6)
    diag[8:] = [0.0, 2.0]
    ham = BlockHamiltonian(diag, np.zeros((2, 6)), np.zeros((6, 2)), config.block_layout)
    sd = eigendecompose(ham)
    coarsening = build_coarsening(config)
    psi0 = sample_haar_state(coarsening, (0.2, 0.6, 0.2), 37)
    df = compute_df(sd, coarsening, psi0[None], HistoryGrid.constant(4, 1.0))[0]
    eps = epsilon_average(df).epsilon_avg
    dmax = delta_max(df).delta_max
    ok = eps <= 1e-12 and dmax <= 1e-12
    announce(
        capsys, "9", ok,
        f"conserved coarse-graining gives epsilon {eps:.1e}, delta {dmax:.1e}",
    )
    assert ok


def test_criterion_9_operator_chain_oracle(capsys):
    worst = 0.0
    for v_minus in (1, 2):  # D = 5 and D = 10
        for seed in range(20):
            config = ModelConfig(v_minus=v_minus, hamiltonian_seed=seed)
            coupling = derive_coupling(config)
            ham = build_hamiltonian(config)
            sd = eigendecompose(ham)
            coarsening = build_coarsening(config)
            d = config.dimension
            psi0 = sample_haar_state(
                coarsening, tuple(v / d for v in config.volumes), 1000 + seed
            )
            grid = HistoryGrid.constant(2, coupling.tau)
            df = compute_df(sd, coarsening, psi0[None], grid)[0]
            oracle = df_by_chains(
                ham.matrix, range_projectors(coarsening.ranges), grid.times, psi0
            )
            worst = max(worst, float(np.abs(df.entries - oracle).max()))
    ok = worst <= 1e-10
    announce(
        capsys, "9", ok,
        f"matches explicit operator chains at D=5, 10 over 20 seeds, worst {worst:.1e}",
    )
    assert ok


def test_criterion_9_synthetic_fit_recovery(capsys):
    power = [(100, 0.1), (10**4, 0.01), (10**6, 0.001)]
    flat = [(d, 0.25) for d in (5, 50, 500)]
    err_power = abs(fit_points(power, "epsilon", 3).alpha - 0.5)
    err_flat = abs(fit_points(flat, "epsilon", 3).alpha)
    ok = err_power <= 1e-12 and err_flat <= 1e-12
    announce(
        capsys, "9", ok,
        f"synthetic power-law exponents recovered to {max(err_power, err_flat):.1e}",
    )
    assert ok


def test_criterion_9_determinism_and_scheduling(capsys, monkeypatch):
    # An empty decomposition store that stores nothing, so every run
    # decomposes afresh: serially, and inside the forked workers of the
    # workers=2 run.
    monkeypatch.setattr(experiments, "_store", {})
    monkeypatch.setattr(experiments, "_STORE_BUDGET_BYTES", 0)
    spec = SweepSpec(
        d_grid=(5, 50), num_hamiltonian_seeds=2, num_state_seeds=2,
        base_seed=BASE_SEED,
    )

    serial_a = run_sweep(spec, workers=1)
    serial_b = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    ok = serial_a == serial_b == parallel
    announce(
        capsys, "9", ok,
        "sweep outputs identical across reruns and worker counts",
    )
    assert ok


def test_typicality_spot_check(weak_sweep):
    """Realizations at one size agree closely once the space is large."""
    _, results = weak_sweep
    for d in (500, 5000):
        values = [r.per_length[5].epsilon_avg for r in at_dimension(results, d)]
        assert spread(values) < 0.5
