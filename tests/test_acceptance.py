"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`; each test prints
`ACCEPTANCE <nn> <name>: PASS/FAIL (<measured numbers>)` and asserts.
"""

from dataclasses import fields

import numpy as np
import pytest

from oracles import (
    beampattern_gain_general,
    bs_steering_for,
    comm_snr_general,
    mrt_beamformer,
    sequential_candidates,
)
from sweeps import mean_over_seeds
from ris_isac import (
    LambdaPolicy,
    SdpProblem,
    build_channels,
    build_system,
    child_rng,
    comm_optimal_phase,
    design,
    gaussian_randomization,
    load_default_scenario,
    realize,
    solve_perturbation,
    solve_scenario,
    solve_sdp,
)
from ris_isac.beamforming import beam_gains, metrics_for
from ris_isac.cli import main as cli_main
from ris_isac.sdr import RANDOMIZATION_TRIALS
from ris_isac.experiments import (
    run_complexity_probe,
    sweep_alpha,
    sweep_weight_ratio,
)

SEEDS = list(range(1, 21))


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scenario():
    return load_default_scenario()


@pytest.fixture(scope="module")
def alpha_half_means(scenario):
    """Seed-mean gamma, target gain and applied ridge for the three ridge
    policies at alpha=0.5.

    The ridge is the normalized lambda each policy resolves to, as a fraction
    of the normalized sigma_max of the realization it is applied to.
    """
    cell = scenario.replace(alpha=0.5)
    policies = (LambdaPolicy(0.5), LambdaPolicy(), LambdaPolicy(0.1))
    sweep = sweep_alpha(cell, [0.5], policies, SEEDS)
    channel_sets = [realize(cell.replace(seed=s)).channels for s in SEEDS]
    systems = [build_system(ch.h_ue, ch.a_targets, ch.gain_prefactor) for ch in channel_sets]
    out = {}
    for policy in policies:
        label = str(policy)
        gamma = mean_over_seeds(sweep, "gamma_db", lambda_policy=label)
        gain = np.mean([
            mean_over_seeds(sweep, "gain_t1_db", lambda_policy=label),
            mean_over_seeds(sweep, "gain_t2_db", lambda_policy=label),
        ])
        ridge = np.mean([
            policy.normalized(cell.alpha, system.sigma_max_normalized)
            / system.sigma_max_normalized
            for system in systems
        ])
        out[label] = (gamma, gain, float(ridge))
    return out


def test_criterion_01_mrt_optimality(scenario, beta_g):
    """Random unit-power beamformers never beat matched transmission."""
    ok = True
    worst = 0.0
    g_bs = bs_steering_for(scenario)
    for seed in range(1, 11):
        ch = build_channels(scenario, child_rng(seed, 0))
        v = comm_optimal_phase(ch.h_ue, ch.g_ris)
        w_star = mrt_beamformer(g_bs, scenario.transmit_power_w)
        snr_star = comm_snr_general(
            w_star, beta_g, g_bs, ch.g_ris, ch.h_ue, v, scenario.noise_power_w
        )
        gain_star = [
            beampattern_gain_general(w_star, beta_g, g_bs, ch.g_ris, v, a)
            for a in ch.a_targets
        ]
        rng = child_rng(seed, 99)
        for _ in range(1000):
            w = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            w *= np.sqrt(scenario.transmit_power_w) / np.linalg.norm(w)
            snr = comm_snr_general(
                w, beta_g, g_bs, ch.g_ris, ch.h_ue, v, scenario.noise_power_w
            )
            worst = max(worst, snr - snr_star)
            ok &= snr <= snr_star + 1e-9
            for a, gs in zip(ch.a_targets, gain_star):
                g = beampattern_gain_general(w, beta_g, g_bs, ch.g_ris, v, a)
                ok &= g <= gs + 1e-9
    report(1, "MRT optimality", ok, f"max SNR excess {worst:.3e}")


def test_criterion_02_comm_phase_optimality(scenario, beta_g):
    """Random RIS phase vectors never beat the aligned phases."""
    ch = build_channels(scenario, child_rng(scenario.seed, 0))
    g_bs = bs_steering_for(scenario)
    w_star = mrt_beamformer(g_bs, scenario.transmit_power_w)

    def snr_of(v):
        return comm_snr_general(w_star, beta_g, g_bs, ch.g_ris, ch.h_ue, v, scenario.noise_power_w)

    snr_star = snr_of(comm_optimal_phase(ch.h_ue, ch.g_ris))
    rng = child_rng(scenario.seed, 98)
    worst = 0.0
    ok = True
    for _ in range(1000):
        v = np.exp(1j * rng.uniform(-np.pi, np.pi, 441))
        snr = snr_of(v)
        worst = max(worst, snr - snr_star)
        ok &= snr <= snr_star + 1e-9
    report(2, "aligned-phase optimality", ok, f"max SNR excess {worst:.3e}")


def test_criterion_03_stacking_equivalence():
    """Real stacked LS objective equals the weighted complex objective."""
    rng = child_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 96))
        k = int(rng.integers(1, 5))
        p = float(rng.uniform(0.1, 10.0))
        beta_g = float(rng.uniform(1e-8, 1e-3))
        m = int(rng.integers(1, 32))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a_targets = [np.exp(1j * rng.uniform(-np.pi, np.pi, n)) for _ in range(k)]
        eta_bar = rng.uniform(0.0, n, k)
        sys_ = build_system(h, a_targets, p * beta_g * m)
        dphi = rng.standard_normal(n)
        lhs = np.linalg.norm(sys_.a_stacked @ dphi - sys_.b_stacked(eta_bar)) ** 2
        rhs = sys_.scale**2 * np.sum(np.abs(sys_.eta_linearized_all(dphi) - eta_bar) ** 2)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
        if worst > 1e-8:
            break
    report(3, "stacking equivalence", worst <= 1e-8, f"max rel err {worst:.3e}")


def test_criterion_04_solver_matches_oracle():
    """SVD-filtered ridge solve equals dense normal equations."""
    rng = child_rng(404)
    worst = 0.0
    for _ in range(15):
        n = int(rng.integers(8, 129))
        k = int(rng.integers(1, 9))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a_targets = [np.exp(1j * rng.uniform(-np.pi, np.pi, n)) for _ in range(k)]
        eta_bar = rng.uniform(0, n, k)
        sys_ = build_system(h, a_targets, 1.0 * 1e-6 * 11)
        for frac in (1e-3, 1.0, 10.0):
            lam = frac * sys_.sigma_max_normalized
            got = solve_perturbation(sys_, [eta_bar], [lam]).delta_phi[0]
            a, b = sys_.a_stacked, sys_.b_stacked(eta_bar)
            oracle = np.linalg.solve(a.T @ a + sys_.scale**2 * lam * np.eye(n), a.T @ b)
            rel = np.linalg.norm(got - oracle) / max(np.linalg.norm(oracle), 1e-30)
            worst = max(worst, rel)
    report(4, "solver vs normal-equation oracle", worst <= 1e-8, f"max rel err {worst:.3e}")


def test_criterion_05_taylor_bound(scenario):
    """Linearization error never exceeds ||dphi||^2 / 2 across the alpha grid."""
    worst_margin = -np.inf
    ok = True
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for seed in SEEDS[:5]:
            o = solve_scenario(scenario.replace(alpha=alpha, seed=seed))
            dphi = o.report.delta_phi[0]
            system = o.system
            eta = system.eta_exact_all(o.report.rotation[0])
            gap = np.abs(eta - system.eta_linearized_all(dphi))
            bound = np.sum(dphi**2) / 2.0
            worst_margin = max(worst_margin, float(np.max(gap) - bound))
            ok &= bool(np.all(gap <= bound + 1e-9))
    report(5, "Taylor bound", ok, f"max gap-bound margin {worst_margin:.3e}")


def test_criterion_06_fairness_ratio(scenario):
    """Weight ratio 10 gives a ~20 dB gain split; ratio 1 stays balanced."""
    sweep = sweep_weight_ratio(scenario.replace(alpha=0.5), SEEDS)
    split10 = mean_over_seeds(sweep, "gain_t1_db", ratio=10.0) - mean_over_seeds(
        sweep, "gain_t2_db", ratio=10.0
    )
    split1 = abs(
        mean_over_seeds(sweep, "gain_t1_db", ratio=1.0)
        - mean_over_seeds(sweep, "gain_t2_db", ratio=1.0)
    )
    ok = (17.0 <= split10 <= 23.0) and split1 <= 1.0
    report(6, "fairness gain split", ok, f"ratio10 {split10:.2f} dB, ratio1 {split1:.3f} dB")


def test_criterion_07_target_gain_uplift(scenario):
    """At alpha=1 the perturbed design lifts target-angle gain by >= 15 dB."""
    diffs = []
    for seed in SEEDS:
        cell = scenario.replace(alpha=1.0, seed=seed)
        # compare the same realization with and without the perturbation
        real = realize(cell)
        o = design(real, [(cell.alpha, cell.weights, cell.lambda_policy)])
        comm_only = metrics_for(real.v_comm, real.channels)
        prop = np.mean([g_db for _, g_db in o.metrics.gains[0]])
        comm = np.mean([g_db for _, g_db in comm_only.gains])
        diffs.append(prop - comm)
    uplift = float(np.mean(diffs))
    report(7, "target-gain uplift", uplift >= 15.0, f"mean uplift {uplift:.2f} dB")


def test_criterion_08_tradeoff_orderings(scenario, alpha_half_means):
    """A heavier ridge favours communication; the adaptive trade-off is
    monotone in alpha.

    At alpha=0.5 the three reference policies are ranked by the ridge each
    one applies, as the program reports it (lambda / sigma_max on the
    normalized stack).  The applied ridges must be distinct, and as the ridge
    decreases the seed-mean SNR must not rise and the seed-mean target gain
    must not fall: a heavier ridge keeps delta_phi smaller and the design
    closer to the communication optimum.

    An earlier form of this check ranked the policies by name, requiring the
    adaptive policy to sit between fixed:0.5 and fixed:0.1.  That bracket
    cannot hold: the adaptive schedule lambda = (1 - alpha^2) * sigma_max
    applies 0.75*sigma_max at alpha=0.5, outside [0.1, 0.5]*sigma_max, so
    the adaptive policy is the heaviest of the three there.
    """
    ranked = sorted(alpha_half_means.items(), key=lambda kv: kv[1][2], reverse=True)
    pairs = list(zip(ranked, ranked[1:]))

    distinct = all(heavy[2] > light[2] for (_, heavy), (_, light) in pairs)
    snr_order = all(heavy[0] >= light[0] for (_, heavy), (_, light) in pairs)
    gain_order = all(heavy[1] <= light[1] for (_, heavy), (_, light) in pairs)

    adaptive_gammas = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        vals = [
            solve_scenario(scenario.replace(alpha=alpha, seed=s)).metrics.snr_db[0]
            for s in SEEDS
        ]
        adaptive_gammas.append(float(np.mean(vals)))
    monotone = all(a >= b - 1e-12 for a, b in zip(adaptive_gammas, adaptive_gammas[1:]))

    by_ridge = "; ".join(
        f"{policy} ridge {ridge:.2f}*sigma_max gamma {gamma:.3f} dB gain {gain:.2f} dB"
        for policy, (gamma, gain, ridge) in ranked
    )
    detail = (
        f"heaviest ridge first: {by_ridge}; "
        f"adaptive gamma vs alpha {['%.2f' % g for g in adaptive_gammas]}"
    )
    report(
        8, "trade-off orderings", distinct and snr_order and gain_order and monotone, detail
    )


def test_criterion_09_sdr_dominance(scenario):
    """Relaxed SDP upper-bounds both designs; randomization extracts a feasible v."""
    cell = scenario.replace(ris_rows=4, ris_cols=4, alpha=0.5)
    ch = build_channels(cell, child_rng(cell.seed, 0))
    problem = SdpProblem.from_channels(ch, cell.alpha, cell.weights)
    desired = problem.desired_gains
    sol = solve_sdp(problem, tol=1e-6)
    relaxed = sol.relaxed_objective
    tol_rel = 1e-3 * relaxed

    proposed = solve_scenario(cell)
    prop_gains = np.array([g for g, _ in proposed.metrics.gains[0]])
    prop_feasible = bool(np.all(prop_gains >= 0.95 * desired))
    prop_ok = (not prop_feasible) or proposed.metrics.snr_linear[0] <= relaxed + tol_rel

    # replay the candidate stream and bound every draw
    candidates = sequential_candidates(sol.factor, child_rng(cell.seed, 1), RANDOMIZATION_TRIALS)
    cand_max = max(beam_gains(v, problem.factors[:1])[0] for v in candidates)
    cand_ok = cand_max <= relaxed + tol_rel

    phase, metrics = gaussian_randomization(sol.factor, problem, child_rng(cell.seed, 1))
    gains = np.array([g for g, _ in metrics.gains])
    extract_ok = bool(np.all(gains >= 0.95 * desired))

    ok = prop_ok and cand_ok and extract_ok
    report(
        9,
        "SDR dominance",
        ok,
        f"relaxed {10*np.log10(relaxed):.2f} dB, proposed {proposed.metrics.snr_db[0]:.2f} dB "
        f"(meets floors: {prop_feasible}), best candidate {10*np.log10(cand_max):.2f} dB, "
        f"extraction feasible: {extract_ok}",
    )


def test_criterion_10_complexity_scaling(scenario):
    """One proposed design scales about linearly in N, holds no factor larger
    than the 2K x N stack, and at N = 4 096 is faster than SDR at N = 32."""
    probe = run_complexity_probe([32, 1024, 2048, 4096, 8192, 16384], repeats=7,
                                 scenario=scenario)
    times = {(r["n_elements"], r["method"]): r["median_seconds"] for r in probe.rows}
    # slope fitted where the fixed per-call overhead no longer dominates;
    # N=32 exists just for the SDR row
    fit_n = np.array([1024, 2048, 4096, 8192, 16384])
    fit_t = np.array([times[(n, "proposed")] for n in fit_n])
    slope = float(np.polyfit(np.log(fit_n), np.log(fit_t), 1)[0])
    ordering = times[(4096, "proposed")] < times[(32, "sdr")]

    ch = realize(scenario.replace(ris_rows=64, ris_cols=64)).channels
    system = build_system(ch.h_ue, ch.a_targets, ch.gain_prefactor)
    limit = 2 * system.n_targets * system.n_elements
    largest = max(np.size(getattr(system, f.name)) for f in fields(system))
    ok = (0.6 <= slope <= 1.5) and ordering and largest <= limit
    report(
        10,
        "complexity scaling",
        ok,
        f"slope {slope:.2f}, proposed@4096 {times[(4096, 'proposed')]*1e3:.2f} ms, "
        f"sdr@32 {times[(32, 'sdr')]*1e3:.1f} ms, largest factor {largest} <= 2KN {limit}",
    )


def test_criterion_11_determinism(scenario, tmp_path):
    """Rerunning an experiment with the same manifest is byte-identical."""
    import json

    small = scenario.replace(ris_rows=4, ris_cols=4, alpha=0.5)
    sfile = tmp_path / "small.json"
    sfile.write_text(json.dumps(small.to_dict()))
    args = lambda d: [
        "experiment", "alpha-sweep", "--scenario", str(sfile),
        "--out", str(d), "--alphas", "0,0.5,1", "--seeds", "3",
    ]
    assert cli_main(args(tmp_path / "r1")) == 0
    assert cli_main(args(tmp_path / "r2")) == 0
    b1 = (tmp_path / "r1" / "alpha_sweep.csv").read_bytes()
    b2 = (tmp_path / "r2" / "alpha_sweep.csv").read_bytes()
    report(11, "deterministic reruns", b1 == b2, f"{len(b1)} bytes compared")
