"""Acceptance gate: the benchmark criteria, each at its stated tolerance.

One PASS/FAIL line is printed per criterion (run pytest with -s to see
them as they complete).  The expensive fixtures regenerate the full
21-point, 3-mode, 8-restart benchmark sweep, twice, so the determinism
claim is exercised on the real artifact.
"""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import seesawqec as q
from oracle import oracle_optimize
from seesawqec.cli import SweepConfig, run_sweep, write_csv, write_svg_plot

SEED = 7
GAMMA_GRID = np.linspace(0.0, 1.0, 21)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def by_mode(records):
    out = {}
    for r in records:
        out[(r.mode, round(r.gamma, 10))] = r.fidelity
    return out


def full_config():
    return SweepConfig(
        gamma_min=0.0, gamma_max=1.0, steps=21, copies=4,
        modes=("nocoding", "leung_optrec", "seesaw"),
        options=q.SolveOptions(seed=SEED, restarts=8))


def run_full(tmp_dir, tag):
    """((csv path, svg path), records, seconds) of one full sweep."""
    paths = str(tmp_dir / f"fig1_{tag}.csv"), str(tmp_dir / f"fig1_{tag}.svg")
    t0 = time.perf_counter()
    records = run_sweep(full_config())
    elapsed = time.perf_counter() - t0
    write_csv(records, paths[0])
    write_svg_plot(records, paths[1])
    return paths, records, elapsed


@pytest.fixture(scope="module")
def benchmark_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("benchmark")


@pytest.fixture(scope="module")
def full_sweep(benchmark_dir):
    return run_full(benchmark_dir, "a")


@pytest.fixture(scope="module")
def full_sweep_repeat(benchmark_dir):
    return run_full(benchmark_dir, "b")


def state_based_fidelity(c):
    d = c.d_in
    omega = q.max_entangled_vector(d)
    rho = np.outer(omega, omega.conj())
    ext = q.Channel([np.kron(k, np.eye(d)) for k in c.kraus])
    out = q.apply(ext, rho)
    return float(np.real(omega.conj() @ out @ omega))


def test_criterion_1_no_coding_curve():
    t0 = time.perf_counter()
    config = SweepConfig(modes=("nocoding",))
    records = run_sweep(config)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for r in records:
        analytic = (1.0 + np.sqrt(1.0 - r.gamma)) ** 2 / 4.0
        worst = max(worst, abs(r.fidelity - analytic))
        # independent state-based oracle for the same formula
        oracle = state_based_fidelity(q.amplitude_damping(r.gamma))
        worst = max(worst, abs(oracle - analytic))
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_strict_improvement(full_sweep):
    _, records, _ = full_sweep
    by = by_mode(records)
    outer_tol = q.SolveOptions().outer_tol
    margins = {}
    for g in [0.1, 0.2, 0.3, 0.4, 0.5]:
        margins[g] = by[("seesaw", g)] - by[("leung_optrec", g)]
    ok = all(m > 10 * outer_tol for m in margins.values())
    detail = ", ".join(f"g={g}: {m:.3e}" for g, m in margins.items())
    report(2, ok, f"margins {detail}")


def test_criterion_3_seeded_dominance(full_sweep):
    _, records, _ = full_sweep
    by = by_mode(records)
    worst = min(by[("seesaw", round(g, 10))]
                - max(by[("nocoding", round(g, 10))],
                      by[("leung_optrec", round(g, 10))])
                for g in GAMMA_GRID)
    report(3, worst >= -1e-9, f"worst seesaw deficit {worst:.2e}")


def test_criterion_4_error_correction_scaling():
    config = SweepConfig(gamma_min=0.02, gamma_max=0.1, steps=5,
                         modes=("nocoding", "leung_optrec"),
                         options=q.SolveOptions(seed=SEED))
    records = run_sweep(config)
    slopes = {}
    for mode in ("leung_optrec", "nocoding"):
        pts = [(r.gamma, 1.0 - r.fidelity) for r in records if r.mode == mode]
        lg = np.log([p[0] for p in pts])
        li = np.log([p[1] for p in pts])
        slopes[mode] = float(np.polyfit(lg, li, 1)[0])
    ok = (1.7 <= slopes["leung_optrec"] <= 2.3
          and 0.8 <= slopes["nocoding"] <= 1.2)
    report(4, ok, f"coded slope {slopes['leung_optrec']:.3f}, "
                  f"bare slope {slopes['nocoding']:.3f}")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    enc = q.leung_encoder()
    worst = 0.0
    for g in [0.1, 0.2, 0.4]:
        noise = q.tensor_power(q.amplitude_damping(g), 4)
        res = q.optimize_recovery_multistarts(enc, [noise])[0]
        x = q.fidelity_operator_recovery(enc, noise)
        orc = oracle_optimize(x, (2, 16), iters=1200)
        worst = max(worst, abs(res.fidelity - orc))
    elapsed = time.perf_counter() - t0
    report(5, worst < 1e-6 and elapsed < 120.0,
           f"max solver/oracle gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_invariant_suites():
    failures = []

    # CPTP checks: Kraus sets extracted from Choi matrices stay complete
    rng = np.random.default_rng(SEED)
    for i in range(20):
        c = q.random_cptp(3, 2, 3, rng)
        back = q.from_choi(q.to_choi(c))
        dev = np.max(np.abs(sum(k.conj().T @ k for k in back.kraus) - np.eye(3)))
        if dev > 1e-9:
            failures.append(f"completeness {dev:.2e}")

    # fidelity triple-equivalence over 200 random instances
    worst = 0.0
    for i in range(200):
        d = 2 if i % 2 else 3
        c = q.random_cptp(d, d, 2 + i % 3, rng)
        f_kraus = q.channel_fidelity(c)
        f_state = state_based_fidelity(c)
        omega = q.max_entangled_vector(d)
        f_choi = float(np.real(omega.conj() @ q.to_choi(c).matrix @ omega)) / d
        worst = max(worst, abs(f_kraus - f_state), abs(f_kraus - f_choi))
    if worst > 1e-10:
        failures.append(f"triple-equivalence {worst:.2e}")

    # semigroup composition law on a 5x5 grid
    worst = 0.0
    for g in np.linspace(0.1, 0.9, 5):
        for e in np.linspace(0.1, 0.9, 5):
            a = q.compose(q.amplitude_damping(g), q.amplitude_damping(e))
            b = q.amplitude_damping(1.0 - (1.0 - g) * (1.0 - e))
            worst = max(worst, float(np.max(np.abs(
                q.to_choi(a).matrix - q.to_choi(b).matrix))))
    if worst > 1e-12:
        failures.append(f"semigroup {worst:.2e}")

    # monotone fidelity traces in every restart of a full-size seesaw run
    res = q.seesaw(q.amplitude_damping(0.3), 4, q.SolveOptions(seed=SEED))
    for trace in res.restart_traces:
        if any(b < a for a, b in zip(trace, trace[1:])):
            failures.append("non-monotone trace")
            break
    for c in (res.encoder, res.recovery):
        dev = np.max(np.abs(sum(k.conj().T @ k for k in c.kraus)
                            - np.eye(c.d_in)))
        if dev > 1e-8:
            failures.append(f"seesaw channel completeness {dev:.2e}")

    report(6, not failures, "; ".join(failures) or "all invariant suites hold")


def test_criterion_7_endpoints(full_sweep):
    _, records, _ = full_sweep
    by = by_mode(records)
    at_zero = [by[(m, 0.0)] for m in ("nocoding", "leung_optrec", "seesaw")]
    seesaw_one = by[("seesaw", 1.0)]
    ok = all(f == 1.0 for f in at_zero) and seesaw_one >= 0.25
    report(7, ok, f"F(0)={at_zero}, seesaw F(1)={seesaw_one!r}")


def test_criterion_8_full_regeneration(full_sweep, full_sweep_repeat):
    (csv_a, svg_a), _, elapsed_a = full_sweep
    (csv_b, _), _, elapsed_b = full_sweep_repeat

    def rows_without_walltime(path):
        with open(path) as fh:
            return [",".join(l.split(",")[:-1]) for l in fh.read().splitlines()]

    deterministic = rows_without_walltime(csv_a) == rows_without_walltime(csv_b)
    root = ET.parse(svg_a).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    svg_ok = len(root.findall(f".//{ns}polyline")) == 3
    ok = elapsed_a < 900.0 and elapsed_b < 900.0 and deterministic and svg_ok
    report(8, ok, f"runs {elapsed_a:.0f}s/{elapsed_b:.0f}s, "
                  f"deterministic={deterministic}, svg_ok={svg_ok}")
