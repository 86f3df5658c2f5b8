"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a PASS line when it holds (run with -s or -rA to see the lines).

Every criterion is property-based or closed-form-oracle-based; run times are
asserted against the stated budgets.
"""

import time

import numpy as np
import pytest

from degengeo.hermitian import (
    frobenius_norm,
    operator_2_norm,
    random_hermitian,
    random_unitary,
)
from degengeo.models import (
    example_pr,
    example_pr_reference,
    five_qubit_code,
    ising,
    ssh,
    ssh_hopping_disorder,
    transverse_perturbation,
    weyl_example,
)
from degengeo.projection import (
    collapse_projection,
    orthogonality_check,
    project_with_index_set,
    sample_sigma_k,
)
from degengeo.spectra import window_half_gap
from degengeo.splitting import (
    FIVE_METHODS,
    cascade,
    estimate_all_orders,
    estimate_order,
    family,
    linear_family,
)
from degengeo.swtransform import sw_decompose
from degengeo.weyl import (
    classify_point,
    first_order_effective_map,
    jacobian,
    param_family,
    scan_grid,
)

H0_3 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: PASS - {name}{suffix}")


def _random_case(rng, n_range=(3, 9), k_choices=(2, 3), fraction=0.9):
    n = int(rng.integers(*n_range))
    k = int(rng.choice([k for k in k_choices if k < n]))
    deg = float(rng.standard_normal())
    rest = deg + 1.0 + np.sort(rng.uniform(0.0, 2.0, size=n - k))
    h0 = np.diag(np.concatenate([np.full(k, deg), rest])).astype(complex)
    v = random_hermitian(n, rng)
    r0 = window_half_gap(np.diag(h0).real, k, 0)
    scale = fraction * rng.uniform(0.1, 1.0) * r0
    return h0 + v * (scale / operator_2_norm(v)), h0, n, k


def test_criterion_1_round_trip_and_uniqueness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(200):
        h, h0, n, k = _random_case(rng)
        dec = sw_decompose(h, h0, k)
        assert dec.residual <= 1e-9 * frobenius_norm(h)
        assert np.max(np.abs(dec.s[:k, :k])) <= 1e-11 * max(
            frobenius_norm(dec.s), 1e-30
        )
        assert np.max(np.abs(dec.s[k:, k:])) <= 1e-11 * max(
            frobenius_norm(dec.s), 1e-30
        )
        assert abs(np.trace(dec.h_eff)) <= 1e-11 * max(
            frobenius_norm(dec.h_eff), 1e-30
        )
        again = sw_decompose(dec.reconstruct(), h0, k)
        for a, b in ((again.s, dec.s), (again.b, dec.b),
                     (again.h_eff, dec.h_eff)):
            assert frobenius_norm(a - b) <= 1e-8
        assert abs(again.c - dec.c) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, "round trip and uniqueness over 200 random cases",
            f"{elapsed:.2f} s")


def test_criterion_2_closed_form_oracle_grid():
    start = time.monotonic()
    worst = 0.0
    for p in np.linspace(-0.2, 0.2, 9):
        for r in np.linspace(-0.2, 0.2, 9):
            dec = sw_decompose(example_pr(p, r), H0_3, 2)
            ref = example_pr_reference(p, r)
            worst = max(
                worst,
                np.max(np.abs(dec.s - ref.s)),
                np.max(np.abs(dec.b - ref.b)),
                abs(dec.c - ref.c),
                np.max(np.abs(dec.h_eff - ref.h_eff)),
            )
    assert worst <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, "closed-form decomposition on the 9x9 grid",
            f"max block deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_distance_theorem():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    for _ in range(500):
        h, h0, n, k = _random_case(rng)
        dec = sw_decompose(h, h0, k)
        pr = collapse_projection(h, k)
        a = np.sqrt(k) * pr.std_dev
        b = pr.distance
        c = frobenius_norm(dec.h_eff)
        scale = max(a, 1e-30)
        assert abs(a - b) <= 1e-9 * scale
        assert abs(a - c) <= 1e-9 * scale
    h = random_hermitian(5, rng)
    pr = collapse_projection(h, 2)
    for _ in range(10_000):
        g = sample_sigma_k(5, 2, rng)
        assert frobenius_norm(h - g) >= pr.distance - 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, "distance triple equality and brute-force minimality",
            f"{elapsed:.2f} s")


def test_criterion_4_orthogonality():
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(n, 5)))
        h = random_hermitian(n, rng)
        if not collapse_projection(h, k).unique:
            continue
        assert orthogonality_check(h, k) <= 1e-9
        checked += 1
    _report(4, "projection line orthogonal to the manifold, 100 cases")


def test_criterion_5_alternate_projections_strictly_farther():
    rng = np.random.default_rng(105)
    done = 0
    while done < 50:
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n))
        vals = np.sort(rng.standard_normal(n) * 2.0)
        # choose an index set skipping one low index so that an alternate
        # projection exists: indices {1..k-1, k+1}
        idx = list(range(1, k)) + [k + 1]
        mean = np.mean(vals[[i - 1 for i in idx]])
        omitted = sorted(set(range(1, n + 1)) - set(idx))
        if mean >= vals[omitted[0] - 1]:
            continue
        u = random_unitary(n, rng)
        h = (u * vals) @ u.conj().T
        h = (h + h.conj().T) / 2.0
        alt = project_with_index_set(h, idx)
        pr = collapse_projection(h, k)
        assert frobenius_norm(h - alt) > pr.distance
        done += 1
    _report(5, "alternate eigenvalue merges are strictly farther, 50 cases")


def _polynomial_family(n, k, order, rng):
    coeffs = np.linspace(1.0, 2.0, k) * rng.choice([-1.0, 1.0], size=k)
    upper = 1.5 + np.sort(rng.uniform(0.0, 2.0, size=n - k))
    slopes = rng.standard_normal(n - k)
    v = random_unitary(n, rng)

    def evaluator(t):
        lam = np.concatenate([coeffs * t ** order, upper + slopes * t])
        return (v * lam) @ v.conj().T

    return family(evaluator, k)


def test_criterion_6_order_equalities():
    start = time.monotonic()
    rng = np.random.default_rng(106)
    for case in range(20):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(n, 5)))
        order = int(rng.integers(1, 4))
        fam = _polynomial_family(n, k, order, rng)
        ladder = np.sort(np.array([2.0 ** -e for e in range(3, 17)]))
        estimates, _ = estimate_all_orders(fam, ladder)
        for method in FIVE_METHODS:
            est = estimates[method]
            assert est.r == order, (case, method, est)
        dist = estimate_order(fam, "distance", ladder)
        assert dist.r == order
        assert abs(dist.slope - order) <= 0.2
    elapsed = time.monotonic() - start
    assert elapsed < 20.0
    _report(6, "five order estimators and the distancing slope agree",
            f"20 families, {elapsed:.2f} s")


def test_criterion_7_tangency_dichotomy():
    rng = np.random.default_rng(107)
    for case in range(20):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n))
        deg = float(rng.standard_normal())
        rest = deg + 1.0 + np.sort(rng.uniform(0.0, 2.0, size=n - k))
        h0 = np.diag(np.concatenate([np.full(k, deg), rest])).astype(complex)
        h1 = random_hermitian(n, rng)
        tangent = bool(rng.integers(0, 2))
        if tangent:
            block = h1[:k, :k]
            h1 = h1.copy()
            h1[:k, :k] = (np.trace(block).real / k) * np.eye(k)
        r = estimate_order(linear_family(h0, h1, k)).r
        if tangent:
            assert r >= 2, case
        else:
            assert r == 1, case
    _report(7, "linear families: order 1 exactly off the tangent space")


def test_criterion_8_models_and_orders():
    start = time.monotonic()
    rng = np.random.default_rng(108)

    vals = np.linalg.eigvalsh(ssh(4, 0.0, 1.0))
    np.testing.assert_allclose(
        vals, [-1, -1, -1, 0, 0, 1, 1, 1], atol=1e-12
    )
    vals = np.linalg.eigvalsh(ising(3))
    assert abs(vals[0] + 2.0) <= 1e-12 and abs(vals[1] + 2.0) <= 1e-12
    assert vals[2] > vals[1] + 1e-6
    vals = np.linalg.eigvalsh(five_qubit_code())
    assert vals[1] - vals[0] <= 1e-12 < vals[2] - vals[1]

    slopes = {"ssh": [], "ising": [], "five-qubit": []}
    n_cells = 4
    h_ssh = ssh(n_cells, 0.0, 1.0)
    for _ in range(5):
        amps = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        fam = family(lambda t, d=ssh_hopping_disorder(n_cells, amps):
                     h_ssh + t * d, 2, offset=n_cells - 1)
        est = estimate_order(fam)
        assert est.r == n_cells
        slopes["ssh"].append(est.slope)

    n_q = 3
    h_ising = ising(n_q)
    for _ in range(5):
        fam = family(lambda t, d=transverse_perturbation(
            n_q, rng.standard_normal(n_q), rng.standard_normal(n_q)):
            h_ising + t * d, 2)
        est = estimate_order(fam)
        assert est.r == n_q
        slopes["ising"].append(est.slope)

    h_code = five_qubit_code()
    from degengeo.models import one_local

    for _ in range(5):
        fam = family(lambda t, d=one_local(5, rng.standard_normal(15)):
                     h_code + t * d, 2)
        est = estimate_order(fam)
        assert est.r >= 3  # the asserted lower bound; the fit is recorded
        slopes["five-qubit"].append(est.slope)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    fitted = {k: [round(s, 3) for s in v] for k, v in slopes.items()}
    _report(8, "model spectra and splitting orders",
            f"fitted slopes {fitted}, {elapsed:.2f} s")


def test_criterion_9_weyl_analysis():
    start = time.monotonic()
    fam = param_family(lambda p: weyl_example(*p), 3)
    rep = classify_point(fam, np.zeros(3))
    assert rep.classification == "weyl" and rep.charge == 1
    jac1 = jacobian(first_order_effective_map(fam, np.zeros(3)), np.zeros(3))
    assert np.max(np.abs(jac1 - np.sqrt(2.0) * np.eye(3))) <= 1e-6

    fam_pr = param_family(lambda p: example_pr(p[0], p[1]), 3)
    rep_pr = classify_point(fam_pr, np.zeros(3))
    assert rep_pr.classification == "non-generic-degeneracy"
    rng = np.random.default_rng(109)
    for _ in range(5):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        line = family(lambda t, d=d: example_pr(t * d[0], t * d[1]), 2)
        assert estimate_order(line).r == 2

    k_mat = np.zeros((3, 3), dtype=complex)
    k_mat[0, 1] = k_mat[1, 0] = 0.05
    fam_pert = param_family(lambda p: weyl_example(*p) + k_mat, 3)
    reports = scan_grid(fam_pert, [(-0.5, 0.5)] * 3, 11)
    assert len(reports) == 1
    assert reports[0].classification == "weyl"
    assert reports[0].charge == 1
    assert np.linalg.norm(reports[0].p) > 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(9, "Weyl point, counterexample, and perturbed scan",
            f"displaced to {np.round(reports[0].p, 4)}, {elapsed:.2f} s")


def test_criterion_10_cascade_crossing():
    h0 = np.diag([0.0, 0.0, 2.0, 3.0]).astype(complex)
    h1 = np.zeros((4, 4), dtype=complex)
    h1[0, 0], h1[1, 1] = 1.0, -1.0
    fam = linear_family(h0, h1, 2)
    res = cascade(fam)
    assert res.negative_permutation == (2, 1)
    assert res.pair_levels == {(1, 2): 1}

    # reassemble the two analytic branches through 0 and fit degree 4
    ts = np.linspace(-0.2, 0.2, 41)
    branches = np.empty((len(ts), 2))
    for row, t in enumerate(ts):
        win = np.linalg.eigvalsh(fam(t))[:2]
        if t < 0.0:
            win = win[[p - 1 for p in res.negative_permutation]]
        branches[row] = win
    worst = 0.0
    for col in range(2):
        coeffs = np.polynomial.polynomial.polyfit(ts, branches[:, col], 4)
        fit = np.polynomial.polynomial.polyval(ts, coeffs)
        worst = max(worst, float(np.max(np.abs(fit - branches[:, col]))))
    assert worst <= 1e-8
    _report(10, "cascade permutation and analytic branch reassembly",
            f"fit residual {worst:.2e}")
