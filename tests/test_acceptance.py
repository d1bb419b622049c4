"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import json
import math

import numpy as np

from fpbsim import (
    Bb84State,
    ErrorModelParams,
    SiftBasis,
    model_sift_summaries,
    predict_outcome_probs,
    reference_counts_path,
    renyi_closed_form,
)
from fpbsim.cli import main
from fpbsim.error_model import _amplitudes, _phases

from conftest import (
    CountsRecord,
    IDEAL_EXPECTED,
    MEASURED_ESTIMATED,
    analytic_output,
    analytic_probs,
    columns_from_records,
    draw_counts,
    error_probability,
    shipped_output_state,
    states_close,
)

#: The ideal attack: the forward model with all ten angles at zero.
ZERO = ErrorModelParams()


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_closed_form_endpoints():
    at_zero = renyi_closed_form(0.0)
    at_third = renyi_closed_form(1 / 3)
    ok = at_zero == 0.0 and abs(at_third - 1.0) < 1e-12
    report(1, ok, f"closed form 0 -> {at_zero}, 1/3 -> {at_third:.15f}")


def test_criterion_2_expected_table(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--pe", "0,0.1,1/3", "--states", "D,A"
    )
    rows = out.strip().splitlines()[1:]
    worst = 0.0
    checked = 0
    for row in rows:
        fields = row.split(",")
        alice, pe = fields[0], float(fields[1])
        key = (alice, 1 / 3 if abs(pe - 1 / 3) < 1e-6 else pe)
        for got, want in zip(map(float, fields[2:]), IDEAL_EXPECTED[key]):
            worst = max(worst, abs(got - want))
            checked += 1
    ok = code == 0 and checked == 24 and worst <= 0.0005
    report(2, ok, f"{checked} cells, worst |deviation| = {worst:.2e} (<= 5e-4)")


def test_criterion_3_definition_matches_closed_form():
    grid = [i * 0.01 for i in range(34)] + [1 / 3]
    renyi, _ = model_sift_summaries(ZERO, grid)
    worst = 0.0
    for pe, via_def in zip(grid, renyi.tolist()):
        for value in via_def:
            worst = max(worst, abs(value - renyi_closed_form(pe)))
    ok = worst < 1e-10
    report(3, ok, f"both bases over {len(grid)}-point grid, worst gap = {worst:.2e}")


def test_criterion_4_state_vector_vs_analytic():
    grid = np.linspace(0.0, 1 / 3, 35)
    states_ok = True
    err_worst = 0.0
    for state in Bb84State:
        for pe in grid:
            got = shipped_output_state(ZERO, state, float(pe))
            if not states_close(got, analytic_output(state, float(pe)), tol=1e-12):
                states_ok = False
            err_worst = max(err_worst, abs(error_probability(state, float(pe)) - pe))
    ok = states_ok and err_worst < 1e-12
    report(
        4,
        ok,
        f"4 states x 35 pe points: decompositions {'match' if states_ok else 'differ'},"
        f" worst |error_prob - pe| = {err_worst:.2e}",
    )


def shipped_gate(alpha: float, delta: float) -> np.ndarray:
    """The model's ``(4, 4)`` entangling gate, one column per basis input.

    Feeds the shipped amplitude helper the photon and probe basis states,
    control-major, with the analyzer at zero angle, so each output is the
    gate's column for that input.
    """
    gate_terms = _phases(0.0, 0.0, alpha, delta)[-1]
    basis = ((1.0, 0.0), (0.0, 1.0))
    columns = [
        _amplitudes(*photon, *probe, gate_terms, 1.0, 0.0)
        for photon in basis
        for probe in basis
    ]
    return np.array(columns).T


def test_criterion_5_gate_unitarity_and_zero_reduction():
    rng = np.random.default_rng(424242)
    unitary_worst = 0.0
    for _ in range(100):
        alpha, delta = rng.uniform(-math.pi, math.pi, size=2)
        gate = shipped_gate(alpha, delta)
        unitary_worst = max(
            unitary_worst, float(np.max(np.abs(gate.conj().T @ gate - np.eye(4))))
        )
    reduction_worst = 0.0
    for state in Bb84State:
        for basis in SiftBasis:
            for pe in np.linspace(0.0, 0.5, 11):
                got = predict_outcome_probs(ZERO, state, basis, pe)
                want = analytic_probs(state, basis, float(pe))
                reduction_worst = max(reduction_worst, float(np.max(np.abs(got - want))))
    ok = unitary_worst < 1e-12 and reduction_worst < 1e-10
    report(
        5,
        ok,
        f"100 random gates worst non-unitarity = {unitary_worst:.2e}, "
        f"zero-parameter reduction worst gap = {reduction_worst:.2e}",
    )


def test_criterion_6_monte_carlo_consistency():
    n = 50_000
    configs = [
        (state, basis, pe)
        for state in Bb84State
        for basis in SiftBasis
        for pe in (0.0, 0.05, 0.1, 0.2, 1 / 3)
    ]
    model = {
        cfg: predict_outcome_probs(ZERO, cfg[0], cfg[1], cfg[2])
        for cfg in configs
    }
    seeds = np.random.SeedSequence(20240613).generate_state(1000, np.uint64)
    cells = 0
    cells_ok = 0
    for trial, seed in enumerate(seeds):
        cfg = configs[trial % len(configs)]
        p = model[cfg]
        counts = draw_counts(p, n, int(seed))
        estimate = np.array(counts) / n
        bound = 3 * np.sqrt(p * (1 - p) / n)
        cells += 4
        cells_ok += int(np.sum(np.abs(estimate - p) <= bound))
    coverage = cells_ok / cells

    pair_seeds = np.random.SeedSequence(5150).generate_state(2, np.uint64)
    records = [
        CountsRecord(
            state,
            SiftBasis.DA,
            0.1,
            draw_counts(
                predict_outcome_probs(ZERO, state, SiftBasis.DA, 0.1),
                n,
                int(seed),
            ),
        )
        for state, seed in zip(SiftBasis.DA.states, pair_seeds)
    ]
    ((_, _, renyi, _, _),) = columns_from_records(records).sift_summaries()
    ok = coverage >= 0.99 and abs(renyi - 0.480) <= 0.02
    report(
        6,
        ok,
        f"3-sigma coverage {coverage:.4f} over 1000 trials (>= 0.99), "
        f"measured information at pe=0.1: {renyi:.4f} (0.480 +/- 0.02)",
    )


def test_criterion_7_fit_round_trip(capsys, tmp_path, ref_params):
    params_path = tmp_path / "truth.json"
    params_path.write_text(json.dumps(ref_params.to_dict()))
    counts_path = tmp_path / "counts.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--params", str(params_path),
        "--states", "H,V,D,A",
        "--pe", "0,0.1,1/3",
        "--pairs", "50000",
        "--seed", "42",
        "--out", str(counts_path),
    )
    assert code == 0
    fit_path = tmp_path / "fit.json"
    code, _, _ = run_cli(
        capsys,
        "fit",
        "--counts", str(counts_path),
        "--format", "json",
        "--out", str(fit_path),
    )
    fitted = json.loads(fit_path.read_text())
    truth = ref_params.to_dict()
    err = {key: abs(fitted[key] - truth[key]) for key in truth}
    theta_keys = [k for k in truth if k.startswith("d_theta")]
    ok = (
        code == 0
        and err["alpha"] <= 1.0
        and err["delta"] <= 2.0
        and max(err[k] for k in theta_keys) <= 1.0
        and err["d_xi"] <= 5.0
        and err["d_chi"] <= 5.0
    )
    detail = (
        f"96 noisy values, recovery error (deg): alpha {err['alpha']:.3f} (<=1), "
        f"delta {err['delta']:.3f} (<=2), thetas {max(err[k] for k in theta_keys):.3f} "
        f"(<=1), phases {max(err['d_xi'], err['d_chi']):.3f} (<=5)"
    )
    report(7, ok, detail)


def test_criterion_8_consistency_soft_checks(capsys, ref_params):
    renyi, _ = model_sift_summaries(ref_params, [1 / 3])
    _, rates = model_sift_summaries(ref_params, [0.0])
    renyi_mean = sum(renyi[0].tolist()) / 2
    error_mean = sum(rates[0].tolist()) / 2

    code, out, _ = run_cli(
        capsys, "estimate", "--counts", str(reference_counts_path())
    )
    record_rows = out.strip().split("\n\n")[0].splitlines()[1:]
    worst = 0.0
    for row in record_rows:
        fields = row.split(",")
        want = MEASURED_ESTIMATED[(fields[0], float(fields[2]))]
        for got, expected in zip(map(float, fields[3:]), want):
            worst = max(worst, abs(got - expected))

    ok = (
        abs(renyi_mean - 0.90) <= 0.07
        and abs(error_mean - 0.05) <= 0.03
        and code == 0
        and worst <= 0.0005
    )
    report(
        8,
        ok,
        f"model information at pe=1/3: {renyi_mean:.3f} (0.90 +/- 0.07), "
        f"model sift error at pe=0: {error_mean:.3f} (0.05 +/- 0.03), "
        f"estimated-cell worst |deviation| = {worst:.2e} (<= 5e-4)",
    )
