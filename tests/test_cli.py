import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpbsim import (
    Bb84State,
    CountsRecord,
    ErrorModelParams,
    ProbeConfig,
    SiftBasis,
    noise_free_counts,
    predict_outcome_probs,
    read_counts_file,
    reference_counts_path,
    renyi_closed_form,
    write_counts_file,
)
import fpbsim
from fpbsim.cli import main

from conftest import IDEAL_EXPECTED, MEASURED_ESTIMATED

EXAMPLE_PARAMS = str(reference_counts_path().parent / "example_params.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` at every fpbsim binding of it; the returned
    list gets one entry per call."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(())
        return original(*args, **kwargs)

    for loaded in [m for key, m in sys.modules.items() if key.split(".")[0] == "fpbsim"]:
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, counting)
    return calls


def parse_csv(text):
    """Split CSV output into tables: list of (columns, rows-of-strings)."""
    tables = []
    for block in text.strip().split("\n\n"):
        lines = block.strip().splitlines()
        tables.append((lines[0].split(","), [l.split(",") for l in lines[1:]]))
    return tables


class TestCurve:
    def test_ideal_endpoints(self, capsys):
        code, out, _ = run(capsys, "curve", "--steps", "2")
        assert code == 0
        (columns, rows), = parse_csv(out)
        assert columns == ["pe", "renyi_hv", "renyi_da", "renyi_ideal"]
        first, last = [list(map(float, row)) for row in rows]
        assert first[0] == 0.0 and all(abs(v) < 1e-9 for v in first[1:])
        assert abs(last[0] - 1 / 3) < 1e-6
        assert all(abs(v - 1.0) < 1e-9 for v in last[1:])

    def test_zero_params_model_matches_ideal_column(self, capsys):
        code, out, _ = run(capsys, "curve", "--steps", "12")
        assert code == 0
        (_, rows), = parse_csv(out)
        for row in rows:
            pe, hv, da, ideal = map(float, row)
            assert abs(hv - ideal) < 1e-6 and abs(da - ideal) < 1e-6
            assert abs(ideal - renyi_closed_form(pe)) < 1e-6

    def test_params_model_reaches_reference_limit(self, capsys, tmp_path, ref_params):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(ref_params.to_dict()))
        code, out, _ = run(
            capsys, "curve", "--params", str(params_path),
            "--pe-min", "1/3", "--pe-max", "1/3", "--steps", "1",
        )
        assert code == 0
        (_, rows), = parse_csv(out)
        _, hv, da, ideal = map(float, rows[0])
        assert abs((hv + da) / 2 - 0.90) < 0.07
        assert abs(ideal - 1.0) < 1e-6

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "curve", "--steps", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert set(payload[0]) == {"pe", "renyi_hv", "renyi_da", "renyi_ideal"}

    def test_points_above_one_third_warn_on_one_line(self, capsys):
        code, out, err = run(capsys, "curve", "--pe-max", "0.5", "--steps", "7")
        assert code == 0
        assert err == (
            "warning: 2 of 7 grid points lie above pe = 1/3, outside the "
            "attack's useful operating range\n"
        )
        (_, rows), = parse_csv(out)
        assert len(rows) == 7
        code, _, err = run(capsys, "curve", "--steps", "7")
        assert code == 0 and err == ""

    def test_params_without_error_free_events_rejected(self, capsys, tmp_path):
        # Wave plates and the HV analyzer turned 45 degrees: at pe = 0 Bob
        # reads the wrong bit for both HV inputs.
        doc = ErrorModelParams().to_dict()
        doc.update(d_theta_a_h=45.0, d_theta_a_v=45.0, d_theta_b_hv=45.0)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "curve", "--params", str(params_path))
        assert code == 1 and out == ""
        assert err == (
            "error: model predicts no error-free sift events in basis HV at pe 0\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("curve", "--steps", "0"),
            ("curve", "--pe-max", "0.6"),
            ("curve", "--pe-min", "0.2", "--pe-max", "0.1"),
            ("curve", "--pe-min", "oops"),
            ("curve", "--ideal"),
            ("simulate", "--pairs", str(2**63)),
        ],
    )
    def test_usage_errors(self, capsys, args):
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "error" in err


class TestTable:
    def test_ideal_reference_layout(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        (columns, rows), = parse_csv(out)
        assert columns == ["alice", "pe", "p_10", "p_11", "p_01", "p_00"]
        assert len(rows) == 6
        for row in rows:
            alice, pe = row[0], float(row[1])
            key = (alice, 1 / 3 if abs(pe - 1 / 3) < 1e-6 else pe)
            np.testing.assert_allclose(
                [float(v) for v in row[2:]], IDEAL_EXPECTED[key], atol=5e-4
            )

    def test_unknown_state_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--states", "D,X")
        assert code == 1
        assert "unknown input state" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "table", "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("alice,pe,")


class TestSimulate:
    def test_byte_identical_given_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--pairs", "2000", "--seed", "7",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        code, _, _ = run(
            capsys, "simulate", "--pairs", "2000", "--seed", "8", "--out", str(a)
        )
        assert code == 0
        assert a.read_bytes() != b.read_bytes()

    def test_layout_and_error_free_cells(self, capsys, tmp_path):
        path = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "simulate", "--pairs", "40000", "--seed", "3",
            "--out", str(path),
        )
        assert code == 0
        records = read_counts_file(path)
        # One record per state x basis x pe combination.
        assert len(records) == 4 * 2 * 3
        for record in records:
            assert record.total == 40000
            if record.pe_nominal == 0.0 and record.alice.basis is record.bob_basis:
                wrong = [
                    c
                    for c, (b, _) in zip(
                        record.counts, ((1, 0), (1, 1), (0, 1), (0, 0))
                    )
                    if b != record.alice.bit
                ]
                assert wrong == [0, 0]

    def test_pipeline_closure_to_model_probabilities(self, capsys, tmp_path):
        # Estimated probabilities converge on the model table at large n.
        path = tmp_path / "big.csv"
        code, _, _ = run(
            capsys, "simulate", "--pairs", "1000000", "--seed", "12",
            "--states", "D,A", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "estimate", "--counts", str(path))
        assert code == 0
        record_table = parse_csv(out)[0]
        for row in record_table[1]:
            alice, basis, pe = row[0], row[1], float(row[2])
            estimated = np.array([float(v) for v in row[3:]])
            model = predict_outcome_probs(
                ErrorModelParams(), Bb84State(alice), SiftBasis(basis), ProbeConfig(pe)
            )
            np.testing.assert_allclose(estimated, model, atol=0.005)


class TestEstimate:
    def test_reference_counts(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--counts", str(reference_counts_path())
        )
        assert code == 0
        records_table, groups_table = parse_csv(out)
        assert len(records_table[1]) == 6
        for row in records_table[1]:
            key = (row[0], float(row[2]))
            np.testing.assert_allclose(
                [float(v) for v in row[3:]], MEASURED_ESTIMATED[key], atol=5e-4
            )
        assert groups_table[0] == ["basis", "pe", "measured_renyi", "sifted_error_rate"]
        by_pe = {float(row[1]): row for row in groups_table[1]}
        assert abs(float(by_pe[0.0][3]) - 0.0552588) < 1e-4
        assert 0.0 < float(by_pe[0.0][2]) < 0.01
        assert abs(float(by_pe[0.33][2]) - 0.8856) < 1e-3

    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--counts", str(reference_counts_path()),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["alice"] for r in payload["records"]} == {"D", "A"}
        assert len(payload["groups"]) == 3

    def test_noise_free_renyi_near_closed_form(self, capsys, tmp_path):
        records = []
        for state in SiftBasis.DA.states:
            probs = predict_outcome_probs(
                ErrorModelParams(), state, SiftBasis.DA, ProbeConfig(0.1)
            )
            records.append(
                CountsRecord(
                    state, SiftBasis.DA, 0.1, noise_free_counts(probs, 1_000_000)
                )
            )
        path = tmp_path / "ideal.csv"
        write_counts_file(path, records)
        code, out, _ = run(capsys, "estimate", "--counts", str(path))
        assert code == 0
        _, groups_table = parse_csv(out)
        measured = float(groups_table[1][0][2])
        assert abs(measured - 0.480) < 0.002

    def test_missing_pair_warns(self, capsys, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("D,DA,0.1,10,20,30,40\n")
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 0
        assert "missing a paired input state" in err
        _, groups_table = parse_csv(out)
        assert groups_table[1] == []

    def test_duplicate_state_warns(self, capsys, tmp_path):
        path = tmp_path / "duplicate.csv"
        path.write_text(
            "D,DA,0.1,10,20,30,40\nD,DA,0.1,11,21,31,41\nA,DA,0.1,40,30,20,10\n"
        )
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 0
        assert err == (
            "warning: basis DA at pe 0.1 needs exactly one record per input "
            "state; skipping its summary\n"
        )
        records_table, groups_table = parse_csv(out)
        assert len(records_table[1]) == 3
        assert groups_table[1] == []

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("D,DA,not-a-number,1,2,3,4\n")
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 1
        assert ":1:" in err

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "no.csv"
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe" + "D,DA,0.1,1,2,3,4\n".encode("utf-16-le"))
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: not UTF-8 text")

    def test_pair_without_error_free_counts(self, capsys, tmp_path):
        path = tmp_path / "all_wrong.csv"
        path.write_text("D,DA,0,10,10,0,0\nA,DA,0,0,0,10,10\n")
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 1
        assert err.startswith("error: basis DA at pe 0:")
        assert "no error-free sift counts" in err

    def test_zero_total_record(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("D,DA,0.1,0,0,0,0\n")
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}:1:")
        assert "zero total counts" in err

    def test_tiny_error_free_fraction(self, capsys, tmp_path):
        # One error-free count beside 10**18 errors per record: the sift
        # table's total is ~1e-18, and normalizing it is exact.
        path = tmp_path / "tiny.csv"
        path.write_text(
            "D,DA,0.1,1000000000000000000,0,0,1\n"
            "A,DA,0.1,0,1,1000000000000000000,0\n"
        )
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert (code, err) == (0, "")
        _, groups_table = parse_csv(out)
        assert groups_table[1] == [["DA", "0.1", "1", "1"]]

    def test_one_stacked_pass_per_command(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "bulk.csv"
        pes = ",".join(str(k / 100) for k in range(25))
        assert main(
            ["simulate", "--params", EXAMPLE_PARAMS, "--pe", pes, "--pairs", "1000",
             "--out", str(path)]
        ) == 0
        calls = {
            name: count_calls(monkeypatch, module, name)
            for module, name in (
                (fpbsim.probe, "renyi_information"),
                (fpbsim.probe, "sift_cells"),
                (fpbsim.error_model, "predict_outcome_probs"),
            )
        }
        code, out, _ = run(capsys, "estimate", "--counts", str(path))
        assert code == 0
        _, groups_table = parse_csv(out)
        assert len(groups_table[1]) == 50
        assert len(calls["renyi_information"]) <= 1
        assert len(calls["sift_cells"]) <= 1
        assert calls["predict_outcome_probs"] == []


class TestFit:
    def test_underdetermined_data_warns_but_fits(self, capsys):
        code, out, err = run(
            capsys, "fit", "--counts", str(reference_counts_path()),
            "--max-evals", "400", "--format", "json",
        )
        assert "24 data values" in err
        payload = json.loads(out)
        assert set(payload) > set(["alpha", "residual", "converged"])
        assert code in (0, 2)

    def test_reference_fit_holds_unconstrained_angles(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "fit", "--counts", str(reference_counts_path()),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        held = ["d_theta_a_h", "d_theta_a_v", "d_theta_b_hv"]
        assert payload["held"] == held
        assert payload["termination"] in ("ftol", "xtol", "gtol")
        assert all(payload[key] == 0.0 for key in held)
        assert "no record constrains d_theta_a_h, d_theta_a_v, d_theta_b_hv" in err
        init = tmp_path / "fit.json"
        init.write_text(out)
        code, out, _ = run(
            capsys, "fit", "--counts", str(reference_counts_path()),
            "--init", str(init), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["residual"] <= payload["residual"]

    def test_nonconvergence_exit_code(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "simulate", "--pairs", "5000", "--seed", "5", "--out", str(sim)
        )
        assert code == 0
        code, out, err = run(
            capsys, "fit", "--counts", str(sim), "--max-evals", "40"
        )
        assert code == 2
        assert "did not converge" in err
        assert "converged,false\ntermination,budget\n" in out

    def test_single_pe_rejected(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "simulate", "--pairs", "1000", "--seed", "5", "--pe", "0.1",
            "--out", str(sim),
        )
        assert code == 0
        code, _, err = run(capsys, "fit", "--counts", str(sim))
        assert code == 1
        assert "distinct error probabilities" in err

    def test_init_file_accepted(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        run(capsys, "simulate", "--pairs", "2000", "--seed", "6", "--out", str(sim))
        init = reference_counts_path().parent / "example_params.json"
        code, out, _ = run(
            capsys, "fit", "--counts", str(sim), "--init", str(init),
            "--max-evals", "60", "--format", "json",
        )
        assert code in (0, 2)
        assert "evaluations" in json.loads(out)

    def test_non_utf8_counts_file(self, capsys, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe" + "D,DA,0.1,1,2,3,4\n".encode("utf-16-le"))
        code, _, err = run(capsys, "fit", "--counts", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: not UTF-8 text")

    def test_bad_init_file(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        run(capsys, "simulate", "--pairs", "1000", "--seed", "6", "--out", str(sim))
        init = tmp_path / "init.json"
        init.write_text('{"alpha": 5.0}')
        code, _, err = run(capsys, "fit", "--counts", str(sim), "--init", str(init))
        assert code == 1
        assert "missing keys" in err


class TestParsing:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "curve", "--bogus")
        assert code == 1
        assert "error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert "error" in err

    def test_fraction_pe_tokens(self, capsys):
        code, out, _ = run(capsys, "table", "--pe", "1/3", "--states", "A")
        assert code == 0
        (_, rows), = parse_csv(out)
        assert math.isclose(float(rows[0][1]), 1 / 3, rel_tol=1e-4)
        np.testing.assert_allclose(
            [float(v) for v in rows[0][2:]], IDEAL_EXPECTED[("A", 1 / 3)], atol=5e-4
        )


@pytest.mark.parametrize(
    "argv, table",
    [
        (["curve", "--steps", "5", "--params", EXAMPLE_PARAMS], None),
        (["table", "--states", "H,V,D,A", "--params", EXAMPLE_PARAMS], None),
        (["estimate", "--counts", str(reference_counts_path())], "records"),
        (["estimate", "--counts", str(reference_counts_path())], "groups"),
    ],
)
def test_json_agrees_with_csv(capsys, argv, table):
    code, csv_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    csv_tables = dict(zip(("records", "groups"), parse_csv(csv_out)))
    columns, rows = csv_tables[table or "records"]
    payload = json.loads(json_out)
    objects = payload[table] if table else payload
    assert len(objects) == len(rows) > 0
    for obj, row in zip(objects, rows):
        assert list(obj) == columns
        for value, cell in zip(obj.values(), row):
            assert value == (cell if isinstance(value, str) else float(cell))


@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 2**64 - 1),
    pes=st.lists(
        st.sampled_from(["0", "0.05", "0.1", "0.2", "1/4", "1/3"]),
        min_size=2, max_size=3, unique=True,
    ),
)
def test_simulate_estimate_fit_round_trip(tmp_path_factory, seed, pes):
    work = tmp_path_factory.mktemp("round_trip")
    counts, estimate, fitted = (work / n for n in ("sim.csv", "est.csv", "fit.json"))
    assert main([
        "simulate", "--params", EXAMPLE_PARAMS, "--pairs", "20000",
        "--seed", str(seed), "--pe", ",".join(pes), "--out", str(counts),
    ]) == 0
    assert main(["estimate", "--counts", str(counts), "--out", str(estimate)]) == 0
    records = read_counts_file(counts)
    (_, rows), _ = parse_csv(estimate.read_text())
    assert len(rows) == len(records) == 8 * len(pes)
    for record, row in zip(records, rows):
        assert row[3:] == [f"{c / record.total:.6g}" for c in record.counts]
    code = main([
        "fit", "--counts", str(counts), "--format", "json", "--out", str(fitted),
    ])
    assert code in (0, 2)
    assert main(["table", "--params", str(fitted), "--out", str(work / "t.csv")]) == 0


def test_no_command_imports_scipy(tmp_path):
    script = (
        "import json, sys\n"
        "from fpbsim.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print('scipy' in sys.modules)\n"
    )
    counts = str(tmp_path / "sim.csv")
    commands = [
        ["curve", "--steps", "2"],
        ["table"],
        ["simulate", "--pairs", "100", "--out", counts],
        ["estimate", "--counts", counts],
        ["fit", "--counts", str(reference_counts_path())],
    ]
    src = str(Path(fpbsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False"
