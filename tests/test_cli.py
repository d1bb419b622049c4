import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpbsim import (
    Bb84State,
    ErrorModelParams,
    SiftBasis,
    predict_outcome_probs,
    read_counts_file,
    reference_counts_path,
    renyi_closed_form,
)
import fpbsim
from fpbsim.cli import MAX_STEPS, _emit_tables, _fmt, _jsonable, main
from fpbsim.montecarlo import MAX_PAIRS, counts_file_text, parse_counts

from conftest import (
    CountsRecord,
    IDEAL_EXPECTED,
    MEASURED_ESTIMATED,
    columns_from_records,
    draw_counts,
    noise_free_counts,
    renyi_information_oracle,
    sift_cells_oracle,
)

EXAMPLE_PARAMS = str(reference_counts_path().parent / "example_params.json")

#: Floats at the edges of [0, 0.5]: signed zeros, the smallest subnormals,
#: 0.5 and its neighbours, NaN and the infinities.
EDGE_PES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.nextafter(0.5, 0.0), 0.5,
     math.nextafter(0.5, 1.0), float("nan"), float("inf"), float("-inf")]
)


def example_with_d_chi(value: str) -> str:
    """The example parameter file's text with ``value`` as d_chi's JSON."""
    doc = json.loads(Path(EXAMPLE_PARAMS).read_text())
    return json.dumps({**doc, "d_chi": "VALUE"}).replace('"VALUE"', value)


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

    def test_stacked_grid_equals_per_point_oracles(self, capsys):
        doc = json.loads(Path(EXAMPLE_PARAMS).read_text())
        params = ErrorModelParams.from_dict(doc)
        columns = ("pe", "renyi_hv", "renyi_da", "renyi_ideal")
        rows = []
        for pe in np.linspace(0.0, 1 / 3, 200).tolist():
            renyi = []
            for basis in SiftBasis:
                table, _ = sift_cells_oracle(
                    [predict_outcome_probs(params, s, basis, pe) for s in basis.states]
                )
                renyi.append(renyi_information_oracle(table))
            rows.append([_fmt(value) for value in (pe, *renyi, renyi_closed_form(pe))])
        argv = ("curve", "--params", EXAMPLE_PARAMS, "--steps", "200")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "".join(",".join(row) + "\n" for row in [columns, *rows])
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = [dict(zip(columns, map(float, row))) for row in rows]
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("params", [None, EXAMPLE_PARAMS], ids=["ideal", "example"])
    def test_one_stacked_pass_per_command(self, capsys, monkeypatch, params):
        calls = [
            count_calls(monkeypatch, fpbsim.error_model, name)
            for name in ("sift_cells", "renyi_information")
        ]
        argv = ["curve", "--steps", "100"] + (["--params", params] if params else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(parse_csv(out)[0][1]) == 100
        assert [len(made) for made in calls] == [1, 1]

    @pytest.mark.parametrize(
        "args",
        [
            ("curve", "--steps", "0"),
            ("curve", "--pe-max", "0.6"),
            ("curve", "--pe-min", "0.2", "--pe-max", "0.1"),
            ("curve", "--pe-min", "oops"),
            ("curve", "--ideal"),
            ("simulate", "--pairs", str(2**63)),
            ("curve", "--steps", str(MAX_STEPS + 1)),
            ("curve", "--steps", str(2**63 - 1)),
            ("simulate", "--pairs", "0"),
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

    @pytest.mark.parametrize(
        "text, message",
        [
            (example_with_d_chi("1" + "0" * 400),
             "parameter d_chi: int too large to convert to float"),
            (example_with_d_chi("true"), "parameter d_chi: a boolean is not an angle"),
            (example_with_d_chi('"3"'), "parameter d_chi: '3' is not a number"),
            ("[1, 2]", "parameter document must be a JSON object"),
            (json.dumps(" ".join(json.loads(Path(EXAMPLE_PARAMS).read_text()))),
             "parameter document must be a JSON object"),
            # The interpreter's recursion message differs between versions.
            ("[" * 100_000 + "]" * 100_000, None),
        ],
        ids=[
            "oversized", "bool", "string", "list-document", "string-document",
            "deeply-nested",
        ],
    )
    def test_unconvertible_parameter_rejected(self, capsys, tmp_path, text, message):
        path = tmp_path / "params.json"
        path.write_text(text)
        for argv in (
            ("table", "--params", str(path)),
            ("fit", "--counts", str(reference_counts_path()), "--init", str(path)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: bad parameter file {path}: ")
            assert err.count("\n") == 1 and "Traceback" not in err
            if message is not None:
                assert err == f"error: bad parameter file {path}: {message}\n"

    def test_missing_params_file(self, capsys, tmp_path):
        path = tmp_path / "none.json"
        code, _, err = run(capsys, "table", "--params", str(path))
        assert code == 1
        assert err.startswith(f"error: cannot read parameter file {path}: ")
        assert err.count("\n") == 1

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

    def test_rows_are_seeded_multinomial_draws(self, capsys, tmp_path):
        # Row k, in (state, basis, pe) nesting order, is one multinomial
        # draw of --pairs events over the model's row renormalized, seeded
        # with the k-th 64-bit word of the --seed SeedSequence.
        path = tmp_path / "sim.csv"
        seed = 2**64 - 1
        code, _, _ = run(
            capsys, "simulate", "--params", EXAMPLE_PARAMS, "--states", "V,D",
            "--pe", "0,0.2,0.5", "--pairs", "123457", "--seed", str(seed),
            "--out", str(path),
        )
        assert code == 0
        params = ErrorModelParams.from_dict(json.loads(Path(EXAMPLE_PARAMS).read_text()))
        configs = [
            (state, basis, pe)
            for state in (Bb84State.V, Bb84State.D)
            for basis in SiftBasis
            for pe in (0.0, 0.2, 0.5)
        ]
        seeds = np.random.SeedSequence(seed).generate_state(len(configs), np.uint64)
        want = [
            list(draw_counts(predict_outcome_probs(params, *config), 123457, k))
            for config, k in zip(configs, seeds.tolist())
        ]
        assert read_counts_file(path).counts.tolist() == want

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, capsys, seed):
        code, out, err = run(capsys, "simulate", f"--seed={seed}")
        assert (code, out) == (1, "")
        assert err == "error: --seed must be an unsigned 64-bit integer\n"

    def test_layout_and_error_free_cells(self, capsys, tmp_path):
        path = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "simulate", "--pairs", "40000", "--seed", "3",
            "--out", str(path),
        )
        assert code == 0
        counts = read_counts_file(path)
        # One record per state x basis x pe combination.
        assert len(counts.pe) == 4 * 2 * 3
        for state, basis, pe, row in zip(
            counts.state.tolist(), counts.basis.tolist(), counts.pe.tolist(),
            counts.counts.tolist(),
        ):
            alice = tuple(Bb84State)[state]
            assert sum(row) == 40000
            if pe == 0.0 and alice.basis is tuple(SiftBasis)[basis]:
                wrong = [
                    c
                    for c, (b, _) in zip(row, ((1, 0), (1, 1), (0, 1), (0, 0)))
                    if b != alice.bit
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
                ErrorModelParams(), Bb84State(alice), SiftBasis(basis), pe
            )
            np.testing.assert_allclose(estimated, model, atol=0.005)

    def test_max_pairs_round_trip(self, capsys, monkeypatch, tmp_path):
        # At the largest --pairs every row sums to 2**63 - 1 exactly: in the
        # int64 columns simulate writes from, and in the file. Four counts
        # of that sum include one of 19 digits, and the reader still reads
        # them as int64, since every row total fits in one.
        written = []
        write = fpbsim.montecarlo.counts_file_text
        monkeypatch.setattr(
            fpbsim.montecarlo, "counts_file_text",
            lambda counts: written.append(counts) or write(counts),
        )
        path = tmp_path / "max.csv"
        code, _, err = run(
            capsys, "simulate", "--pairs", str(MAX_PAIRS), "--states", "D,A",
            "--pe", "0.1", "--seed", "1", "--out", str(path),
        )
        assert (code, err) == (0, "")
        (built,) = written
        assert built.counts.dtype == np.int64
        assert built.counts.sum(axis=1).tolist() == [MAX_PAIRS] * 4
        assert built.totals.tolist() == [float(MAX_PAIRS)] * 4
        counts = read_counts_file(path)
        assert counts.counts.dtype == np.int64
        assert len(counts.pe) == 4
        assert counts.counts.sum(axis=1).tolist() == [MAX_PAIRS] * 4
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert (code, err) == (0, "")


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
                ErrorModelParams(), state, SiftBasis.DA, 0.1
            )
            records.append(
                CountsRecord(
                    state, SiftBasis.DA, 0.1, noise_free_counts(probs, 1_000_000)
                )
            )
        path = tmp_path / "ideal.csv"
        path.write_text(counts_file_text(columns_from_records(records)))
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

    def test_oversized_count(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("D,DA,0.1,1" + "0" * 400 + ",0,0,0\n")
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path}:1: record total counts exceed 2**63 - 1\n"
        )

    def test_count_past_the_int_digit_limit(self, capsys, tmp_path):
        # int() refuses a string of more than 4300 digits; the count's
        # line is named with its record's first failed rule, the total's.
        path = tmp_path / "huge.csv"
        path.write_text("# huge\nD,DA,0.1," + "1" * 5001 + ",0,0,0\n")
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path}:2: record total counts exceed 2**63 - 1\n"
        )

    def test_comment_only_file(self, capsys, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text("# alice,basis,pe_nominal\n\n# nothing else\n")
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: counts file {path} contains no records\n"

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

    def test_csv_lists_held_angles_last(self, capsys):
        code, out, _ = run(capsys, "fit", "--counts", str(reference_counts_path()))
        assert code == 0
        lines = out.splitlines()
        assert lines[-2].startswith("termination,")
        assert lines[-1] == "held,d_theta_a_h;d_theta_a_v;d_theta_b_hv"

    def test_empty_counts_file_only_errors(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# no records\n")
        code, out, err = run(capsys, "fit", "--counts", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: need at least 10 data values to fit 10 parameters, got 0\n"
        )

    def test_nonconvergence_exit_code(self, capsys, tmp_path):
        sim = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "simulate", "--pairs", "5000", "--seed", "5", "--out", str(sim)
        )
        assert code == 0
        code, out, err = run(
            capsys, "fit", "--counts", str(sim), "--max-evals", "10"
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
    def test_usage_error_leaves_parser_as_fresh(self, capsys, monkeypatch):
        argv = ["table", "--params", EXAMPLE_PARAMS, "--states", "H,V,D,A"]
        src = str(Path(fpbsim.__file__).resolve().parent.parent)
        fresh = subprocess.run(
            [sys.executable, "-m", "fpbsim.cli", *argv], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        builds = count_calls(monkeypatch, fpbsim.cli, "build_parser")
        assert run(capsys, "table", "--states", "H,X")[0] == 1
        assert run(capsys, "table", "--bogus")[0] == 1
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert len(builds) <= 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "curve", "--bogus")
        assert code == 1
        assert "error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("table", "--pe", "0.1_0,\u0660.\u0662"), "bad error probability '0.1_0'"),
            (
                ("table", "--pe", "0.1,\u0660.\u0662"),
                "bad error probability '\u0660.\u0662'",
            ),
            (("table", "--pe", "1/\u0663"), "bad error probability '1/\u0663'"),
            (("table", "--pe", "\u20030.1"), "bad error probability '\\u20030.1'"),
            (("curve", "--pe-min", "0_0"), "bad error probability '0_0'"),
            (("curve", "--pe-max", "0.2\u00a0"), "bad error probability '0.2\\xa0'"),
            (("table", "--states", "D,\u2003A"), "unknown input state '\\u2003A'"),
            (("table", "--pe", ","), "empty error-probability list"),
            (("table", "--states", " , "), "empty state list"),
        ],
        ids=[
            "underscore", "arabic-indic", "arabic-indic-fraction", "em-space-pe",
            "underscore-pe-min", "no-break-space-pe-max", "em-space-state",
            "empty-pe-list", "blank-state-list",
        ],
    )
    def test_pe_and_state_tokens_are_ascii(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--steps", "\u0663"),
            ("simulate", "--pairs", "1_0"),
            ("simulate", "--seed", "\u0667"),
            ("fit", "--counts", str(reference_counts_path()), "--max-evals", "4_0"),
            ("curve", "--steps", "abc"),
        ],
        ids=["steps", "pairs", "seed", "max-evals", "not-a-number"],
    )
    def test_integer_flags_are_ascii(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        flag, token = argv[-2:]
        assert err == (
            f"error: fpbsim {argv[0]}: argument {flag}: invalid int value: "
            f"{token!r}\n"
        )

    def test_fraction_pe_tokens(self, capsys):
        code, out, _ = run(capsys, "table", "--pe", "1/3", "--states", "A")
        assert code == 0
        (_, rows), = parse_csv(out)
        assert math.isclose(float(rows[0][1]), 1 / 3, rel_tol=1e-4)
        np.testing.assert_allclose(
            [float(v) for v in rows[0][2:]], IDEAL_EXPECTED[("A", 1 / 3)], atol=5e-4
        )

    @pytest.mark.parametrize(
        "lines",
        [
            ["A,DA,0,4,3,2,1", "D,DA,-0.0,1,2,3,4"],
            ["D,DA,-0.0,1,2,3,4", "A,DA,0,4,3,2,1"],
        ],
        ids=["zero-first", "negative-zero-first"],
    )
    def test_negative_zero_pe_in_counts_reads_as_zero(self, capsys, tmp_path, lines):
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "estimate", "--counts", str(path))
        assert (code, err) == (0, "")
        (_, records), (_, groups) = parse_csv(out)
        assert [row[2] for row in records] == ["0", "0"]
        assert [row[:2] for row in groups] == [["DA", "0"]]

    def test_negative_zero_pe_flag_reads_as_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--pe", "-0")
        assert code == 0
        (_, rows), = parse_csv(out)
        assert [row[:2] for row in rows] == [["D", "0"], ["A", "0"]]
        code, out, _ = run(capsys, "simulate", "--pe=-0", "--pairs", "10")
        assert code == 0
        assert {line.split(",")[2] for line in out.splitlines()[1:]} == {"0.0"}

    @settings(derandomize=True, deadline=None)
    @given(pe=st.one_of(EDGE_PES, st.floats()))
    def test_every_pe_entry_point_accepts_the_same_set(self, pe):
        def table_pe() -> float:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["table", f"--pe={pe!r}", "--states", "D"])
            if code:
                raise ValueError(err.getvalue())
            (_, rows), = parse_csv(out.getvalue())
            return float(rows[0][1])

        def predicted(pe) -> np.ndarray:
            return predict_outcome_probs(
                ErrorModelParams(), Bb84State.D, SiftBasis.DA, pe
            )

        entry_points = {
            "predict_outcome_probs": lambda: predicted(pe),
            "counts line": lambda: parse_counts([f"D,DA,{pe!r},1,2,3,4"]).pe.item(0),
            "table --pe": table_pe,
            "renyi_closed_form": lambda: renyi_closed_form(pe),
        }
        want_accepted = 0.0 <= pe <= 0.5
        for name, entry_point in entry_points.items():
            try:
                value = entry_point()
            except ValueError as exc:
                assert not want_accepted, name
                if name == "predict_outcome_probs":
                    assert str(exc) == (
                        f"error probability must be in [0, 0.5], got {pe}"
                    )
                continue
            assert want_accepted, name
            if name == "predict_outcome_probs":
                if pe == 0.0:  # -0.0 predicts the bytes of +0.0
                    assert value.tobytes() == predicted(0.0).tobytes()
            elif pe == 0.0:  # either zero comes back as +0.0
                assert math.copysign(1.0, value) == 1.0, name


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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("curve.csv", ["curve"]),
        ("curve_example.json", ["curve", "--format", "json", "--params", EXAMPLE_PARAMS]),
        ("table_example.csv", ["table", "--params", EXAMPLE_PARAMS, "--states", "H,V,D,A"]),
        ("simulate_example_seed42.csv",
         ["simulate", "--params", EXAMPLE_PARAMS, "--seed", "42"]),
        ("estimate_reference.csv", ["estimate", "--counts", str(reference_counts_path())]),
        ("estimate_reference.json",
         ["estimate", "--counts", str(reference_counts_path()), "--format", "json"]),
        # 25 pe values of seeded simulate output, shuffled, one record
        # removed and one duplicated, a few with a duration.
        ("estimate_seed7_edited.csv",
         ["estimate", "--counts", str(GOLDEN / "counts_seed7_edited.csv")]),
        ("estimate_seed7_edited.json",
         ["estimate", "--counts", str(GOLDEN / "counts_seed7_edited.csv"),
          "--format", "json"]),
        # Fits, whose JSON carries every angle to 6 significant digits.
        ("fit_reference.json",
         ["fit", "--counts", str(reference_counts_path()), "--format", "json"]),
        ("fit_example_seed42.json",
         ["fit", "--counts", str(GOLDEN / "simulate_example_seed42.csv"),
          "--format", "json"]),
        ("fit_example_seed42_counts.json",
         ["fit", "--counts", str(GOLDEN / "simulate_example_seed42.csv"),
          "--format", "json", "--weighting", "counts"]),
        # From the example parameters: no forward-difference column.
        ("fit_example_seed42_init.json",
         ["fit", "--counts", str(GOLDEN / "simulate_example_seed42.csv"),
          "--format", "json", "--init", EXAMPLE_PARAMS]),
        # Records of 20 000 and 80 000 pairs, so the counts weights are
        # unequal and this fit differs from the equal-weight one.
        ("fit_unequal_totals_counts.json",
         ["fit", "--counts", str(GOLDEN / "counts_unequal_totals.csv"),
          "--format", "json", "--weighting", "counts"]),
    ],
)
def test_stdout_matches_golden_file(capsys, name, argv):
    """The files under tests/golden hold these commands' stdout, byte for
    byte, and their stderr where a ``.stderr`` file of the same stem exists."""
    code, out, err = run(capsys, *argv)
    stderr = GOLDEN / f"{Path(name).stem}.stderr"
    assert code == 0
    assert err == (stderr.read_text(encoding="utf-8") if stderr.exists() else "")
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


#: Table cells the JSON encoder escapes: quotes, backslashes, control and
#: non-ASCII characters, and '%', which the row templates must not read.
TEXT_CELLS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\u2028", "\u00e9", "\U0001f600", "%", "%s"]),
)
#: Floats, those json.dumps spells specially, and values near the edges
#: where "%.6g" turns to an integer or an exponent.
FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324, 1.0,
         0.9999995, 1e-4, 1e-5, 99999.95, 999999.4, 999999.5, 1e15, 1e16]
    ),
    st.tuples(
        st.integers(-(10**7), 10**7), st.sampled_from([0.0, 4e-6, -4.9e-6, 5e-6, 6e-6, 1e-5])
    ).map(lambda t: t[0] * (1.0 + t[1])),
)


@st.composite
def table_sets(draw) -> dict:
    """One to three named tables of up to four rows, as (names, columns,
    row count), each column a list or tuple of all strings or all floats.
    Tables may have no columns or no rows, and a string column may repeat
    one or two spellings throughout."""
    tables = {}
    for name in draw(st.lists(TEXT_CELLS, min_size=1, max_size=3, unique=True)):
        names = draw(st.lists(TEXT_CELLS, max_size=4, unique=True))
        rows = draw(st.integers(0, 4))
        columns = []
        for _ in names:
            spellings = st.sampled_from(draw(st.lists(TEXT_CELLS, min_size=1, max_size=2)))
            kind = draw(st.sampled_from([TEXT_CELLS, spellings, FLOAT_CELLS]))
            column = draw(st.lists(kind, min_size=rows, max_size=rows))
            columns.append(draw(st.sampled_from([list, tuple]))(column))
        tables[name] = (names, columns, rows)
    return tables


def emitted(tables: dict, fmt: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _emit_tables(argparse.Namespace(format=fmt, out=None), tables)
    return out.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tables=table_sets())
def test_table_writer_matches_json_dumps_and_csv_join(tables):
    def cells(row, fmt):
        return [value if isinstance(value, str) else fmt(value) for value in row]

    row_lists = {
        name: (names, [[column[k] for column in columns] for k in range(rows)])
        for name, (names, columns, rows) in tables.items()
    }
    docs = {
        name: [dict(zip(names, cells(row, _jsonable))) for row in rows]
        for name, (names, rows) in row_lists.items()
    }
    payload = docs if len(docs) > 1 else next(iter(docs.values()))
    assert emitted(tables, "json") == json.dumps(payload, indent=2) + "\n"
    blocks = [
        "\n".join([",".join(names), *(",".join(cells(row, _fmt)) for row in rows)])
        + "\n"
        for names, rows in row_lists.values()
    ]
    assert emitted(tables, "csv") == "\n".join(blocks)


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--params", EXAMPLE_PARAMS],
        ["curve", "--steps", "200", "--pe-max", "0.5"],
        ["table", "--params", EXAMPLE_PARAMS, "--states", "H,V,D,A", "--pe", "0,1/3,0.5"],
        ["estimate", "--counts", str(reference_counts_path())],
        ["estimate", "--counts", str(GOLDEN / "counts_seed7_edited.csv")],
    ],
)
def test_json_tables_are_json_dumps_indent_2(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_columns_mixing_odd_and_plain_values(capsys, tmp_path):
    # The ideal model has zero cells at pe = 0, so the pe and p_* columns
    # mix 0.0, which "%.6g" writes as "0", with plain values. json.loads
    # reads "0" as an int, so every value must come back a float.
    path = tmp_path / "zeros.csv"
    code, _, _ = run(
        capsys, "simulate", "--pe", "0,0.1", "--seed", "3", "--pairs", "1000",
        "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "estimate", "--counts", str(path), "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    records = json.loads(out)["records"]
    for column in ("pe", "p_10", "p_11"):
        values = [record[column] for record in records]
        assert all(type(v) is float for v in values), column
        assert 0.0 in values and any(0.0 < v < 1.0 for v in values), column


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
    exact = read_counts_file(counts).counts.tolist()
    (_, rows), _ = parse_csv(estimate.read_text())
    assert len(rows) == len(exact) == 8 * len(pes)
    for cells, row in zip(exact, rows):
        assert row[3:] == [f"{c / sum(cells):.6g}" for c in cells]
    code = main([
        "fit", "--counts", str(counts), "--format", "json", "--out", str(fitted),
    ])
    assert code in (0, 2)
    assert main(["table", "--params", str(fitted), "--out", str(work / "t.csv")]) == 0


def test_public_names():
    assert sorted(fpbsim.__all__) == [
        "Bb84State", "CountsColumns", "CountsFileError",
        "ErrorModelParams", "FitResult", "OUTCOME_ORDER", "SiftBasis",
        "fit_parameters", "model_sift_summaries",
        "predict_outcome_probs", "read_counts_file", "reference_counts_path",
        "renyi_closed_form", "renyi_information",
    ]
    for name in fpbsim.__all__:
        assert hasattr(fpbsim, name), name


def test_readme_names_every_public_name():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    missing = [name for name in fpbsim.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


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
