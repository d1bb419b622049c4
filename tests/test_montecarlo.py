import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpbsim import (
    Bb84State,
    CountsFileError,
    CountsRecord,
    ErrorModelParams,
    ProbeConfig,
    SiftBasis,
    estimate_probabilities,
    load_reference_counts,
    measured_renyi,
    noise_free_counts,
    predict_outcome_probs,
    read_counts_file,
    reference_counts_path,
    renyi_closed_form,
    sifted_error_rate,
    simulate_counts,
    write_counts_file,
)
from fpbsim.montecarlo import counts_file_text, parse_counts


#: One counts-file field: valid tokens, near misses and arbitrary text.
ANY_FIELD = st.one_of(
    st.sampled_from(
        ["H", "V", "D", "A", "HV", "DA", "0", "0.1", "1/3", "-1", "nan", "inf",
         "1e999", "True", "#", " "]
    ),
    st.integers(-(10**30), 10**30).map(str),
    st.floats().map(repr),
    st.text(max_size=8),
)
#: The seven fields of a well-formed counts line.
VALID_FIELDS = (
    st.sampled_from("HVDA"),
    st.sampled_from(["HV", "DA"]),
    st.floats(0.0, 0.5).map(repr),
    *[st.integers(0, 10**9).map(str)] * 4,
)
#: A well-formed counts line, with or without a duration.
VALID_LINE = st.one_of(
    st.tuples(*VALID_FIELDS),
    st.tuples(*VALID_FIELDS, st.floats(0.0, 1e6).map(repr)),
).map(",".join)
#: Well-formed lines, lines of six to nine arbitrary fields, and any text.
ANY_LINE = st.one_of(
    VALID_LINE, st.lists(ANY_FIELD, min_size=6, max_size=9).map(",".join), st.text()
)


def ideal_probs(state, basis, pe) -> np.ndarray:
    return predict_outcome_probs(ErrorModelParams(), state, basis, ProbeConfig(pe))


def sift_pair(pe, n_pairs, seeds=(101, 202)) -> list[CountsRecord]:
    return [
        CountsRecord(
            state,
            SiftBasis.DA,
            pe,
            simulate_counts(ideal_probs(state, SiftBasis.DA, pe), n_pairs, seed),
        )
        for state, seed in zip(SiftBasis.DA.states, seeds)
    ]


def noise_free_pair(pe, n_pairs) -> list[CountsRecord]:
    return [
        CountsRecord(
            state,
            SiftBasis.DA,
            pe,
            noise_free_counts(ideal_probs(state, SiftBasis.DA, pe), n_pairs),
        )
        for state in SiftBasis.DA.states
    ]


class TestSimulateCounts:
    def test_degenerate_distribution(self):
        counts = simulate_counts([1.0, 0.0, 0.0, 0.0], 1000, 1)
        assert counts == (1000, 0, 0, 0)

    def test_counts_sum_to_n(self):
        probs = ideal_probs(Bb84State.D, SiftBasis.DA, 0.1)
        assert sum(simulate_counts(probs, 49_316, 7)) == 49_316

    def test_deterministic_given_seed(self):
        probs = ideal_probs(Bb84State.A, SiftBasis.DA, 0.1)
        assert simulate_counts(probs, 50_000, 123) == simulate_counts(
            probs, 50_000, 123
        )
        assert simulate_counts(probs, 50_000, 123) != simulate_counts(
            probs, 50_000, 124
        )

    def test_uniform_within_three_sigma(self):
        counts = simulate_counts([0.25] * 4, 40_000, 2024)
        sigma = math.sqrt(40_000 * 0.25 * 0.75)
        for c in counts:
            assert abs(c - 10_000) <= 3 * sigma

    def test_reference_row_scale_within_three_sigma(self):
        n = 49_316
        probs = ideal_probs(Bb84State.D, SiftBasis.DA, 0.1)
        counts = simulate_counts(probs, n, 99)
        for c, p in zip(counts, probs):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(c - n * p) <= 3 * sigma

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n_pairs"):
            simulate_counts([0.25] * 4, 0, 1)
        with pytest.raises(ValueError, match="n_pairs"):
            simulate_counts([0.25] * 4, 2**63, 1)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="4 outcome probabilities"):
            simulate_counts([0.5, 0.25, 0.25], 100, 1)
        with pytest.raises(ValueError, match="4 outcome probabilities"):
            simulate_counts(np.full((2, 2), 0.25), 100, 1)
        # numpy's multinomial rejects NaN and negative entries.
        with pytest.raises(ValueError):
            simulate_counts([float("nan"), 0.5, 0.25, 0.25], 100, 1)
        with pytest.raises(ValueError):
            simulate_counts([-0.1, 0.6, 0.25, 0.25], 100, 1)


class TestNoiseFreeCounts:
    def test_total_is_exact(self):
        probs = ideal_probs(Bb84State.D, SiftBasis.DA, 0.1)
        for n in (7, 1001, 49_316, 50_001):
            assert sum(noise_free_counts(probs, n)) == n

    def test_rounding_rule(self):
        # 0.125 * 4 = 0.5 rounds to 0 (half to even); the largest cell
        # absorbs the remainder.
        counts = noise_free_counts([0.125, 0.125, 0.125, 0.625], 4)
        assert counts == (0, 0, 0, 4)

    def test_matches_product_when_exact(self):
        counts = noise_free_counts([0.5, 0.25, 0.125, 0.125], 8)
        assert counts == (4, 2, 1, 1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n_pairs"):
            noise_free_counts([0.25] * 4, 0)
        for probs in (
            [0.5, 0.25, 0.25],
            [float("nan"), 0.5, 0.25, 0.25],
            [-0.1, 0.6, 0.25, 0.25],
        ):
            with pytest.raises(ValueError, match="outcome probabilities"):
                noise_free_counts(probs, 100)


class TestEstimateProbabilities:
    def test_uniform(self):
        record = CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (1, 1, 1, 1))
        np.testing.assert_array_equal(estimate_probabilities(record), 0.25)

    def test_reference_rows(self, measured_estimated):
        for record in load_reference_counts():
            want = measured_estimated[(record.alice.value, record.pe_nominal)]
            np.testing.assert_allclose(
                estimate_probabilities(record), want, atol=5e-4
            )

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (0, 0, 0, 0))

    def test_round_trip_statistics(self):
        # Estimated probabilities track the generator within 4 standard
        # deviations at the tested seeds.
        rng_seeds = np.random.SeedSequence(77).generate_state(8, np.uint64)
        seeds = iter(int(s) for s in rng_seeds)
        for state in (Bb84State.D, Bb84State.A):
            for pe in (0.05, 0.1, 0.25, 1 / 3):
                probs = ideal_probs(state, SiftBasis.DA, pe)
                n = 10_000
                counts = simulate_counts(probs, n, next(seeds))
                record = CountsRecord(state, SiftBasis.DA, pe, counts)
                estimate = estimate_probabilities(record)
                bound = 4 * np.sqrt(probs * (1 - probs) / n)
                assert np.all(np.abs(estimate - probs) <= bound)


class TestSiftedErrorRate:
    def test_reference_counts_at_zero(self):
        records = [r for r in load_reference_counts() if r.pe_nominal == 0.0]
        got = sifted_error_rate(records)
        # Equal-weight mean of the two per-record error fractions.
        want = ((1356 + 1836) / 49_956 + (1140 + 1112) / 48_304) / 2
        assert abs(got - want) < 1e-12
        assert 0.04 < got < 0.07

    def test_ideal_counts_at_zero(self):
        assert sifted_error_rate(noise_free_pair(0.0, 40_000)) == 0.0

    def test_ideal_counts_at_one_third(self):
        n = 50_000
        got = sifted_error_rate(sift_pair(1 / 3, n))
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(got - 1 / 3) <= 3 * sigma

    def test_requires_matching_pair(self):
        records = [r for r in load_reference_counts() if r.pe_nominal == 0.0]
        with pytest.raises(ValueError, match="cover both"):
            sifted_error_rate(records[:1])
        mixed = [r for r in load_reference_counts() if r.alice is Bb84State.D]
        with pytest.raises(ValueError, match="share one basis"):
            sifted_error_rate(mixed)
        d, a = records
        with pytest.raises(ValueError, match="cover both input states"):
            sifted_error_rate([d, a, d])


class TestMeasuredRenyi:
    def test_perfect_correlation_noise_free(self):
        assert abs(measured_renyi(noise_free_pair(1 / 3, 48_000)) - 1.0) < 1e-12

    def test_seeded_counts_near_closed_form(self):
        got = measured_renyi(sift_pair(0.1, 50_000))
        assert abs(got - 0.480) < 0.02

    def test_reference_counts_at_zero_small_but_positive(self):
        records = [r for r in load_reference_counts() if r.pe_nominal == 0.0]
        got = measured_renyi(records)
        assert 0.0 < got < 0.01

    def test_noise_free_matches_model(self):
        for pe in (0.05, 0.1, 0.2, 1 / 3):
            got = measured_renyi(noise_free_pair(pe, 100_000))
            assert abs(got - renyi_closed_form(pe)) < 2e-3

    def test_scaling_a_record_changes_nothing(self):
        records = [r for r in load_reference_counts() if r.pe_nominal == 0.1]
        scaled = [
            CountsRecord(
                records[0].alice,
                records[0].bob_basis,
                records[0].pe_nominal,
                tuple(7 * c for c in records[0].counts),
            ),
            records[1],
        ]
        assert measured_renyi(records) == measured_renyi(scaled)

    def test_rejects_missing_or_empty_pairs(self):
        d, a = (r for r in load_reference_counts() if r.pe_nominal == 0.1)
        with pytest.raises(ValueError, match="cover both"):
            measured_renyi([d, d])
        empty = [
            CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (5, 5, 0, 0)),
            CountsRecord(Bb84State.A, SiftBasis.DA, 0.1, (0, 0, 5, 5)),
        ]
        # Every error-free cell is zero for these records.
        with pytest.raises(ValueError, match="error-free"):
            measured_renyi(empty)
        with pytest.raises(ValueError, match="cover both input states"):
            measured_renyi([d, a, d])


class TestCountsFiles:
    def test_round_trip(self, tmp_path):
        records = [
            CountsRecord(Bb84State.H, SiftBasis.HV, 1 / 3, (1, 2, 3, 4), 40.0),
            CountsRecord(Bb84State.A, SiftBasis.DA, 0.1, (10, 0, 0, 7)),
        ]
        path = tmp_path / "counts.csv"
        write_counts_file(path, records)
        assert read_counts_file(path) == records

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("# header\n\nD,DA,0.1,1,2,3,4\n")
        records = read_counts_file(path)
        assert len(records) == 1
        assert records[0].counts == (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("D,DA,0.1,1,2,3", "7 or 8"),
            ("X,DA,0.1,1,2,3,4", "'X'"),
            ("D,XY,0.1,1,2,3,4", "'XY'"),
            ("D,DA,0.9,1,2,3,4", "0.5"),
            ("D,DA,0.1,1,-2,3,4", "nonnegative"),
            ("D,DA,0.1,1,2.5,3,4", "2.5"),
            ("D,DA,0.1,1,2,3,4,-5", "duration"),
            ("D,DA,0.1,1,2,3,4,nan", "duration"),
            ("D,DA,0.1,1,2,3,4,inf", "duration"),
            ("D,DA,0.1,0,0,0,0", "zero total"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, line, match):
        path = tmp_path / "bad.csv"
        path.write_text("# comment\nD,DA,0.1,1,2,3,4\n" + line + "\n")
        with pytest.raises(CountsFileError, match=match) as excinfo:
            read_counts_file(path)
        assert ":3:" in str(excinfo.value)

    @settings(derandomize=True, deadline=None)
    @given(lines=st.lists(ANY_LINE, max_size=6))
    def test_parser_returns_records_or_counts_file_error(self, lines):
        try:
            records = parse_counts("\n".join(lines).splitlines())
        except CountsFileError:
            return
        assert all(isinstance(record, CountsRecord) for record in records)
        assert parse_counts(counts_file_text(records).splitlines()) == records

    def test_reference_file_contents(self):
        records = load_reference_counts()
        assert len(records) == 6
        assert {r.pe_nominal for r in records} == {0.0, 0.1, 0.33}
        assert all(r.bob_basis is SiftBasis.DA for r in records)
        assert all(r.duration_s == 40.0 for r in records)
        totals = {(r.alice.value, r.pe_nominal): r.total for r in records}
        assert totals[("D", 0.1)] == 49_316
        assert totals[("A", 0.0)] == 48_304
        assert reference_counts_path().exists()


def test_counts_record_validation():
    with pytest.raises(ValueError, match="0.5"):
        CountsRecord(Bb84State.D, SiftBasis.DA, 0.7, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (1, 1, 1, -1))
    with pytest.raises(ValueError, match="4 nonnegative"):
        CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (1, 1, 1))


def test_counts_record_rejects_bool_counts_and_bad_duration():
    with pytest.raises(ValueError, match="4 nonnegative integers"):
        CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (True, False, 1, 2))
    for duration in (-5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="duration"):
            CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (1, 1, 1, 1), duration)
    assert CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (1, 1, 1, 1), 0.0).total == 4
