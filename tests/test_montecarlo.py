import io
import math
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpbsim import (
    OUTCOME_ORDER,
    Bb84State,
    CountsColumns,
    CountsFileError,
    ErrorModelParams,
    SiftBasis,
    predict_outcome_probs,
    read_counts_file,
    reference_counts_path,
    renyi_closed_form,
)
from fpbsim import montecarlo
from fpbsim.cli import main
from fpbsim.montecarlo import _STATE_BASIS, counts_file_text, parse_counts

from conftest import (
    CountsRecord,
    assert_columns_equal,
    columns_from_records,
    counts_line_accepted,
    draw_counts,
    noise_free_counts,
    parse_counts_oracle,
    renyi_information_oracle,
    sift_cells_oracle,
    sift_summaries_oracle,
)

columns = columns_from_records


def oracle_totals(records) -> np.ndarray:
    """Each record's exact integer total, converted to a float once."""
    return np.array([float(r.total) for r in records])


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

#: Characters of the numeric fields in the grammar test: ASCII digits and
#: number signs, '_', ASCII and non-ASCII spaces, and Arabic-Indic digits.
NUMBER_ALPHABET = "0123456789_+-.e \t\x0b\u2003\u00a0" + "".join(
    chr(0x0660 + i) for i in range(10)
)
_ASCII_PAD = st.sampled_from(["", "", " ", "\t"])
_ANY_PAD = st.sampled_from(["", " ", "\u2003", "\u00a0"])
#: A field that replaces one numeric field of a well-formed line: any short
#: text over NUMBER_ALPHABET, or a number padded with any spaces.
JUNK_FIELD = st.one_of(
    st.text(NUMBER_ALPHABET, max_size=6),
    st.tuples(
        _ANY_PAD, st.one_of(st.integers(-9, 99).map(str), st.floats(-1, 1).map(repr)),
        _ANY_PAD,
    ).map("".join),
)

#: Numeric fields past the reader's limits: more than the 4300 digits
#: Python's int() reads, counts at and around the int64 limit, and a count
#: far past it.
LONG_FIELD = st.sampled_from(
    ["0" * 4301 + "1", str(2**62), str(2**63 - 1), str(2**63), "9" * 309]
)


@st.composite
def grammar_fields(draw) -> list[str]:
    """A well-formed line's fields, ASCII-padded, with up to two numeric
    fields replaced by JUNK_FIELD or LONG_FIELD."""
    fields = [
        draw(_ASCII_PAD) + field + draw(_ASCII_PAD)
        for field in draw(VALID_LINE).split(",")
    ]
    numeric = st.integers(2, len(fields) - 1)
    junk_fields = st.one_of(JUNK_FIELD, LONG_FIELD)
    for index, junk in draw(st.dictionaries(numeric, junk_fields, max_size=2)).items():
        fields[index] = junk
    return fields


#: A counts-file line for the oracle test: well-formed lines of 7 or 8
#: fields, lines with junk fields, counts around the int64 limit and far
#: past it, counts zero-padded past Python's 4300-digit int() limit (at most
#: a quarter of the int64 limit, so four of them read by value), a
#: 5001-digit count, comments and blanks.
ORACLE_LINE = st.one_of(
    VALID_LINE,
    VALID_LINE,
    grammar_fields().map(",".join),
    st.lists(ANY_FIELD, min_size=6, max_size=9).map(",".join),
    st.tuples(
        st.sampled_from(["D,DA,0.1", "A,DA,0.1", "H,HV,0"]),
        st.lists(
            st.one_of(
                st.integers(0, 2**64).map(str),
                st.integers(0, 10**400).map(str),
                st.tuples(st.integers(4301, 4400), st.integers(0, 2**61 - 1)).map(
                    lambda t: "0" * t[0] + str(t[1])
                ),
                st.just("9" * 5001),
            ),
            min_size=4, max_size=4,
        ),
    ).map(lambda parts: ",".join([parts[0], *parts[1]])),
    st.sampled_from(["", " ", "# alice,basis", "  # x,1,2", "#", "\t"]),
)
#: Line breaks, and characters that str.splitlines() would break at but
#: a file's lines do not.
LINE_BREAK = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])
NOT_A_BREAK = st.sampled_from(["\x0b", "\x0c", "\u2028", "\x1c", "\x85"])


@st.composite
def counts_texts(draw) -> str:
    """Counts-file text: lines ended by any line break, some holding a
    character that only str.splitlines() breaks at, and maybe a last
    line without a break."""
    text = ""
    for line in draw(st.lists(ORACLE_LINE, max_size=8)):
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(NOT_A_BREAK) + line[at:]
        text += line + draw(LINE_BREAK)
    return text + draw(st.one_of(st.just(""), ORACLE_LINE))


#: Four counts with a positive total of at most 2**63 - 1: each small, up
#: to 18 digits or up to a quarter of that limit, or four that sum to
#: exactly the limit.
SOME_COUNTS = st.one_of(
    st.tuples(
        *[st.one_of(st.integers(0, 99), st.integers(0, 10**18 - 1),
                    st.integers(0, 2**61 - 1))] * 4
    ).filter(any),
    st.lists(st.integers(0, 2**63 - 1), min_size=3, max_size=3).map(
        lambda cuts: tuple(np.diff([0, *sorted(cuts), 2**63 - 1]).tolist())
    ),
)


@st.composite
def written_lines(draw) -> list[str]:
    """``counts_file_text`` of one or more drawn records, all with a
    duration or all without, split as ``read_counts_file`` splits a file,
    with or without the header and the final newline."""
    duration = st.floats(0.0, 1e6) if draw(st.booleans()) else st.none()
    record = st.builds(
        CountsRecord, st.sampled_from(Bb84State), st.sampled_from(SiftBasis),
        st.floats(0.0, 0.5), SOME_COUNTS, duration,
    )
    text = counts_file_text(columns(draw(st.lists(record, min_size=1, max_size=12))))
    if draw(st.booleans()):
        text = text.partition("\n")[2]
    if draw(st.booleans()):
        text = text[:-1]
    return text.split("\n")


def ideal_probs(state, basis, pe) -> np.ndarray:
    return predict_outcome_probs(ErrorModelParams(), state, basis, pe)


def sift_pair(pe, n_pairs, seeds=(101, 202)) -> list[CountsRecord]:
    return [
        CountsRecord(
            state,
            SiftBasis.DA,
            pe,
            draw_counts(ideal_probs(state, SiftBasis.DA, pe), n_pairs, seed),
        )
        for state, seed in zip(SiftBasis.DA.states, seeds)
    ]


def reference_records() -> list[CountsRecord]:
    """The bundled reference counts as records, read by the per-line oracle."""
    text = reference_counts_path().read_text(encoding="utf-8")
    return parse_counts_oracle(text.split("\n"))


def summaries(records) -> list[tuple]:
    """``CountsColumns.sift_summaries`` of records made in code."""
    return columns(records).sift_summaries()


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


def simulate(*flags: str) -> str:
    """What ``fpbsim simulate FLAGS`` writes to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["simulate", *flags]) == 0
    return out.getvalue()


def simulated(*flags: str) -> CountsColumns:
    """The counts that ``fpbsim simulate FLAGS`` writes, read back."""
    return parse_counts(simulate(*flags).split("\n"))


class TestSimulateCounts:
    """The seeded multinomial draws of ``fpbsim simulate``."""

    def test_degenerate_distribution(self):
        # At pe 0 the ideal attack never flips Bob's bit on a sift row:
        # the cells of the other bit, of probability below 1e-32, stay empty.
        counts = simulated("--pe", "0", "--pairs", "1000", "--seed", "1")
        sift = _STATE_BASIS[counts.state] == counts.basis
        for state, row in zip(counts.state[sift].tolist(), counts.counts[sift].tolist()):
            bit = tuple(Bb84State)[state].bit
            assert [c for c, (b, _) in zip(row, OUTCOME_ORDER) if b != bit] == [0, 0]
            assert sum(row) == 1000

    def test_counts_sum_to_n(self):
        counts = simulated("--pairs", "49316", "--seed", "7")
        assert counts.counts.sum(axis=1).tolist() == [49_316] * 24

    def test_deterministic_given_seed(self):
        flags = ("--states", "A", "--pe", "0.1", "--pairs", "50000")
        assert simulate(*flags, "--seed", "123") == simulate(*flags, "--seed", "123")
        assert simulate(*flags, "--seed", "123") != simulate(*flags, "--seed", "124")

    def test_uniform_within_three_sigma(self):
        # At pe 0 a state measured in the other basis gives all four
        # outcomes with probability 1/4, to within a few ulps.
        counts = simulated("--pe", "0", "--pairs", "40000", "--seed", "2024")
        cross = _STATE_BASIS[counts.state] != counts.basis
        sigma = math.sqrt(40_000 * 0.25 * 0.75)
        assert cross.sum() == 4
        for c in counts.counts[cross].ravel().tolist():
            assert abs(c - 10_000) <= 3 * sigma

    def test_reference_row_scale_within_three_sigma(self):
        n = 49_316
        probs = ideal_probs(Bb84State.D, SiftBasis.DA, 0.1)
        counts = simulated("--states", "D", "--pe", "0.1", "--pairs", str(n), "--seed", "99")
        (row,) = counts.counts[counts.basis == tuple(SiftBasis).index(SiftBasis.DA)]
        for c, p in zip(row.tolist(), probs):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(c - n * p) <= 3 * sigma


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
        np.testing.assert_array_equal(columns([record]).probabilities()[0], 0.25)

    def test_reference_rows(self, measured_estimated):
        counts = read_counts_file(reference_counts_path())
        states = counts.state.tolist()
        for state, pe, probs in zip(states, counts.pe.tolist(), counts.probabilities()):
            want = measured_estimated[(tuple(Bb84State)[state].value, pe)]
            np.testing.assert_allclose(probs, want, atol=5e-4)

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
                counts = draw_counts(probs, n, next(seeds))
                record = CountsRecord(state, SiftBasis.DA, pe, counts)
                estimate = columns([record]).probabilities()[0]
                bound = 4 * np.sqrt(probs * (1 - probs) / n)
                assert np.all(np.abs(estimate - probs) <= bound)


def one_group(records) -> tuple[float, float, str | None]:
    """The (renyi, error_rate, problem) of records forming one sift group."""
    ((_, _, renyi, error_rate, problem),) = summaries(records)
    return renyi, error_rate, problem


class TestSiftedErrorRate:
    def test_reference_counts_at_zero(self):
        records = [r for r in reference_records() if r.pe_nominal == 0.0]
        _, got, _ = one_group(records)
        # Equal-weight mean of the two per-record error fractions.
        want = ((1356 + 1836) / 49_956 + (1140 + 1112) / 48_304) / 2
        assert abs(got - want) < 1e-12
        assert 0.04 < got < 0.07

    def test_ideal_counts_at_zero(self):
        assert one_group(noise_free_pair(0.0, 40_000))[1] == 0.0

    def test_ideal_counts_at_one_third(self):
        n = 50_000
        _, got, _ = one_group(sift_pair(1 / 3, n))
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(got - 1 / 3) <= 3 * sigma

    def test_requires_matching_pair(self):
        reference = reference_records()
        records = [r for r in reference if r.pe_nominal == 0.0]
        missing = "is missing a paired input state"
        assert one_group(records[:1])[2] == missing
        d_only = [r for r in reference if r.alice is Bb84State.D]
        rows = summaries(d_only)
        assert [problem for *_, problem in rows] == [missing] * 3
        d, a = records
        assert one_group([d, a, d])[2] == "needs exactly one record per input state"


class TestMeasuredRenyi:
    def test_perfect_correlation_noise_free(self):
        got, _, _ = one_group(noise_free_pair(1 / 3, 48_000))
        assert abs(got - 1.0) < 1e-12

    def test_seeded_counts_near_closed_form(self):
        got, _, _ = one_group(sift_pair(0.1, 50_000))
        assert abs(got - 0.480) < 0.02

    def test_reference_counts_at_zero_small_but_positive(self):
        records = [r for r in reference_records() if r.pe_nominal == 0.0]
        got, _, _ = one_group(records)
        assert 0.0 < got < 0.01

    def test_noise_free_matches_model(self):
        for pe in (0.05, 0.1, 0.2, 1 / 3):
            got, _, _ = one_group(noise_free_pair(pe, 100_000))
            assert abs(got - renyi_closed_form(pe)) < 2e-3

    def test_scaling_a_record_changes_nothing(self):
        records = [r for r in reference_records() if r.pe_nominal == 0.1]
        scaled = [
            CountsRecord(
                records[0].alice,
                records[0].bob_basis,
                records[0].pe_nominal,
                tuple(7 * c for c in records[0].counts),
            ),
            records[1],
        ]
        assert one_group(records)[0] == one_group(scaled)[0]

    def test_rejects_missing_or_empty_pairs(self):
        d, a = (r for r in reference_records() if r.pe_nominal == 0.1)
        assert one_group([d, d])[2] == "is missing a paired input state"
        empty = [
            CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (5, 5, 0, 0)),
            CountsRecord(Bb84State.A, SiftBasis.DA, 0.1, (0, 0, 5, 5)),
        ]
        # Every error-free cell is zero for these records.
        renyi, _, problem = one_group(empty)
        assert math.isnan(renyi) and problem is None
        problem = one_group([d, a, d])[2]
        assert problem == "needs exactly one record per input state"


#: Records for the grouping test: few states, bases and pe values, so
#: groups are often complete, duplicated, or missing a state.
SOME_RECORDS = st.lists(
    st.builds(
        CountsRecord,
        st.sampled_from(list(Bb84State)),
        st.sampled_from(list(SiftBasis)),
        st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5]),
        SOME_COUNTS,
    ),
    max_size=12,
)


class TestSiftSummaries:
    @settings(derandomize=True, deadline=None)
    @given(records=SOME_RECORDS)
    def test_one_sort_matches_dict_grouping_oracle(self, records):
        assert repr(summaries(records)) == repr(sift_summaries_oracle(records))
        # Records of any order and count size come back as written.
        assert_columns_equal(
            parse_counts(counts_file_text(columns(records)).splitlines()),
            columns(records),
        )

    def test_stack_matches_scalar_oracles(self):
        groups = [sift_pair(pe, 20_000) for pe in (0.0, 0.1, 1 / 3)]
        groups.append(list(reversed(noise_free_pair(0.2, 10_000))))
        rows = summaries([record for group in groups for record in group])
        assert [(basis, pe) for basis, pe, *_ in rows] == [
            (SiftBasis.DA, pe) for pe in (0.0, 0.1, 0.2, 1 / 3)
        ]
        by_pe = {group[0].pe_nominal: group for group in groups}
        for _, pe, got_renyi, got_rate, problem in rows:
            assert problem is None
            # Bit-0 record first, each row divided with Python integers.
            zero, one = sorted(by_pe[pe], key=lambda r: r.alice.bit)
            probs = [[c / r.total for c in r.counts] for r in (zero, one)]
            table, rate = sift_cells_oracle(probs)
            assert got_renyi == renyi_information_oracle(table)
            assert got_rate == rate

    def test_group_without_error_free_counts_reads_nan(self):
        empty = [
            CountsRecord(Bb84State.D, SiftBasis.DA, 0.1, (5, 5, 0, 0)),
            CountsRecord(Bb84State.A, SiftBasis.DA, 0.1, (0, 0, 5, 5)),
        ]
        (*_, renyi_0, rate_0, _), (*_, renyi_1, _, _) = summaries(
            empty + noise_free_pair(0.2, 1000)
        )
        assert math.isnan(renyi_0) and not math.isnan(renyi_1)
        assert rate_0 == 1.0

    def test_no_groups(self):
        assert summaries([]) == []
        assert parse_counts([]).sift_summaries() == []
        cross = CountsRecord(Bb84State.D, SiftBasis.HV, 0.1, (1, 2, 3, 4))
        assert summaries([cross]) == []

    def test_negative_zero_pe_summary_independent_of_order(self):
        a = CountsRecord(Bb84State.A, SiftBasis.DA, 0.0, (4, 3, 2, 1))
        d = CountsRecord(Bb84State.D, SiftBasis.DA, -0.0, (1, 2, 3, 4))
        rows = summaries([a, d])
        assert repr(rows) == repr(summaries([d, a]))
        assert [repr(pe) for _, pe, *_ in rows] == ["0.0"]

    def test_incomplete_groups_report_their_problem(self):
        d, a = noise_free_pair(0.1, 1000)
        lone = CountsRecord(Bb84State.H, SiftBasis.HV, 0.3, (1, 2, 3, 4))
        duplicate = [
            CountsRecord(d.alice, d.bob_basis, 0.2, d.counts),
            CountsRecord(a.alice, a.bob_basis, 0.2, a.counts),
            CountsRecord(d.alice, d.bob_basis, 0.2, d.counts),
        ]
        rows = summaries([d, *duplicate, lone, a])
        assert [(basis, pe, problem) for basis, pe, *_, problem in rows] == [
            (SiftBasis.HV, 0.3, "is missing a paired input state"),
            (SiftBasis.DA, 0.1, None),
            (SiftBasis.DA, 0.2, "needs exactly one record per input state"),
        ]
        for _, _, renyi, rate, problem in rows:
            assert math.isnan(renyi) == math.isnan(rate) == (problem is not None)
        assert tuple(rows[1][2:4]) == one_group([d, a])[:2]


#: The message of a record whose total passes the int64 limit, on line 3.
PAST_INT64 = r":3: record total counts exceed 2\*\*63 - 1$"
#: One bad line per counts-file rule, in the order a line is checked, with
#: the message it gets.
BAD_LINES = {
    "fields": ("D,DA,0.1,1,2,3", "expected 7 or 8 comma-separated fields, got 6"),
    "state": ("Q,DA,0.1,1,2,3,4", "'Q' is not a valid Bb84State"),
    "basis": ("D,XY,0.1,1,2,3,4", "'XY' is not a valid SiftBasis"),
    "count": ("D,DA,0.1,x,2,3,4", "count 'x' is not a nonnegative decimal integer"),
    "ascii": ("D,DA,0_1,1,2,3,4", "'0_1' is not an ASCII number"),
    "pe-txt": ("D,DA,1.2.3,1,2,3,4", "could not convert string to float: '1.2.3'"),
    "dur-txt": ("D,DA,0.1,1,2,3,4,4.4.4", "could not convert string to float: '4.4.4'"),
    "pe-0.9": ("D,DA,0.9,1,2,3,4", "error probability must be in [0, 0.5], got 0.9"),
    "zero": ("D,DA,0.1,0,0,0,0", "record has zero total counts"),
    "int64": (f"D,DA,0.1,{2**62},{2**62},0,0", "record total counts exceed 2**63 - 1"),
    "dur-neg": ("D,DA,0.1,1,2,3,4,-5", "duration must be finite and nonnegative, got -5.0"),
}


class TestCountsFiles:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(text=counts_texts())
    def test_columnar_reader_matches_per_line_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("oracle") / "counts.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            with path.open("r", encoding="utf-8") as handle:
                want = parse_counts_oracle(handle, source=str(path))
        except CountsFileError as exc:
            with pytest.raises(CountsFileError) as excinfo:
                read_counts_file(path)
            assert str(excinfo.value) == str(exc)
            return
        got = read_counts_file(path)
        assert_columns_equal(got, columns(want))
        # Each count and total converted once from its exact integer.
        probs = np.array([r.counts for r in want], dtype=float).reshape(-1, 4)
        totals = oracle_totals(want)
        assert got.totals.tobytes() == totals.tobytes()
        assert got.probabilities().tobytes() == (probs / totals[:, None]).tobytes()
        assert repr(got.sift_summaries()) == repr(sift_summaries_oracle(want))

    @pytest.mark.parametrize(
        "position, message",
        [
            (2, "pe '' is not a number"),
            (3, "count '' is not a nonnegative decimal integer"),
            (4, "count '' is not a nonnegative decimal integer"),
            (5, "count '' is not a nonnegative decimal integer"),
            (6, "count '' is not a nonnegative decimal integer"),
            (7, "duration '' is not a number"),
        ],
    )
    def test_empty_numeric_field_is_named(self, tmp_path, position, message):
        fields = "D,DA,0.1,1,2,3,4,40.0".split(",")
        fields[position] = " "
        path = tmp_path / "empty.csv"
        path.write_text("# comment\nD,DA,0.1,1,2,3,4\n" + ",".join(fields) + "\n")
        with pytest.raises(CountsFileError) as excinfo:
            read_counts_file(path)
        assert str(excinfo.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("big", [2**53 + 1, 10**18 - 1, 10**18, 2**64 + 1, 10**300])
    def test_counts_beyond_float_precision_read_exactly(self, tmp_path, big):
        lines = [f"D,DA,0.1,{big},1,0,{big}", f"A,DA,0.1,3,{big},{big + 2},1"]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        if 2 * big + 1 > 2**63 - 1:
            # A total past the int64 limit is rejected at its first line.
            with pytest.raises(CountsFileError) as excinfo:
                read_counts_file(path)
            assert str(excinfo.value) == f"{path}:1: record total counts exceed 2**63 - 1"
            return
        records = parse_counts_oracle(lines)
        counts = read_counts_file(path)
        assert_columns_equal(counts, columns(records))
        assert counts.counts.dtype == np.int64
        assert counts.counts.sum(axis=1).tolist() == [2 * big + 1, 2 * big + 6]
        probs = np.array([r.counts for r in records], dtype=float)
        totals = oracle_totals(records)
        assert counts.totals.tobytes() == totals.tobytes()
        got = counts.probabilities()
        assert got.tobytes() == (probs / totals[:, None]).tobytes()

    @pytest.mark.parametrize("padding", [1, 400, 5000])
    def test_zero_padded_counts_read_by_value(self, tmp_path, padding):
        # Leading zeros are skipped, also in a count past a quarter of the
        # int64 limit, whose row is summed from its digits.
        zeros = "0" * padding
        path = tmp_path / "padded.csv"
        path.write_text(
            f"D,DA,0.1,{zeros}1,2,3,{zeros}1\nA,DA,0.1,4,3,2,{zeros}{2**63 - 10}\n"
        )
        counts = read_counts_file(path)
        assert counts.counts.dtype == np.int64
        assert counts.counts.tolist() == [[1, 2, 3, 1], [4, 3, 2, 2**63 - 10]]
        assert counts.totals.tolist() == [7.0, float(2**63 - 1)]

    @pytest.mark.parametrize("second, fourth", product(BAD_LINES, repeat=2))
    def test_first_bad_line_wins_over_later_checks(self, second, fourth):
        # Lines 2 and 4 each fail one rule, checked before or after the
        # other's: the file's first bad line is reported, with its own message.
        line, message = BAD_LINES[second]
        lines = ["D,DA,0.1,1,2,3,4", line, "A,DA,0.1,4,3,2,1", BAD_LINES[fourth][0]]
        with pytest.raises(CountsFileError) as excinfo:
            parse_counts(lines)
        assert str(excinfo.value) == f"<counts>:2: {message}"

    @pytest.mark.parametrize("parse", [parse_counts, parse_counts_oracle])
    @pytest.mark.parametrize(
        "line, rule",
        [
            ("D,DA,0.9,0,0,0,0", "pe-0.9"),
            ("D,DA,0.1,0,0,0,0,-5", "zero"),
            (f"D,DA,0.1,{2**62},{2**62},0,0,-5", "int64"),
            ("D,DA,0.9,x,2,3,4", "count"),
            ("D,DA,0_1,0,0,0,0", "ascii"),
            ("Q,DA,0.1,1,2,3", "fields"),
        ],
    )
    def test_line_failing_two_rules_gets_the_first_message(self, parse, line, rule):
        with pytest.raises(CountsFileError) as excinfo:
            parse(["D,DA,0.1,1,2,3,4", line])
        assert str(excinfo.value) == f"<counts>:2: {BAD_LINES[rule][1]}"

    def test_lines_read_one_at_a_time_only_up_to_the_first_bad_line(self):
        lines = ["D,DA,0.1,1,2,3,4"] * 1000
        lines[3], lines[899] = "D,DA,0.9,1,2,3,4", "D,DA,0.1"
        with mock.patch.object(montecarlo, "_record", wraps=montecarlo._record) as by_line:
            with pytest.raises(CountsFileError, match="^<counts>:4: error probability"):
                parse_counts(lines)
            assert by_line.call_count == 4
            by_line.reset_mock()
            # A good file is read by its columns alone.
            simulated = Path(__file__).parent / "golden" / "simulate_example_seed42.csv"
            for path in (reference_counts_path(), simulated):
                assert len(read_counts_file(path).pe) > 0
            assert by_line.call_count == 0

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        lines=written_lines(),
        edit=st.sampled_from(
            ["none", "comment", "blank", "crlf", "pad", "indented-comment",
             "spaces", "bad-pe", "short"]
        ),
        at=st.integers(0, 20),
    )
    def test_lines_read_as_their_stripped_lines(self, lines, edit, at):
        # Lines are read as they stand and stripped only when one is
        # padded. Either way the result, or the error with its line number,
        # is that of the lines stripped beforehand.
        at = min(at, len(lines))
        if edit == "comment":
            lines = lines[:at] + ["# note"] + lines[at:]
        elif edit == "blank":
            lines = lines[:at] + [""] + lines[at:]
        elif edit == "crlf":
            lines = [line + "\r" for line in lines[:-1]] + lines[-1:]
        elif edit == "pad":
            lines = lines[:at] + [" \t" + line for line in lines[at:at + 1]] + lines[at + 1:]
        elif edit == "indented-comment":
            lines = lines[:at] + ["  # note"] + lines[at:]
        elif edit == "spaces":
            lines = lines[:at] + [" \t "] + lines[at:]
        elif edit == "bad-pe":
            lines = lines[:at] + ["D,DA,0.9,1,2,3,4"] + lines[at:]
        elif edit == "short":
            lines = lines[:at] + ["D,DA,0.1,1,2,3"] + lines[at:]
        stripped = [line.strip(" \t\n\r\x0b\x0c") for line in lines]
        try:
            want = parse_counts(stripped)
        except CountsFileError as exc:
            with pytest.raises(CountsFileError) as excinfo:
                parse_counts(lines)
            assert str(excinfo.value) == str(exc)
            return
        assert_columns_equal(parse_counts(lines), want)
        if edit in ("none", "comment", "blank"):
            with mock.patch.object(
                montecarlo, "_record_lines", side_effect=AssertionError("stripped")
            ):
                assert_columns_equal(parse_counts(lines), want)

    def test_round_trip(self, tmp_path):
        records = [
            CountsRecord(Bb84State.H, SiftBasis.HV, 1 / 3, (1, 2, 3, 4), 40.0),
            CountsRecord(Bb84State.A, SiftBasis.DA, 0.1, (10, 0, 0, 7)),
        ]
        path = tmp_path / "counts.csv"
        path.write_text(counts_file_text(columns(records)))
        assert_columns_equal(read_counts_file(path), columns(records))

    def test_negative_zero_pe_written_as_zero(self):
        record = CountsRecord(Bb84State.D, SiftBasis.DA, -0.0, (1, 2, 3, 4))
        text = counts_file_text(columns([record]))
        assert text.splitlines()[1] == "D,DA,0.0,1,2,3,4"

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("# header\n\nD,DA,0.1,1,2,3,4\n")
        counts = read_counts_file(path)
        assert len(counts.pe) == 1
        assert counts.counts.tolist() == [[1, 2, 3, 4]]

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
            ("D,DA,0.1,1_000,2,3,4", "'1_000'"),
            pytest.param("D,DA,0.1,\u0663,2,3,4", "'\u0663'", id="arabic-indic-count"),
            ("D,DA,0_1,1,2,3,4", "'0_1'"),
            pytest.param(
                "D,DA,0.1,1,2,3,4,4\u0660", "'4\u0660'", id="arabic-indic-duration"
            ),
            pytest.param(
                "D,DA,\u20030.1,1,2,3,4", "is not an ASCII number", id="em-space-pe"
            ),
            pytest.param(
                "D,DA,0.1,1,2,3,4\u00a0", "is not a nonnegative decimal integer",
                id="no-break-space-end",
            ),
            ("D,DA,0.1,0,0,0,0", "zero total"),
            pytest.param("D,DA,0.1,1" + "0" * 400 + ",0,0,0", PAST_INT64, id="oversized"),
            pytest.param(f"D,DA,0.1,{2**63},0,0,0", PAST_INT64, id="saturated-count"),
            pytest.param(f"D,DA,0.1,{2**62},{2**62},0,0", PAST_INT64, id="total-wraps"),
            pytest.param(
                "A,DA,0.1,4,3,2," + "0" * 5000 + str(10**19), PAST_INT64, id="padded-20-digits"
            ),
            pytest.param(
                "D,DA,0.1,1" + "0" * 5000 + ",0,0,0", ":3: record total counts exceed",
                id="past-int-digit-limit",
            ),
            pytest.param(
                "D,DA,0.9,1" + "0" * 5000 + ",0,0,0", ":3: error probability",
                id="past-int-digit-limit-bad-pe",
            ),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, line, match):
        path = tmp_path / "bad.csv"
        path.write_text("# comment\nD,DA,0.1,1,2,3,4\n" + line + "\n")
        with pytest.raises(CountsFileError, match=match) as excinfo:
            read_counts_file(path)
        assert ":3:" in str(excinfo.value)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(lines=written_lines())
    def test_flat_split_reads_written_files(self, lines):
        records = parse_counts_oracle(lines)
        # Line-by-line splitting out of reach: the flat split must read
        # every such text on its own.
        with mock.patch.object(
            montecarlo, "_row_columns", side_effect=AssertionError("split line by line")
        ):
            got = parse_counts(lines)
        assert_columns_equal(got, columns(records))
        assert got.totals.tobytes() == oracle_totals(records).tobytes()

    @pytest.mark.parametrize(
        "lines, flat",
        [
            # Stripping each line drops the "\r" of a CRLF ending.
            pytest.param("# c\r\nD,DA,0.1,1,2,3,4\r\n".split("\n"), True, id="crlf"),
            pytest.param(["D,DA,0.1,1,2,3,4\r"] * 2, True, id="crlf-no-final-newline"),
            pytest.param(["D,DA,0.1,1\r,2,3,4"], False, id="inner-cr"),
            pytest.param(["D, DA,0.1,1,2,3,4"], False, id="padded-field"),
            pytest.param(["D,DA,0.1,1,2,3,4", "", "A,DA,0.1,4,3,2,1"], True, id="blank"),
            pytest.param(
                ["D,DA,0.1,1,2,3,4", "# c d", "A,DA,0.1,4,3,2,1"], True,
                id="comment-after-record",
            ),
            pytest.param(["D,DA,0.1,1,2,3,4", "A,DA,0.1,4,3,2,1"], True, id="no-final-newline"),
            pytest.param(
                ["# measured, 40 s", "D,DA,0.1,1,2,3,4,40.0", "A,DA,0.1,4,3,2,1,40.0", ""],
                True, id="durations",
            ),
            pytest.param(
                ["D,DA,0.1,1,2,3,4,40.0", "A,DA,0.1,4,3,2,1", ""], False, id="some-durations"
            ),
            pytest.param(["D,DA,0.1,1,2,3,4", "A,DA,0.1,4,3,2", ""], False, id="six-fields"),
            pytest.param(["D,DA,0.1,1000000000000000000,2,3,4", ""], True, id="19-digits"),
            pytest.param([f"D,DA,0.1,{2**64 + 1},2,3,4", ""], True, id="past-int64"),
            pytest.param([f"D,DA,0.1,{2**62},{2**62},3,4", ""], True, id="total-past-int64"),
            pytest.param([f"D,DA,0.1,{2**63 - 1},0,0,0", ""], True, id="int64-limit"),
            pytest.param([f"D,DA,0.1,{2**62},{2**62 - 1},0,0", ""], True, id="total-at-limit"),
            pytest.param([f"D,DA,0.1,{2**63},0,0,0", ""], True, id="saturated-count"),
            pytest.param([f"D,DA,0.1,{2**62},{2**62},0,0", ""], True, id="total-wraps"),
            # Exactly 2**53 + 2: adding the counts as floats would round
            # twice, to 2**53.
            pytest.param([f"D,DA,0.1,{2**53},1,1,0", ""], True, id="total-rounds-once"),
            pytest.param(["D,DA,0.9," + "9" * 5001 + ",0,0,0"], True, id="5001-digits-bad-pe"),
            pytest.param(["D,DA,1e-1,1,2,3,4", ""], True, id="pe-1e-1"),
            pytest.param(["D,DA,0.1,1,2,3,4", "A,DA,0.9,4,3,2,1", ""], True, id="pe-0.9"),
            pytest.param(["D,DA,0.1,1,2,3,4", "A,DA,1.2.3,4,3,2,1", ""], True, id="pe-1.2.3"),
            pytest.param(["D,DA,0.1,1,2,3,4", "A,DA,0.1,0,0,0,0", ""], True, id="zero-total"),
            pytest.param(["D,DA,0.1,1,\u0663,3,4", ""], True, id="arabic-indic-count"),
            pytest.param(["D,DA,0.1,1,\ud800,3,4", ""], True, id="lone-surrogate-count"),
            pytest.param(
                ["D,DA,0.1,1,2,3,4\nA,DA,0.1,4,3,2,1", ""], False, id="line-holds-newline"
            ),
        ],
    )
    def test_inputs_near_written_form_read_as_the_oracle(self, lines, flat):
        with mock.patch.object(
            montecarlo, "_row_columns", wraps=montecarlo._row_columns
        ) as by_line:
            try:
                records = parse_counts_oracle(lines)
            except CountsFileError as exc:
                with pytest.raises(CountsFileError) as excinfo:
                    parse_counts(lines)
                assert str(excinfo.value) == str(exc)
            else:
                got = parse_counts(lines)
                assert_columns_equal(got, columns(records))
                assert got.totals.tobytes() == oracle_totals(records).tobytes()
        assert by_line.called != flat

    @settings(derandomize=True, deadline=None)
    @given(lines=st.lists(ANY_LINE, max_size=6))
    def test_parser_returns_records_or_counts_file_error(self, lines):
        try:
            counts = parse_counts("\n".join(lines).splitlines())
        except CountsFileError:
            return
        assert isinstance(counts, CountsColumns)
        text = counts_file_text(counts)
        assert_columns_equal(parse_counts(text.splitlines()), counts)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(fields=grammar_fields())
    def test_parser_accepts_exactly_the_reference_grammar(self, fields):
        line = ",".join(fields)
        if counts_line_accepted(fields):
            assert len(parse_counts([line]).pe) == 1
        else:
            with pytest.raises(CountsFileError, match="^<counts>:1: "):
                parse_counts([line])

    def test_reference_file_contents(self):
        counts = read_counts_file(reference_counts_path())
        records = reference_records()
        assert_columns_equal(counts, columns(records))
        assert len(counts.pe) == 6
        assert set(counts.pe.tolist()) == {0.0, 0.1, 0.33}
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
