import itertools
import math
import numbers
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainorder.markov import (
    MarkovChannelSpec,
    ccdf_matrix,
    check_indecomposable,
    check_markov_degraded,
    comparable_pairs,
    coupled_paths,
    markov_spec_from_json,
    stationary_distribution,
    super_state,
    super_state_index,
)

THREE_STATES = (0.1, 0.5, 1.0)

P3 = (("1/2", "1/4", "1/4"), ("3/4", "1/8", "1/8"), ("5/8", "1/4", "1/8"))
Q3 = (("1/4", "3/8", "3/8"), ("1/8", "2/8", "5/8"), ("1/2", "1/8", "3/8"))
INIT3_WEAK = ("1/2", "1/4", "1/4")
INIT3_STRONG = ("1/4", "3/8", "3/8")

CCDF_P3 = ((F(1, 2), F(1, 4), F(0)), (F(1, 4), F(1, 8), F(0)), (F(3, 8), F(1, 8), F(0)))
CCDF_Q3 = ((F(3, 4), F(3, 8), F(0)), (F(7, 8), F(5, 8), F(0)), (F(1, 2), F(3, 8), F(0)))

BINARY_STATES = (0.0, 1.0)

P4 = (("1/2", "1/2", 0, 0), (0, 0, "1/3", "2/3"), ("1/4", "3/4", 0, 0), (0, 0, "1/5", "4/5"))
Q4 = (("1/3", "2/3", 0, 0), (0, 0, "1/4", "3/4"), ("1/5", "4/5", 0, 0), (0, 0, "1/6", "5/6"))

CCDF_P4 = (
    (F(1, 2), F(0), F(0), F(0)),
    (F(1), F(1), F(2, 3), F(0)),
    (F(3, 4), F(0), F(0), F(0)),
    (F(1), F(1), F(4, 5), F(0)),
)
CCDF_Q4 = (
    (F(2, 3), F(0), F(0), F(0)),
    (F(1), F(1), F(3, 4), F(0)),
    (F(4, 5), F(0), F(0), F(0)),
    (F(1), F(1), F(5, 6), F(0)),
)

EARLY4_WEAK = (((0.0,), ("1/2", "1/2")), ((1.0,), ("1/4", "3/4")))
EARLY4_STRONG = (((0.0,), ("1/3", "2/3")), ((1.0,), ("1/6", "5/6")))
# joint initial super-state laws consistent with the early conditionals above
INIT4_WEAK = ("1/4", "1/4", "1/8", "3/8")
INIT4_STRONG = ("1/9", "2/9", "1/9", "5/9")


def chain3(matrix, initial):
    return MarkovChannelSpec(states=THREE_STATES, order=1, matrix=matrix, initial=initial)


def chain4(matrix, initial, early=()):
    return MarkovChannelSpec(
        states=BINARY_STATES, order=2, matrix=matrix, initial=initial, early_conditionals=early
    )


def fraction_laws(spec):
    """(table, initial, early_conditionals) read off the spec's integer record
    as Fraction tuples: its laws in the form it was given them."""
    def rows(numerators):
        return tuple(tuple(F(x, spec.den) for x in row) for row in numerators.tolist())

    return (rows(spec.table_numerators), rows(spec.initial_numerators[None])[0],
            tuple(zip(spec.histories, rows(spec.early_numerators))))


class TestSuperState:
    def test_binary_second_order_labels(self):
        assert super_state(1, 2, 2) == (0, 0)
        assert super_state(2, 2, 2) == (0, 1)
        assert super_state(3, 2, 2) == (1, 0)
        assert super_state(4, 2, 2) == (1, 1)

    def test_first_order_is_identity(self):
        for n in (1, 3, 5):
            for l in range(1, n + 1):
                assert super_state(l, 1, n) == (l - 1,)

    def test_lexicographic_enumeration(self):
        assert super_state(5, 2, 3) == (1, 1)  # fifth tuple is (v2, v2)

    def test_inverse_round_trip(self):
        for l in range(1, 28):
            assert super_state_index(super_state(l, 3, 3), 3) == l

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            super_state(0, 1, 3)
        with pytest.raises(ValueError, match="state index 5 outside 0..1"):
            super_state_index((5,), 2)
        with pytest.raises(ValueError):
            super_state(10, 2, 3)


class TestCcdfMatrix:
    def test_first_order_golden_matrices_exact(self):
        assert ccdf_matrix(chain3(P3, INIT3_WEAK)) == CCDF_P3
        assert ccdf_matrix(chain3(Q3, INIT3_STRONG)) == CCDF_Q3

    def test_second_order_golden_matrices_exact(self):
        assert ccdf_matrix(chain4(P4, INIT4_WEAK)) == CCDF_P4
        assert ccdf_matrix(chain4(Q4, INIT4_STRONG)) == CCDF_Q4

    def test_identity_matrix_rows(self):
        eye = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
        spec = chain3(eye, ("1/3", "1/3", "1/3"))
        rows = ccdf_matrix(spec)
        for l, row in enumerate(rows, start=1):
            assert row == tuple(F(1) if n < l else F(0) for n in range(1, 4))


class TestComparablePairs:
    def test_first_order_three_states(self):
        assert set(comparable_pairs(1, 3)) == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}

    def test_second_order_binary_excludes_mixed_pair(self):
        pairs = set(comparable_pairs(2, 2))
        assert len(pairs) == 9
        assert (2, 3) not in pairs and (3, 2) not in pairs

    def test_single_state(self):
        assert comparable_pairs(1, 1) == [(1, 1)]

    def test_no_order_or_no_state_rejected(self):
        with pytest.raises(ValueError, match="need k >= 1 and N >= 1"):
            comparable_pairs(0, 2)

    def test_cardinality_is_triangular_power(self):
        for k, n in ((1, 4), (2, 3), (3, 2)):
            expected = (n * (n + 1) // 2) ** k
            assert len(comparable_pairs(k, n)) == expected


class TestSpecValidation:
    def test_rows_must_sum_to_one(self):
        bad = (("1/2", "1/4", "1/8"), P3[1], P3[2])
        with pytest.raises(ValueError, match="sum"):
            chain3(bad, INIT3_WEAK)

    def test_states_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            MarkovChannelSpec(states=(1.0, 0.5), order=1,
                              matrix=(("1/2", "1/2"), ("1/2", "1/2")),
                              initial=("1/2", "1/2"))

    def test_second_order_zero_pattern_enforced(self):
        bad = (("1/2", "1/4", "1/4", 0), P4[1], P4[2], P4[3])
        with pytest.raises(ValueError, match="zero"):
            chain4(bad, INIT4_WEAK)

    def test_first_bad_entry_of_a_one_pass_iterable_is_named(self):
        states = (v for v in ([0.1], 0.5, 1.0))
        with pytest.raises(ValueError, match=r"cannot interpret \[0.1\]"):
            MarkovChannelSpec(states=states, order=1, matrix=P3, initial=INIT3_WEAK)

    def test_early_history_of_length_k_rejected(self):
        # the row after (0, 0) is (1/2, 1/2); a length-k "early" conditional
        # (1, 0) after (0, 0) would be kept and read by nothing
        assert fraction_laws(chain4(P4, INIT4_WEAK))[0][0] == (F(1, 2), F(1, 2))
        early = EARLY4_WEAK + (((0.0, 0.0), ("1", "0")),)
        message = r"\(0\.0, 0\.0\) must be 1\.\.k-1 state values, k = 2"
        with pytest.raises(ValueError, match=message):
            chain4(P4, INIT4_WEAK, early)

    def test_an_integral_float_order_is_that_int(self):
        spec = MarkovChannelSpec(BINARY_STATES, 2.0, P4, INIT4_WEAK, EARLY4_WEAK)
        reference = chain4(P4, INIT4_WEAK, EARLY4_WEAK)
        assert spec.order == 2 and type(spec.order) is int
        assert fraction_laws(spec) == fraction_laws(reference)
        strong = chain4(Q4, INIT4_STRONG, EARLY4_STRONG)
        assert check_markov_degraded(spec, strong).to_json() == \
            check_markov_degraded(reference, strong).to_json()
        assert MarkovChannelSpec(BINARY_STATES, np.int64(2), P4, INIT4_WEAK).order == 2

    @pytest.mark.parametrize("order", [1.5, True, np.bool_(True), "2", None, [2], 0, -1, 0.0,
                                       math.nan, math.inf])
    def test_an_order_that_is_not_a_whole_number_is_refused(self, order):
        with pytest.raises(ValueError, match="chain order k must be a whole number"):
            MarkovChannelSpec(BINARY_STATES, order, P4, INIT4_WEAK)

    def test_json_order_is_read_by_the_spec(self):
        chain = {"states": list(BINARY_STATES), "matrix": [list(r) for r in P4],
                 "initial": list(INIT4_WEAK)}
        assert markov_spec_from_json(dict(chain, k=2.0)).order == 2
        with pytest.raises(ValueError, match="chain order k must be a whole number"):
            markov_spec_from_json(dict(chain, k=True))

    def test_json_round_trip(self):
        spec = markov_spec_from_json(
            {"k": 1, "states": list(THREE_STATES), "matrix": [list(r) for r in P3],
             "initial": list(INIT3_WEAK)}
        )
        assert ccdf_matrix(spec) == CCDF_P3

    def test_json_missing_field_named(self):
        with pytest.raises(ValueError, match="matrix"):
            markov_spec_from_json({"k": 1, "states": [0.1], "initial": [1.0]})


class TestCheckMarkovDegraded:
    def test_first_order_example_pair_degraded(self):
        cert = check_markov_degraded(chain3(P3, INIT3_WEAK), chain3(Q3, INIT3_STRONG))
        assert cert.verdict
        assert not cert.conditional
        assert cert.early_status == "vacuous"

    def test_second_order_example_pair_degraded(self):
        cert = check_markov_degraded(
            chain4(P4, INIT4_WEAK, EARLY4_WEAK), chain4(Q4, INIT4_STRONG, EARLY4_STRONG)
        )
        assert cert.verdict
        assert cert.early_status == "passed"

    def test_second_order_without_early_conditionals_is_conditional(self):
        cert = check_markov_degraded(chain4(P4, INIT4_WEAK), chain4(Q4, INIT4_STRONG))
        assert not cert.verdict
        assert cert.conditional
        assert cert.early_status == "unverified"

    def test_perturbed_row_not_degraded_with_witness(self):
        q_perturbed = (("3/4", "1/8", "1/8"), P3[1], P3[2])
        cert = check_markov_degraded(chain3(P3, INIT3_WEAK), chain3(q_perturbed, INIT3_WEAK))
        assert not cert.verdict
        assert ("rows", 1, 1, 1) in cert.witnesses

    def test_unordered_initials_fail_condition_one(self):
        cert = check_markov_degraded(chain3(P3, INIT3_STRONG), chain3(Q3, ("1/2", "1/4", "1/4")))
        assert not cert.initial_ok
        assert not cert.verdict

    def test_conditions_one_and_two_are_exact(self):
        # tails above the strong chain's by 1e-15, far below a float tolerance
        eps = F(1, 10**15)
        cert = check_markov_degraded(chain3(P3, (F(1, 4) - eps, "3/8", F(3, 8) + eps)),
                                     chain3(Q3, INIT3_STRONG))
        assert not cert.initial_ok and not cert.verdict
        early = (((0.0,), (F(1, 3) - eps, F(2, 3) + eps)), EARLY4_WEAK[1])
        cert = check_markov_degraded(chain4(P4, INIT4_WEAK, early),
                                     chain4(Q4, INIT4_STRONG, EARLY4_STRONG))
        assert cert.early_status == "failed"
        assert cert.witnesses == [("early", 1, (0,), (0,))]

    def test_rows_compared_across_suffixes(self):
        # super-states 1 = (0, 0) <= 2 = (0, 1) share no suffix: after (0, 0) the
        # next state is 1, after (0, 1) it is 0, so the coupled paths split
        matrix = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0))
        weak = chain4(matrix, ("1/2", 0, 0, "1/2"),
                      (((0.0,), (1, 0)), ((1.0,), (0, 1))))
        strong = chain4(matrix, ("1/4", "1/4", 0, "1/2"),
                        (((0.0,), ("1/2", "1/2")), ((1.0,), (0, 1))))
        cert = check_markov_degraded(weak, strong)
        assert cert.initial_ok and cert.early_status == "passed"
        assert cert.to_json()["conditions"]["transition_ccdf_rows"] is False
        assert cert.witnesses == [("rows", 1, 2, 1)]
        u = np.clip(np.random.default_rng(3).random((1000, 6)), 1e-12, 1 - 1e-12)
        p1, p2 = coupled_paths(weak, strong, 6, u, force=True)
        assert not np.all(p1 <= p2)

    def test_reflexive_for_stochastically_monotone_chain(self):
        monotone = ((0.6, 0.3, 0.1), (0.3, 0.4, 0.3), (0.1, 0.3, 0.6))
        spec = chain3(monotone, ("1/3", "1/3", "1/3"))
        cert = check_markov_degraded(spec, spec)
        assert cert.verdict

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="state values"):
            check_markov_degraded(
                chain3(P3, INIT3_WEAK),
                MarkovChannelSpec(states=(0.2, 0.6, 1.1), order=1, matrix=Q3,
                                  initial=INIT3_STRONG),
            )
        first_order_binary = MarkovChannelSpec(
            states=BINARY_STATES, order=1,
            matrix=(("1/2", "1/2"), ("1/4", "3/4")), initial=("1/2", "1/2"),
        )
        with pytest.raises(ValueError, match="order"):
            check_markov_degraded(first_order_binary, chain4(Q4, INIT4_STRONG))

    def test_certificate_serializes(self):
        cert = check_markov_degraded(chain3(P3, INIT3_WEAK), chain3(Q3, INIT3_STRONG))
        payload = cert.to_json()
        assert payload["verdict"] is True
        assert payload["conditions"]["transition_ccdf_rows"] is True


def full_matrix(table, n, k):
    """The N^k x N^k matrix whose row l holds next-state law table[l] in the
    columns of the super-states that extend l."""
    rows = []
    for l, law in enumerate(table):
        row = [0] * n**k
        start = l % n ** (k - 1) * n
        row[start:start + n] = law
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def tail_laws(draw, count, n, den=8):
    """count pmfs over n states in multiples of 1/den (eighths are exact in
    binary, tenths are not), as tail vectors t[j] = den Pr(X > j), j < n - 1."""
    return [sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)),
                   reverse=True) for _ in range(count)]


def law_from_tails(tails, den=8):
    cuts = [den] + list(tails) + [0]
    return tuple(F(a - b, den) for a, b in zip(cuts, cuts[1:]))


def lifted(weak, strong, n, m, lift):
    """Raise each strong tail vector s to the elementwise max over the weak
    vectors of the histories l <= s: every such l (lift "all"), only those with
    s's suffix (lift "suffix"), or none."""
    hists = list(itertools.product(range(n), repeat=m))
    out = []
    for s, hs in zip(strong, hists):
        for w, hw in zip(weak, hists):
            below = all(a <= b for a, b in zip(hw, hs))
            if below and (lift == "all" or lift == "suffix" and hw[1:] == hs[1:]):
                s = [max(a, b) for a, b in zip(s, w)]
        out.append(s)
    return out


def chain_from_tails(tails, n, k, den=8):
    """Chain over n states whose laws after the histories of length m = 0..k
    have the tail vectors tails[m], over den; H(1) given H(0) follows the
    early law."""
    states = (0.5, 1.0, 2.0, 4.0)[:n]
    laws = {m: [law_from_tails(t, den) for t in tails[m]] for m in tails}
    h0 = laws[0][0]
    if k == 1:
        return MarkovChannelSpec(states=states, order=1, matrix=full_matrix(laws[1], n, 1),
                                 initial=h0)
    return MarkovChannelSpec(
        states=states, order=2, matrix=full_matrix(laws[2], n, 2),
        initial=[h0[i] * laws[1][i][j] for i in range(n) for j in range(n)],
        early_conditionals=tuple(((v,), law) for v, law in zip(states, laws[1])),
    )


@st.composite
def markov_pairs(draw):
    """(n, k, den, weak tails, strong tails) for chain_from_tails: plain data,
    so that a failing example prints."""
    n, k = draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2)))
    lift = draw(st.sampled_from(("all", "suffix", "none")))
    den = draw(st.sampled_from((8, 10)))
    weak = {m: draw(tail_laws(n**m, n, den)) for m in range(k + 1)}
    strong = {m: lifted(weak[m], draw(tail_laws(n**m, n, den)), n, m, lift)
              for m in range(k + 1)}
    return n, k, den, weak, strong


def cdf_levels(*specs):
    """Each cumulative level of the specs' stated laws in floats, summed in
    floats and rounded once from the exact sum, and the doubles on either
    side of each: the uniforms inside (0, 1) where a float cdf falls on one
    side or the other."""
    levels = set()
    for spec in specs:
        table, initial, early = fraction_laws(spec)
        block = len(initial) // spec.n_states
        h0 = [sum(initial[i * block:(i + 1) * block], F(0)) for i in range(spec.n_states)]
        for law in (*table, h0, *(pmf for _, pmf in early)):
            levels.update(np.cumsum(np.array(law, dtype=float)).tolist())
            levels.update(float(sum(law[:j + 1], F(0))) for j in range(len(law)))
    levels = np.array(sorted(levels))
    levels = np.concatenate([levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)])
    return levels[(levels > 0.0) & (levels < 1.0)]


class TestCertificateSoundness:
    @settings(max_examples=80, deadline=None)
    @given(pair=markov_pairs())
    # every law (3/10, 0, 7/10) against (1/10, 2/10, 7/10): equal cdfs whose
    # float sums differ, 0.3 < 0.1 + 0.2
    @example(pair=(3, 2, 10, {0: [[7, 7]], 1: [[7, 7]] * 3, 2: [[7, 7]] * 9},
                   {0: [[9, 7]], 1: [[9, 7]] * 3, 2: [[9, 7]] * 9}))
    def test_certified_pairs_couple_pathwise(self, pair):
        n, k, den, *tails = pair
        weak, strong = (chain_from_tails(t, n, k, den) for t in tails)
        if not check_markov_degraded(weak, strong).verdict:
            return
        rng = np.random.default_rng(7)
        u = np.vstack([np.clip(rng.random((500, 8)), 1e-12, 1 - 1e-12),
                       rng.choice(cdf_levels(weak, strong), (500, 8))])
        p1, p2 = coupled_paths(weak, strong, 8, u)
        assert np.all(p1 <= p2)


class TestIndecomposable:
    def test_identity_is_decomposable(self):
        eye = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
        assert check_indecomposable(chain3(eye, ("1/3", "1/3", "1/3"))) is False

    def test_a_periodic_chain_is_decomposable(self):
        assert check_indecomposable(MarkovChannelSpec((0.5, 1.0), 1, ((0, 1), (1, 0)),
                                                      ("1/2", "1/2"))) is False

    def test_positive_matrix_immediate(self):
        assert check_indecomposable(chain3(P3, INIT3_WEAK)) is True

    def test_second_order_example(self):
        assert check_indecomposable(chain4(P4, INIT4_WEAK)) is True


class TestStationaryDistribution:
    UNIFORM3 = ("1/3", "1/3", "1/3")

    @pytest.mark.parametrize("matrix, classes", [
        # every law is stationary; the eigenvector route returned (1, 0, 0)
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "[1], [2], [3]"),
        ((("1/2", "1/2", 0), ("1/2", "1/2", 0), (0, 0, 1)), "[1, 2], [3]"),
        # state 2 is transient and leaves for either closed class
        (((1, 0, 0), ("1/4", "1/2", "1/4"), (0, 0, 1)), "[1], [3]"),
    ])
    def test_more_than_one_closed_class_is_refused(self, matrix, classes):
        with pytest.raises(ValueError) as err:
            stationary_distribution(chain3(matrix, self.UNIFORM3))
        assert str(err.value) == ("the chain has more than one closed class, so no unique "
                                  f"stationary law: super-states {classes}")

    @pytest.mark.parametrize("matrix, law", [
        # the 2-cycle fails check_indecomposable, and its law is still unique
        (((0, 1), (1, 0)), [0.5, 0.5]),
        (((0, 1, 0), (0, 0, 1), (1, 0, 0)), [1 / 3, 1 / 3, 1 / 3]),
        # a transient state gets no mass, however many steps it takes to leave
        (((0, "1/2", "1/2"), (0, "1/2", "1/2"), (0, "1/2", "1/2")), [0.0, 0.5, 0.5]),
        (((0, 1, 0), (0, 0, 1), (0, 0, 1)), [0.0, 0.0, 1.0]),
    ])
    def test_one_closed_class_has_one_law(self, matrix, law):
        n = len(matrix)
        spec = MarkovChannelSpec(THREE_STATES[-n:], 1, matrix, (F(1, n),) * n)
        assert stationary_distribution(spec) == pytest.approx(law, abs=1e-15)


class TestCoupledPaths:
    def test_identical_chains_identical_paths(self):
        # self-pairs only certify for stochastically monotone chains, so use one
        monotone = ((0.6, 0.3, 0.1), (0.3, 0.4, 0.3), (0.1, 0.3, 0.6))
        spec = chain3(monotone, ("1/3", "1/3", "1/3"))
        rng = np.random.default_rng(0)
        u = np.clip(rng.random((200, 40)), 1e-12, 1 - 1e-12)
        p1, p2 = coupled_paths(spec, spec, 40, u)
        assert np.array_equal(p1, p2)

    def test_example_pair_pathwise_ordered(self):
        weak = chain3(P3, INIT3_WEAK)
        strong = chain3(Q3, INIT3_STRONG)
        rng = np.random.default_rng(11)
        u = np.clip(rng.random((2000, 60)), 1e-12, 1 - 1e-12)
        p1, p2 = coupled_paths(weak, strong, 60, u)
        assert np.mean(p1 <= p2) == 1.0

    def test_second_order_pair_pathwise_ordered(self):
        weak = chain4(P4, INIT4_WEAK, EARLY4_WEAK)
        strong = chain4(Q4, INIT4_STRONG, EARLY4_STRONG)
        rng = np.random.default_rng(13)
        u = np.clip(rng.random((2000, 60)), 1e-12, 1 - 1e-12)
        p1, p2 = coupled_paths(weak, strong, 60, u)
        assert np.mean(p1 <= p2) == 1.0

    def test_non_degraded_pair_refused_then_forced(self):
        weak = chain3(Q3, INIT3_STRONG)
        strong = chain3(P3, INIT3_WEAK)  # reversed: not certified
        rng = np.random.default_rng(29)
        u = np.clip(rng.random((500, 60)), 1e-12, 1 - 1e-12)
        with pytest.raises(ValueError, match="certified"):
            coupled_paths(weak, strong, 60, u)
        p1, p2 = coupled_paths(weak, strong, 60, u, force=True)
        assert np.mean(p1 <= p2) < 1.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, math.nan])
    def test_uniforms_outside_the_open_unit_interval_raise(self, bad):
        # the samplers' one check; a NaN once walked its paths to the least state
        spec = chain3(P3, INIT3_WEAK)
        u = np.full((3, 4), 0.5)
        u[1, 2] = bad
        with pytest.raises(ValueError, match="strictly inside"):
            coupled_paths(spec, spec, 4, u, force=True)

    def test_occupancy_converges_to_stationary(self):
        spec = chain3(P3, INIT3_WEAK)
        pi_super = stationary_distribution(spec)
        rng = np.random.default_rng(37)
        steps = 100_000
        u = np.clip(rng.random((1, steps)), 1e-12, 1 - 1e-12)
        path, _ = coupled_paths(spec, spec, steps, u, force=True)
        occupancy = np.array([np.mean(path[0] == v) for v in spec.states])
        tv = 0.5 * np.abs(occupancy - pi_super).sum()
        assert tv <= 0.02

    def test_certified_pair_ordered_at_a_rounding_boundary(self):
        # both laws put 3/10 on the lowest state; in floats 3/10 rounds below
        # 0.1 + 0.2, so a cdf summed in floats sends the weak chain above the
        # strong one for u at the next double above 3/10
        def chain(*law):
            return MarkovChannelSpec(states=(0, 1, 2), order=1, matrix=(law,) * 3, initial=law)

        weak, strong = chain("3/10", 0, "7/10"), chain("1/10", "2/10", "7/10")
        assert check_markov_degraded(weak, strong).verdict
        p1, p2 = coupled_paths(weak, strong, 1, np.array([[0.30000000000000004]]))
        assert np.all(p1 <= p2)

    def test_bad_uniform_shape_rejected(self):
        weak, strong = chain3(P3, INIT3_WEAK), chain3(Q3, INIT3_STRONG)
        with pytest.raises(ValueError, match="columns"):
            coupled_paths(weak, strong, 10, np.full((5, 9), 0.5))


# -- the parse against a per-entry Fraction reference -------------------------


def reference_fraction(x):
    try:
        if isinstance(x, (str, float, numbers.Rational)):
            return F(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"cannot interpret {x!r} as a number")


def reference_pmf(values, size, what):
    probs = tuple(reference_fraction(x) for x in values)
    if len(probs) != size or any(x < 0 for x in probs) or abs(sum(probs) - 1) > F(1, 10**12):
        raise ValueError(f"{what} must be a pmf: {size} nonnegative entries that sum to 1")
    return probs


def reference_parse(states, k, matrix, initial, early):
    """The spec's validation one entry at a time, summing Fractions:
    (states, table, initial, early_conditionals) or the error it raises."""
    states = tuple(float(reference_fraction(v)) for v in states)
    if not states or any(b <= a for a, b in zip(states, states[1:])):
        raise ValueError("state values must be a nonempty, strictly increasing list")
    n, n_super = len(states), len(states) ** k
    if len(matrix) != n_super or any(len(row) != n_super for row in matrix):
        raise ValueError(f"transition matrix must be {n_super}x{n_super}")
    table = []
    for l, row in enumerate(matrix, start=1):
        start = (l - 1) % (n_super // n) * n
        for c, x in enumerate(row, start=1):
            if not start < c <= start + n and x not in (0, "0") and reference_fraction(x) != 0:
                raise ValueError(f"entry ({l},{c}) must be zero: column state "
                                 f"{super_state(c, k, n)} does not extend row state "
                                 f"{super_state(l, k, n)}")
        table.append(reference_pmf(row[start:start + n], n, f"row {l}"))
    initial = reference_pmf(initial, n_super, "initial distribution")
    cleaned = []
    for history, pmf in early:
        hist = tuple(float(reference_fraction(v)) for v in history)
        if not 1 <= len(hist) < k or any(v not in states for v in hist):
            raise ValueError(f"early conditional history {hist} must be 1..k-1 "
                             f"state values, k = {k}")
        cleaned.append((hist, reference_pmf(pmf, n, f"conditional pmf for history {hist}")))
    return states, tuple(table), initial, tuple(cleaned)


ODD_ENTRIES = (0, 1, 2, 0.0, -0.0, 0.5, 0.25, "0", "0.0", "1", "1/2", "1/3", "0/7", False, True,
               -1, -0.5, "-1/4", "abc", "1/0", math.nan, math.inf, [0], ["1/2"], [[1]])
ZERO_SPELLINGS = (0, "0", 0.0, -0.0, False, "0.0", "0/3")
# a pmf's sum may miss 1 by 1e-12 and no more
SUM_EDGES = (F(0), F(1, 10**12), -F(1, 10**12), F(1, 10**12) + F(1, 10**13),
             -F(1, 10**12) - F(1, 10**13))


@st.composite
def pmf_entries(draw, size, edge=F(0)):
    """A pmf over `size` states whose sum is 1 + edge, each entry spelled as a
    fraction string, an int or a float."""
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    weights[draw(st.integers(0, size - 1))] += 1
    probs = [F(w, sum(weights)) for w in weights]
    probs[0] += edge
    entries = []
    for p in probs:
        spellings = [str(p)]
        if p.denominator == 1:
            spellings.append(int(p))
        if p.denominator in (1, 2, 4):
            spellings.append(float(p))
        entries.append(draw(st.sampled_from(spellings)))
    return entries


@st.composite
def raw_chains(draw):
    """(states, k, matrix, initial, early): one pmf's sum at or past the edge of
    the tolerance, and a few entries replaced by odd ones."""
    n, k = draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2)))
    n_super = n**k
    states = [0.5, "1", 2][:n]
    n_pmfs = n_super + 1 + (n if k == 2 else 0)
    edges = [F(0)] * n_pmfs
    edges[draw(st.integers(0, n_pmfs - 1))] = draw(st.sampled_from(SUM_EDGES))
    matrix = []
    for l in range(n_super):
        row = [draw(st.sampled_from(ZERO_SPELLINGS)) for _ in range(n_super)]
        start = l % (n_super // n) * n
        row[start:start + n] = draw(pmf_entries(n, edges[l]))
        matrix.append(row)
    initial = draw(pmf_entries(n_super, edges[n_super]))
    early = [([v], draw(pmf_entries(n, edge)))
             for v, edge in zip(states, edges[n_super + 1:])] if k == 2 else []
    targets = matrix + [initial] + [part for entry in early for part in entry]
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(targets))
        target[draw(st.integers(0, len(target) - 1))] = draw(st.sampled_from(ODD_ENTRIES))
    return (tuple(states), k, tuple(map(tuple, matrix)), tuple(initial),
            tuple((tuple(h), tuple(p)) for h, p in early))


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


class TestParseMatchesFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(chain=raw_chains())
    def test_same_spec_or_same_error(self, chain):
        states, k, matrix, initial, early = chain

        def parse():
            spec = MarkovChannelSpec(states=states, order=k, matrix=matrix, initial=initial,
                                     early_conditionals=early)
            return (spec.states, *fraction_laws(spec))

        got = outcome(parse)
        assert got == outcome(lambda: reference_parse(states, k, matrix, initial, early))
        if not isinstance(got[0], type):
            assert all(type(x) is F for row in got[1] for x in row)

    @pytest.mark.parametrize("delta, ok", [
        (F(1, 10**12), True), (-F(1, 10**12), True),
        (F(1, 10**12) + F(1, 10**24), False), (-F(1, 10**12) - F(1, 10**24), False)])
    def test_sum_tolerance_edge(self, delta, ok):
        matrix = ((str(F(1, 2) + delta), "1/2"), ("1/2", "1/2"))
        build = lambda: MarkovChannelSpec(states=(0.0, 1.0), order=1,  # noqa: E731
                                          matrix=matrix, initial=("1/2", "1/2"))
        if ok:
            build()
        else:
            with pytest.raises(ValueError, match="row 1 must be a pmf"):
                build()


# -- the integer certificate against a Fraction brute force -------------------


def reference_tails(law):
    """Pr(next > states[n]) for n = 0..N-1, as Fractions."""
    return [sum(law[n + 1:], F(0)) for n in range(len(law))]


def reference_violations(weak_laws, strong_laws, m, n):
    """Every pair (l, s) of length-m histories, l <= s elementwise, in
    row-major order, whose weak tail after l exceeds the strong tail after s
    somewhere, with the first such state: all as 0-based indices."""
    hists = list(itertools.product(range(n), repeat=m))
    weak_tails = [reference_tails(law) for law in weak_laws]
    strong_tails = [reference_tails(law) for law in strong_laws]
    found = []
    for l, hl in enumerate(hists):
        for s, hs in enumerate(hists):
            if all(a <= b for a, b in zip(hl, hs)):
                above = [a > b for a, b in zip(weak_tails[l], strong_tails[s])]
                if any(above):
                    found.append((l, s, above.index(True)))
    return found


def reference_certificate(weak, strong):
    """(verdict, conditional, initial_ok, early_status, rows_ok, witnesses)
    by enumerating every ordered pair and summing Fractions."""
    n, k = weak.n_states, weak.order
    (weak_table, *weak_laws), (strong_table, *strong_laws) = map(fraction_laws, (weak, strong))
    h0 = [[sum(initial[i * n ** (k - 1):(i + 1) * n ** (k - 1)], F(0)) for i in range(n)]
          for initial, _ in (weak_laws, strong_laws)]
    initial_ok = not reference_violations([h0[0]], [h0[1]], 0, n)
    witnesses = [] if initial_ok else [("initial", "H1(0) not <=_st H2(0)")]
    # the first entry for a history counts
    supplied = [dict(reversed(early)) for _, early in (weak_laws, strong_laws)]
    needed = [h for m in range(1, k) for h in itertools.product(weak.states, repeat=m)]
    if k == 1:
        early = "vacuous"
    elif not all(h in table for table in supplied for h in needed):
        early = "unverified"
    else:
        early = "passed"
        for m in range(1, k):
            hists = list(itertools.product(weak.states, repeat=m))
            laws = [[table[h] for h in hists] for table in supplied]
            for l, s, _ in reference_violations(*laws, m, n):
                early = "failed"
                witnesses.append(("early", m, super_state(l + 1, m, n), super_state(s + 1, m, n)))
    rows = reference_violations(weak_table, strong_table, k, n)
    if rows:
        l, s, j = rows[0]
        witnesses.append(("rows", l + 1, s + 1, j + 1))
    verdict = initial_ok and not rows and early in ("passed", "vacuous")
    conditional = initial_ok and not rows and early == "unverified"
    return verdict, conditional, initial_ok, early, not rows, witnesses


def certificate_fields(cert):
    return (cert.verdict, cert.conditional, cert.initial_ok, cert.early_status, cert.rows_ok,
            cert.witnesses)


@st.composite
def certificate_pairs(draw):
    """Two chains of order k over n states, weak over denominator 6 and
    strong over 4 or 10, whose laws after each history length are drawn at
    random and, per length, left so, raised to dominate, or raised and then
    lowered by one unit; with a complete, partial, missing or duplicated set
    of early conditionals.  Each chain is drawn as the plain tuple (states, k,
    matrix, initial, early) of MarkovChannelSpec's arguments, which hypothesis
    can print where it cannot print a spec."""
    n, k = draw(st.sampled_from((2, 3, 4))), draw(st.sampled_from((1, 2, 3)))
    dw, ds = 6, draw(st.sampled_from((4, 10)))
    laws = {}
    for m in range(k + 1):  # each condition passes or fails on its own
        raise_mode = draw(st.sampled_from(("dominate", "dominate", "near", "free")))
        weak = draw(tail_laws(n**m, n, dw))
        strong = draw(tail_laws(n**m, n, ds))
        if raise_mode == "free":
            laws[m] = ([law_from_tails(t, dw) for t in weak],
                       [law_from_tails(t, ds) for t in strong])
            continue
        # over dw * ds: raised to the weak tails at or below, then lowered by slack
        slack = int(raise_mode == "near")
        strong = lifted([[t * ds for t in w] for w in weak], [[t * dw for t in s] for s in strong],
                        n, m, "all")
        laws[m] = ([law_from_tails(t, dw) for t in weak],
                   [law_from_tails([max(0, t - slack) for t in s], dw * ds) for s in strong])
    early_mode = draw(st.sampled_from(("complete", "partial", "none", "duplicated")))
    states = (0.25, 0.5, 1.0, 2.0)[:n]
    specs = []
    for side in (0, 1):
        table = laws[k][side]
        h0 = laws[0][side][0]
        initial = [h0[t[0]] * F(1, n ** (k - 1)) for t in itertools.product(range(n), repeat=k)]
        early = [(tuple(states[i] for i in h), law) for m in range(1, k)
                 for h, law in zip(itertools.product(range(n), repeat=m), laws[m][side])]
        if early_mode == "partial" and early:
            early = early[:draw(st.integers(0, len(early) - 1))]
        elif early_mode == "none":
            early = []
        elif early_mode == "duplicated" and early:  # a later entry for a history is ignored
            early = early + [(early[0][0], laws[1][1 - side][-1])]
        specs.append((states, k, full_matrix(table, n, k), tuple(initial), tuple(early)))
    return tuple(specs)


def window_law(start, n, weights=(F(1, 2), F(1, 3), F(1, 6))):
    """weights placed from state `start` upwards, mass past the top folded onto it."""
    law = [F(0)] * n
    for j, w in enumerate(weights):
        law[min(max(start, 0) + j, n - 1)] += w
    return law


def window_chain(n, k, lift, broken=None):
    """Order-k chain whose next state after history h starts its window at
    max(h) + lift; the row of super-state `broken` (0-based digits) starts two
    states lower.  Early conditionals are complete."""
    table = [window_law(max(h) + lift - 2 * (h == broken), n)
             for h in itertools.product(range(n), repeat=k)]
    h0 = window_law(lift, n)
    initial = [h0[h[0]] * F(1, n ** (k - 1)) for h in itertools.product(range(n), repeat=k)]
    states = tuple(float(i + 1) for i in range(n))
    early = tuple((tuple(states[i] for i in h), window_law(max(h) + lift, n))
                  for m in range(1, k) for h in itertools.product(range(n), repeat=m))
    return MarkovChannelSpec(states=states, order=k, matrix=full_matrix(table, n, k),
                             initial=initial, early_conditionals=early)


class TestCertificateMatchesFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(pair=certificate_pairs())
    def test_same_certificate(self, pair):
        weak, strong = (MarkovChannelSpec(states=states, order=k, matrix=matrix, initial=initial,
                                          early_conditionals=early)
                        for states, k, matrix, initial, early in pair)
        cert = check_markov_degraded(weak, strong)
        assert certificate_fields(cert) == reference_certificate(weak, strong)

    @pytest.mark.parametrize("n, k, broken, witness", [
        (60, 1, (40,), ("rows", 41, 41, 40)),
        (10, 2, (3, 5), ("rows", 6, 36, 5)),
        (6, 3, (2, 1, 3), ("rows", 4, 82, 3)),
    ])
    def test_negative_chain_at_workload_size(self, n, k, broken, witness):
        weak, strong = window_chain(n, k, 0), window_chain(n, k, 1, broken)
        cert = check_markov_degraded(weak, strong)
        assert certificate_fields(cert) == (False, False, True, "vacuous" if k == 1 else "passed",
                                            False, [witness])
        assert certificate_fields(cert) == reference_certificate(weak, strong)
        assert check_markov_degraded(weak, window_chain(n, k, 1)).verdict

    @pytest.mark.parametrize("gap, verdict", [(F(0), True), (F(1, 3 * 2**55), False)])
    def test_common_denominator_past_int64(self, gap, verdict):
        weak, strong = past_int64_pair(gap)
        assert weak.table_numerators.dtype == strong.table_numerators.dtype == object
        assert math.lcm(weak.den, strong.den) >= 2**63
        cert = check_markov_degraded(weak, strong)
        assert cert.verdict is verdict
        assert certificate_fields(cert) == reference_certificate(weak, strong)
        if not verdict:
            assert cert.witnesses == [("rows", 1, 1, 1)]


def past_int64_pair(gap):
    """Two 60-state chains whose numerators are Python ints: 0.1 is
    3602879701896397 / 2^55.  With thirds the weak chain's D is 3 * 2^55, so
    D * 60 > 2^62; with 7ths, 11ths and 13ths the strong chain's is
    3003 * 2^55, and the common denominator passes 2^63 itself.  The strong
    chain's first row moves `gap` from its lowest state to the next."""
    n, tenth = 60, F(0.1)
    weak_weights = (tenth, F(1, 3), 1 - tenth - F(1, 3))
    strong_weights = (F(1, 7), F(1, 11), F(1, 13), tenth,
                      1 - tenth - F(1, 7) - F(1, 11) - F(1, 13))

    def entries(law):
        return [0.1 if x == tenth else str(x) if x else 0 for x in law]

    weak_rows = [window_law(l, n, weak_weights) for l in range(n)]
    strong_rows = [window_law(0, n, (tenth + gap, F(1, 3) - gap, weak_weights[2]))] + \
        [window_law(s + 1, n, strong_weights) for s in range(1, n)]
    return tuple(MarkovChannelSpec(states=tuple(range(1, n + 1)), order=1,
                                   matrix=[entries(law) for law in rows],
                                   initial=entries(weak_rows[0]))
                 for rows in (weak_rows, strong_rows))


def past_2_53():
    """Three states, every law (0.1, 2/3, rest): D = 3 * 2^55 and int64
    numerators past 2^53, where a double no longer holds every integer."""
    law = (0.1, "2/3", str(1 - F(0.1) - F(2, 3)))
    return MarkovChannelSpec(states=(0.0, 1.0, 2.0), order=1, matrix=(law,) * 3, initial=law)


def reference_ccdf(spec):
    """ccdf_matrix from the Fraction table: each full row's tail sums."""
    rows = full_matrix(fraction_laws(spec)[0], spec.n_states, spec.order)
    return tuple(tuple(itertools.accumulate(reversed(row[1:]), initial=F(0)))[::-1]
                 for row in rows)


class TestExactViews:
    def test_int64_numerators_past_2_53(self):
        spec = past_2_53()
        assert spec.den == 108086391056891904
        assert spec.table_numerators.dtype == np.int64
        assert spec.table_numerators.max() > 2**53
        reference = np.array(fraction_laws(spec)[0], dtype=float)
        # numpy rounds each int64 to a double before it divides: two entries a row differ
        assert not np.array_equal(spec.table_numerators / spec.den, reference)
        assert spec.matrix_float().tobytes() == reference.tobytes()
        assert ccdf_matrix(spec) == reference_ccdf(spec)

    @pytest.mark.parametrize("side", [0, 1], ids=["weak", "strong"])
    def test_python_int_numerators(self, side):
        spec = past_int64_pair(F(1, 3 * 2**55))[side]
        assert spec.table_numerators.dtype == object
        reference = np.array(fraction_laws(spec)[0], dtype=float)
        assert spec.matrix_float().tobytes() == reference.tobytes()
        assert ccdf_matrix(spec) == reference_ccdf(spec)


def rebuilt(spec):
    """The spec built again from its own record, each law as fraction strings."""
    def strings(law):
        return [str(x) for x in law]

    table, initial, early = fraction_laws(spec)
    return MarkovChannelSpec(
        states=spec.states, order=spec.order,
        matrix=full_matrix([strings(law) for law in table], spec.n_states, spec.order),
        initial=strings(initial), early_conditionals=[(h, strings(law)) for h, law in early])


RECORD_SPECS = {
    "k=1": lambda: chain3(P3, INIT3_WEAK),
    "k=2": lambda: chain4(P4, INIT4_WEAK),
    "k=2 with early": lambda: chain4(P4, INIT4_WEAK, EARLY4_WEAK),
    "int64 past 2^53": past_2_53,
    "Python ints, weak": lambda: past_int64_pair(F(1, 3 * 2**55))[0],
    "Python ints, strong": lambda: past_int64_pair(F(1, 3 * 2**55))[1],
}
NUMERATORS = ("table_numerators", "initial_numerators", "early_numerators")


class TestOneRecord:
    """A spec keeps its laws once, as read-only integer numerators over den."""

    @pytest.mark.parametrize("name", list(RECORD_SPECS)[:3])
    def test_fraction_fields_are_gone(self, name):
        spec = RECORD_SPECS[name]()
        for removed in ("table", "initial", "early_conditionals"):
            assert not hasattr(spec, removed)

    @pytest.mark.parametrize("name", RECORD_SPECS)
    def test_rebuilt_from_its_record(self, name):
        spec = RECORD_SPECS[name]()
        again = rebuilt(spec)
        assert (again.states, again.order, again.den, again.histories) == \
            (spec.states, spec.order, spec.den, spec.histories)
        for field in NUMERATORS:
            ours, theirs = getattr(spec, field), getattr(again, field)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)

    def test_record_is_read_only(self):
        weak = chain4(P4, INIT4_WEAK, EARLY4_WEAK)
        strong = chain4(Q4, INIT4_STRONG, EARLY4_STRONG)
        before = certificate_fields(check_markov_degraded(weak, strong))
        assert before[0] is True
        for field in NUMERATORS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(weak, field)[0] = 0
        assert certificate_fields(check_markov_degraded(weak, strong)) == before
        assert not any(getattr(RECORD_SPECS[name](), field).flags.writeable
                       for name in RECORD_SPECS for field in NUMERATORS)

    def test_specs_compare_by_identity(self):
        spec = chain3(P3, INIT3_WEAK)
        assert spec == spec and spec != chain3(P3, INIT3_WEAK)


def with_entries(rows, *changes):
    """rows (a tuple of tuples) with entries (i, j) replaced: changes are (i, j, value)."""
    out = [list(row) for row in rows]
    for i, j, value in changes:
        out[i][j] = value
    return tuple(map(tuple, out))


# P4 in rows 1-4 (0-based 0-3); its off-block entries are columns 2, 3 of rows
# 0 and 2 and columns 0, 1 of rows 1 and 3
BAD_ORDER_CASES = {
    "bad pmf, then off-block entry": (
        with_entries(P4, (1, 2, "1/2"), (2, 3, "1/5")), INIT4_WEAK, EARLY4_WEAK,
        "row 2 must be a pmf"),
    "off-block entry, then bad pmf": (
        with_entries(P4, (1, 0, "1/5"), (2, 0, "1/2")), INIT4_WEAK, EARLY4_WEAK,
        "entry (2,1) must be zero"),
    "off-block entry and bad pmf in one row": (
        with_entries(P4, (1, 0, "1/5"), (1, 2, "1/2")), INIT4_WEAK, EARLY4_WEAK,
        "entry (2,1) must be zero"),
    "negative entry, then unreadable entry": (
        with_entries(P4, (0, 0, "-1/2"), (0, 1, "3/2"), (1, 2, "abc")), INIT4_WEAK,
        EARLY4_WEAK, "row 1 must be a pmf"),
    "unreadable entry, then bad pmf": (
        with_entries(P4, (0, 1, "abc"), (1, 2, "1/2")), INIT4_WEAK, EARLY4_WEAK,
        "cannot interpret 'abc'"),
    "bad last row, then unreadable initial": (
        with_entries(P4, (3, 3, "1/5")), ("abc",) + INIT4_WEAK[1:], EARLY4_WEAK,
        "row 4 must be a pmf"),
    "initial 'abc', then bad early pmf": (
        P4, ("abc",) + INIT4_WEAK[1:], (((0.0,), ("1/2", "1/3")), EARLY4_WEAK[1]),
        "cannot interpret 'abc'"),
    "initial '1/0', then bad early pmf": (
        P4, ("1/0",) + INIT4_WEAK[1:], (((0.0,), ("1/2", "1/3")), EARLY4_WEAK[1]),
        "cannot interpret '1/0'"),
    "initial nan, then bad early pmf": (
        P4, (math.nan,) + INIT4_WEAK[1:], (((0.0,), ("1/2", "1/3")), EARLY4_WEAK[1]),
        "cannot interpret nan"),
    "bad initial sum, then bad early history": (
        P4, ("1/2",) + INIT4_WEAK[1:], (((0.5,), ("1/2", "1/2")),),
        "initial distribution must be a pmf"),
    "short initial, then bad early pmf": (
        P4, INIT4_WEAK[1:], (((0.0,), ("1/2", "1/3")),), "initial distribution must be a pmf"),
    "bad early pmf, then short early pmf": (
        P4, INIT4_WEAK, (((0.0,), ("1/2", "1/3")), ((1.0,), ("1",))),
        "conditional pmf for history (0.0,) must be a pmf"),
    "bad early pmf, then unreadable history": (
        P4, INIT4_WEAK, (((0.0,), ("-1", "2")), (("abc",), ("1/2", "1/2"))),
        "conditional pmf for history (0.0,) must be a pmf"),
    "short early pmf, then bad early pmf": (
        P4, INIT4_WEAK, (((0.0,), ("1",)), ((1.0,), ("1/2", "1/3"))),
        "conditional pmf for history (0.0,) must be a pmf"),
}


class TestParseErrorOrder:
    """The pmf sums are checked together, after every entry is read; the
    errors still come out in reading order, row by row."""

    @pytest.mark.parametrize("case", BAD_ORDER_CASES, ids=list(BAD_ORDER_CASES))
    def test_same_error_as_the_reference(self, case):
        matrix, initial, early, message = BAD_ORDER_CASES[case]
        got = outcome(lambda: MarkovChannelSpec(states=BINARY_STATES, order=2, matrix=matrix,
                                                initial=initial, early_conditionals=early))
        assert got == outcome(lambda: reference_parse(BINARY_STATES, 2, matrix, initial, early))
        assert got[0] is ValueError and got[1].startswith(message)


# -- the off-block zero scan against the per-entry reference -------------------

OFF_BLOCK_ZEROS = (0, 0.0, -0.0, False, "0", "0/1", "-0")
OFF_BLOCK_NONZERO = ("1e-300", 1e-300, [0], "abc", "1/2", 1, True)


@st.composite
def zero_spelled_chains(draw):
    """(states, k, matrix, initial): each row's block a pmf and each off-block
    entry a zero in a spelling drawn per entry."""
    # k >= 2: at k = 1 the one block is the whole row
    n, k = draw(st.sampled_from(((2, 2), (3, 2), (2, 3))))
    n_super = n**k
    matrix = []
    for l in range(n_super):
        row = [draw(st.sampled_from(OFF_BLOCK_ZEROS)) for _ in range(n_super)]
        start = l % (n_super // n) * n
        row[start:start + n] = draw(pmf_entries(n))
        matrix.append(row)
    return (0.5, 1.0, 2.0)[:n], k, matrix, draw(pmf_entries(n_super))


def canonical_zeros(matrix, n, k, zero="0"):
    """matrix with every off-block entry spelled zero: "0" as the JSON form
    writes it, or 0 as a JSON number."""
    n_super = n**k
    out = []
    for l, row in enumerate(matrix):
        start = l % (n_super // n) * n
        out.append([zero] * start + list(row[start:start + n]) + [zero] * (n_super - start - n))
    return out


class ReadOnceRow(list):
    """A row that fails if it is read entry by entry rather than counted."""

    def __iter__(self):
        raise AssertionError("row read entry by entry")


class TestZeroScan:
    """A row whose off-block entries all equal its first, 0 or "0", is
    accepted by a count; any other row is read entry by entry, with the same
    record or error."""

    @settings(max_examples=150, deadline=None)
    @given(chain=zero_spelled_chains())
    def test_any_zero_spelling_gives_the_same_record(self, chain):
        states, k, matrix, initial = chain
        spec = MarkovChannelSpec(states=states, order=k, matrix=matrix, initial=initial)
        for zero in ("0", 0, 0.0, False):
            rows = canonical_zeros(matrix, len(states), k, zero)
            counted = MarkovChannelSpec(states=states, order=k, initial=initial,
                                        matrix=[ReadOnceRow(row) for row in rows])
            assert spec.den == counted.den
            for field in NUMERATORS:
                ours, theirs = getattr(spec, field), getattr(counted, field)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        table, init, _ = reference_parse(states, k, matrix, initial, ())[1:]
        assert fraction_laws(spec)[:2] == (table, init)

    @settings(max_examples=150, deadline=None)
    @given(chain=zero_spelled_chains(), canonical=st.sampled_from([None, "0", 0]),
           where=st.data(), bad=st.sampled_from(OFF_BLOCK_NONZERO))
    def test_one_nonzero_entry_raises_the_same_error(self, chain, canonical, where, bad):
        states, k, matrix, initial = chain
        n, n_super = len(states), len(states)**k
        if canonical is not None:
            matrix = canonical_zeros(matrix, n, k, canonical)
        l = where.draw(st.integers(0, n_super - 1))
        start = l % (n_super // n) * n
        c = where.draw(st.sampled_from([c for c in range(n_super) if not start <= c < start + n]))
        matrix[l][c] = bad
        got = outcome(lambda: MarkovChannelSpec(states=states, order=k, matrix=matrix,
                                                initial=initial))
        assert got[0] is ValueError
        assert got == outcome(lambda: reference_parse(states, k, matrix, initial, ()))

    def test_numpy_rows_have_no_count_and_are_read_entry_by_entry(self):
        rows = [[0.5, 0.5, 0, 0], [0, 0, 0.25, 0.75], [0.5, 0.5, 0, 0], [0, 0, 0.125, 0.875]]
        spec = MarkovChannelSpec(BINARY_STATES, 2, np.array(rows), np.full(4, 0.25))
        listed = MarkovChannelSpec(BINARY_STATES, 2, rows, [0.25] * 4)
        assert spec.den == listed.den
        assert np.array_equal(spec.table_numerators, listed.table_numerators)
        bad = np.array(rows)
        bad[1, 0] = 1e-300
        with pytest.raises(ValueError, match=r"entry \(2,1\) must be zero"):
            MarkovChannelSpec(BINARY_STATES, 2, bad, np.full(4, 0.25))
