import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkp5 import (
    BasisCombination,
    build_representation,
    combination_product,
    eval_basis_combination,
    reduce_word,
    representation_from_betas,
    word_matrix_product,
    word_reduction_sweep,
)
from dkp5.errors import ModeError, WordIndexError
from dkp5.scalars import GaussianRational
from dkp5.scalars import checked_matmul
from dkp5 import words as words_module
from dkp5.words import IDX_I, STRUCTURE648, idx_beta

words = st.lists(st.integers(min_value=0, max_value=3), max_size=4)


def _all_zero(mat):
    return all(not x for x in np.asarray(mat).reshape(-1))


def test_spec_words():
    assert reduce_word((0, 1, 0)).nonzero() == []
    for mu in range(4):
        assert reduce_word((mu,)) == BasisCombination.unit(idx_beta(mu))
    assert reduce_word((0, 0, 0)) == BasisCombination.unit(idx_beta(0))
    assert reduce_word(()) == BasisCombination.unit(IDX_I)


def test_bad_index_rejected():
    with pytest.raises(WordIndexError):
        reduce_word((0, 4))
    with pytest.raises(WordIndexError):
        reduce_word((-1,))


def test_eval_trivialities(exact_rep):
    zero = eval_basis_combination(exact_rep, BasisCombination.zero())
    assert _all_zero(zero)
    ident = eval_basis_combination(exact_rep, BasisCombination.unit(IDX_I))
    assert _all_zero(ident - exact_rep.identity)


def test_mode_mismatch(float_rep):
    with pytest.raises(ModeError):
        eval_basis_combination(float_rep, reduce_word((0,)))


def test_structure_tables_match_matrices(exact_rep):
    """Every product basis_i basis_j equals row i of STRUCTURE648[j] / 648 on the basis."""
    basis = exact_rep.basis
    for i in range(25):
        for j in range(25):
            combo = BasisCombination([Fraction(int(c), 648) for c in STRUCTURE648[j, i]])
            rhs = eval_basis_combination(exact_rep, combo, basis=basis)
            assert _all_zero(basis[i] @ basis[j] - rhs), (i, j)


def test_oracle_equivalence_short_words(exact_rep):
    basis = exact_rep.basis
    for length in range(4):
        for word in product(range(4), repeat=length):
            got = eval_basis_combination(exact_rep, reduce_word(word), basis=basis)
            want = word_matrix_product(exact_rep, word)
            assert _all_zero(got - want), word


def test_sweep_float_mode(float_rep):
    words_checked, mismatches, max_res = word_reduction_sweep(float_rep, 3, tol=1e-12)
    assert words_checked == 4 + 16 + 64
    assert mismatches == 0
    assert max_res < 1e-13


def _scaled_generator_rep(rep, factor, which=range(4)):
    return representation_from_betas(
        [factor * b if mu in which else b for mu, b in enumerate(rep.beta)], rep.mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sweep_flags_a_doubled_generator(mode):
    """The batched sweep agrees with a word-by-word reference on a broken representation."""
    rep = _scaled_generator_rep(build_representation(mode), 2, which=(2,))
    residuals = []
    for word in (w for n in range(1, 4) for w in product(range(4), repeat=n)):
        # the reduction's coefficients on the basis, in the representation's arithmetic
        got = sum((c if mode == "exact" else complex(c)) * rep.basis[i] for i, c in reduce_word(word).nonzero())
        diff = got - word_matrix_product(rep, word)
        residuals.append(max(float(abs(x)) for x in diff.reshape(-1)))
    words_checked, mismatches, max_res = word_reduction_sweep(rep, 3)
    assert words_checked == len(residuals) == 84
    assert mismatches == sum(r > (0 if mode == "exact" else 1e-12) for r in residuals) > 0
    assert max_res == pytest.approx(max(residuals), rel=1e-15) and max_res > 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_sweep_blocks_agree_with_whole_levels(mode, monkeypatch):
    """Blocks smaller than a level give the same counts and residual as whole levels."""
    for rep in (build_representation(mode),
                _scaled_generator_rep(build_representation(mode), 2, which=(2,))):
        whole = word_reduction_sweep(rep, 5)
        monkeypatch.setattr(words_module, "_BLOCK", 3)
        assert word_reduction_sweep(rep, 5) == whole
        monkeypatch.undo()
    assert whole[1] > 0 and whole[2] > 0


@pytest.mark.parametrize("factor, max_len", [(10**6, 3), (10**3, 8)])
def test_exact_sweep_overflow_raises(exact_rep, factor, max_len):
    with pytest.raises(OverflowError):
        word_reduction_sweep(_scaled_generator_rep(exact_rep, factor), max_len)


def test_checked_matmul_bound():
    big = np.array([[2**60]], dtype=np.int64)
    assert checked_matmul(big, np.array([[3]]))[0, 0] == 3 * 2**60
    with pytest.raises(OverflowError):
        checked_matmul(big, np.array([[4]]))
    with pytest.raises(OverflowError):
        checked_matmul(np.array([[-2**63]], dtype=np.int64), np.array([[1]]))
    with pytest.raises(OverflowError):  # batched: 3 * 2**61 per entry
        checked_matmul(np.full((2, 1, 3), 2**61), np.ones((3, 1), dtype=np.int64))
    # A float or complex operand cannot wrap round: the product is a @ b as it is.
    for other in (np.array([[4.0]]), np.array([[4 + 1j]])):
        assert np.array_equal(checked_matmul(4 * big, other), 4 * big @ other)
        assert np.array_equal(checked_matmul(other, 4 * big), other @ (4 * big))


def test_exact_sweep_needs_integer_generators(exact_rep):
    with pytest.raises(ModeError):
        word_reduction_sweep(_scaled_generator_rep(exact_rep, Fraction(1, 2)), 1)


@given(words, words)
@settings(max_examples=60, deadline=None)
def test_reduction_is_multiplicative(w1, w2):
    lhs = reduce_word(tuple(w1) + tuple(w2))
    rhs = combination_product(reduce_word(w1), reduce_word(w2))
    assert lhs == rhs


def test_quartic_case_via_reduction():
    # b0 b1 b1 b0 reduces to -eta_11 b0 b0 + (1/3)(b^2 - I) style terms;
    # checked against the direct product instead of trusting the formula.
    rep = build_representation("exact")
    combo = reduce_word((0, 1, 1, 0))
    got = eval_basis_combination(rep, combo)
    want = word_matrix_product(rep, (0, 1, 1, 0))
    assert _all_zero(got - want)


def test_json_round_trip():
    combo = reduce_word((0, 1, 1, 0))
    obj = combo.to_json_obj()
    text = json.dumps(obj)
    back = BasisCombination.from_json_obj(json.loads(text))
    assert back == combo
    quarters = [q for entry in obj for q in entry]
    assert all(isinstance(q, int) for q in quarters)


def test_combination_normalizes_coefficients():
    combo = BasisCombination([Fraction(1, 2)] + [0] * 24)
    assert isinstance(combo.coeffs[0], GaussianRational)
    assert combo.coeffs[0] == Fraction(1, 2)
