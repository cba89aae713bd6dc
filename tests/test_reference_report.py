"""The report's exact counts and verdicts against the slow route of
reference_report.py."""

from fractions import Fraction

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from reference_report import reference_report
from sidonlab.counting import EquationCoeffs
from sidonlab.errors import BudgetExceededError, ValidationError
from sidonlab.sets import IntegerSet, erdos_turan
from sidonlab.transference import transference_report

# (set, eps, |B|): B = {0} on ET(11), smoothing on the other two
FAMILIES = [
    (erdos_turan(11), Fraction(1, 5), 1),
    (IntegerSet(tuple(2 * x for x in erdos_turan(7).elements), 196),
     Fraction(11, 24), 7),
    (IntegerSet(tuple(range(2, 65, 2)), 64), Fraction(1, 4), 17),
]

EPS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5),
       Fraction(1, 10)]


@st.composite
def zero_sum_coeffs(draw):
    """s = 5, 6 or 7 nonzero coefficients in [-4, 4] summing to zero."""
    s = draw(st.sampled_from([5, 6, 7]))
    head = draw(st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
                         min_size=s - 1, max_size=s - 1).filter(sum))
    return (*head, -sum(head))


def verdict(v):
    return v.lhs, v.rhs, v.holds, v.applicable


def check(s_set, eps, coeffs):
    """Every exact count and verdict of the report equals the reference's;
    returns |B|."""
    rep = transference_report(s_set, EquationCoeffs(coeffs), eps)
    model = rep.model
    try:
        ref = reference_report(s_set.elements, s_set.ambient_n, model.spectrum,
                               eps, coeffs)
    except BudgetExceededError:
        reject()
    g = {model.base.offset + j: x for j, x in enumerate(model.base.nums) if x}
    level = rep.level_set
    assert ref == {
        "n_padded": model.n_padded,
        "density": model.padded.density,
        "bohr": model.bohr.elements,
        "g": g,
        "mass": model.mass,
        "square_sum": model.square_sum,
        "nu_mass": rep.nu_mass,
        "nu_energy": rep.nu_energy,
        "set_count_raw": rep.set_count_raw,
        "set_count": rep.set_count,
        "model_count": rep.model_count,
        "difference": rep.difference,
        "mass_identity": model.mass_identity_holds,
        "containment": model.containment_holds,
        "bohr_size_bound": verdict(model.size_bound),
        "repeated_difference": verdict(rep.repeated_difference),
        "size_bound": verdict(rep.size_bound),
        "model_l2": verdict(rep.model_l2),
        "level_set": (level.level_set, level.hyp_mass_ok, level.hyp_l2_ok,
                      level.lhs, level.rhs, level.holds),
        "theorem_verdicts_hold": rep.theorem_verdicts_hold,
    }
    return model.bohr.size


@pytest.mark.parametrize("s_set, eps, size", FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(coeffs=zero_sum_coeffs())
def test_structured_sets(s_set, eps, size, coeffs):
    assert check(s_set, eps, coeffs) == size


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(4, 150).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(1, n), min_size=1, max_size=32))),
    st.sampled_from(EPS), zero_sum_coeffs())
def test_small_sets(drawn, eps, coeffs):
    n, elems = drawn
    try:
        size = check(IntegerSet(tuple(sorted(elems)), n), eps, coeffs)
    except ValidationError:  # eps above the density of the padded set
        reject()
    event("B = {0}" if size == 1 else "|B| > 1")
