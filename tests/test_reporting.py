from fractions import Fraction

import pytest

from nreflect.gaudin import SpinRows
from nreflect.linalg import Matrix
from nreflect.reporting import build_report, residual_entry
from nreflect.scalars import cyclotomic, scalar_to_str, zeta
from nreflect.spinalg import s_minus, s_plus, s_z


def test_empty_report_never_passes():
    report = build_report("nre", "id-2refl", 0, [])
    assert report["verdict"] == "fail"
    assert report["reason"] == "nothing was checked"


def test_report_passes_only_when_every_entry_passes():
    good = {"sample": ["1"], "status": "exact-zero"}
    bad = {"sample": ["2"], "status": "nonzero", "witness": {"value": "1"}}
    assert build_report("nre", "id-2refl", 0, [good])["verdict"] == "pass"
    assert build_report("nre", "id-2refl", 0, [good, bad])["verdict"] == "fail"
    assert "reason" not in build_report("nre", "id-2refl", 0, [good])


# -- the text of every value a report holds, pinned as literal strings ---------

POINT = (Fraction(-3, 2), Fraction(4), Fraction(0))
CYCLOTOMICS = {
    3: (cyclotomic(3, [Fraction(-1, 2), Fraction(2, 3)]), "-1/2 + 2/3*z"),
    4: (cyclotomic(4, [0, Fraction(-5, 4)]), "-5/4*z"),
    5: (cyclotomic(5, [Fraction(1, 3), -1, 0, Fraction(-7, 2)]), "1/3 - z - 7/2*z^3"),
    8: (cyclotomic(8, [-2, 0, 1, Fraction(-3, 5)]), "-2 + z^2 - 3/5*z^3"),
}
SPIN = (zeta(3) * s_z(1) * s_plus(2) - Fraction(1, 2) * s_minus(1) + (1 - 2 * zeta(3))
        + CYCLOTOMICS[3][0] * s_z(2) * s_z(2))
SPIN_TEXT = "(-1/2 + 2/3*z)*s2z^2 + z*s1z*s2+ - 1/2*s1- + 1 - 2*z"


def test_rational_entries_render_as_p_over_q():
    assert residual_entry(POINT, Fraction(-7, 3)) == {
        "sample": ["-3/2", "4", "0"], "status": "nonzero", "witness": {"value": "-7/3"}}
    assert residual_entry(POINT, Fraction(0)) == {"sample": ["-3/2", "4", "0"], "status": "exact-zero"}
    assert residual_entry(POINT, Matrix([[0, 0], [Fraction(-5), Fraction(2, 3)]]))["witness"] == {
        "row": 1, "col": 0, "value": "-5"}
    assert Matrix([[Fraction(-3, 2), Fraction(4)], [Fraction(0), Fraction(5, 7)]]).pretty() == (
        "[-3/2    4]\n"
        "[   0  5/7]")


@pytest.mark.parametrize("order", sorted(CYCLOTOMICS))
def test_cyclotomic_text(order):
    value, text = CYCLOTOMICS[order]
    assert str(value) == scalar_to_str(value) == text
    assert repr(value) == f"Cyclotomic({order}, {text!r})"


def test_cyclotomic_entries():
    (c3, _), (c4, _), (c5, _), (c8, _) = (CYCLOTOMICS[order] for order in (3, 4, 5, 8))
    assert residual_entry((c3, c4), Matrix([[0, c5]])) == {
        "sample": ["-1/2 + 2/3*z", "-5/4*z"], "status": "nonzero",
        "witness": {"row": 0, "col": 1, "value": "1/3 - z - 7/2*z^3"}}
    assert Matrix([[c8, Fraction(-1)], [0, c8 * c8]]).pretty() == (
        "[-2 + z^2 - 3/5*z^3                                 -1]\n"
        "[                 0  3 + 6/5*z - 109/25*z^2 + 12/5*z^3]")


def test_spin_polynomial_witness_and_label_samples():
    assert residual_entry(("H_1",), SPIN) == {
        "sample": ["H_1"], "status": "nonzero", "witness": {"value": SPIN_TEXT}}
    assert residual_entry(("H_1", "H_2"), SPIN - SPIN) == {"sample": ["H_1", "H_2"], "status": "exact-zero"}
    # spin-polynomial rows are witnessed as a Matrix is, row by row; a Matrix holds no spin polynomial
    zero = SPIN - SPIN
    rows = SpinRows(((zero, SPIN), (Fraction(-1, 2) * s_z(1), zero)))
    assert residual_entry(POINT, rows) == {
        "sample": ["-3/2", "4", "0"], "status": "nonzero", "witness": {"row": 0, "col": 1, "value": SPIN_TEXT}}
    assert residual_entry(POINT, SpinRows(((zero,),))) == {"sample": ["-3/2", "4", "0"], "status": "exact-zero"}
    with pytest.raises(TypeError, match="^Matrix needs exact scalar entries of one field$"):
        Matrix([[SPIN, 0], [Fraction(-1, 2), CYCLOTOMICS[3][0]]])


def test_scalar_to_str_takes_numbers_and_refuses_labels():
    assert scalar_to_str(1.5) == "3/2"
    with pytest.raises(ValueError):
        scalar_to_str("H_1")
    with pytest.raises(TypeError):
        scalar_to_str(SPIN)
