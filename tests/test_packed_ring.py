"""The shared packed ring of ``nreflect.scalars`` against ``scalars._reduce``.

Numerator vectors of Q(zeta_N) are packed w bits a digit, in groups of
S = 2 phi - 1 digits; a group is folded mod Phi_N in packed form and read
back as balanced digits.  For each order and width the oracle takes the
largest digit bound B that the width rule admits at w, packs every sign
pattern of S digits +-B, alone and as two groups of one int, and checks
that fold and read-back give the coordinates that ``_reduce`` gives the same
digits.  The sign patterns include the one that puts a folded coordinate at
B times the fold factor, the most the width holds.  Vectors of phi digits
+-(2^(w-1) - 1), which the fold leaves alone, read back as they are, and
a zero group is not read back.
"""

from itertools import product

import pytest

from nreflect.scalars import _pack, _reduce, _ring, _width, euler_phi


def nonzero(*groups):
    """{g: coordinates} over the nonzero groups, as the read-back gives them."""
    return {g: tuple(vec) for g, vec in enumerate(groups) if any(vec)}


@pytest.mark.parametrize("order", [1, 3, 4, 5, 8, 12])
@pytest.mark.parametrize("width", [64, 128, 192])
def test_pack_fold_read_is_the_reduction(order, width):
    phi, top = euler_phi(order), (1 << width - 1) - 1
    grow = _ring(order, 1).grow
    bound = top // grow  # the largest digit bound whose fold the width holds
    ring = _ring(order, bound)
    assert ring.width == width == _width(bound * grow) < _width((bound + 1) * grow)
    reached = 0
    for signs in product((1, -1), repeat=ring.span):
        digits = [s * bound for s in signs]
        want = _reduce(order, digits)
        reached = max(reached, *map(abs, want))
        assert ring.vectors([ring.fold(_pack(digits, width))]) == nonzero(want)
        second = digits[::-1]
        two = _pack(digits, width) + (_pack(second, width) << ring.span * width)
        assert ring.vectors([ring.fold(two)], 2) == nonzero(want, _reduce(order, second))
    assert reached == bound * grow
    for signs in product((1, -1), repeat=phi):
        vec = tuple(s * top for s in signs)
        assert ring.vectors([ring.fold(_pack(vec, width)), ring.fold(0)]) == {0: vec}
