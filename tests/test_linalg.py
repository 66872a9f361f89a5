from fractions import Fraction

import pytest

from mcluster.linalg import SpanBuilder


def test_reduce_against_a_non_unit_pivot():
    # the pivot 2 is cleared by cross-multiplying, and the scale comes back
    # as the denominator of the residual
    sb = SpanBuilder(2)
    assert sb.add([2, 1])
    assert sb.reduce([1, 0]) == [0, Fraction(-1, 2)]


def test_a_row_with_denominators_spans_its_integer_multiple():
    sb = SpanBuilder(2)
    assert sb.add([Fraction(1, 2), Fraction(1, 3)])
    assert not sb.add([3, 2])
    assert sb.rank == 1


def test_a_vector_of_the_wrong_width_is_rejected():
    sb = SpanBuilder(2)
    with pytest.raises(ValueError):
        sb.add([1, 0, 0])
    with pytest.raises(ValueError):
        sb.reduce([1])
