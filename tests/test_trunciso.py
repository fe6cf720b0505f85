"""Classification of truncated semirings and the explicit isomorphisms."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from bipermute.errors import DomainError
from bipermute.sampling import derive_rng
from bipermute.scalars import NEG_INF
from bipermute.semirings import Check, Finite, element_order, trunc
from bipermute.trunciso import (
    PiecewiseLinearMap,
    apply_iso,
    classify_truncated,
    max_element_order,
    max_order_by_iteration,
    verify_iso,
)


def _fixes_every_point(iso):
    return all(s.slope == 1 and s.intercept == 0 for s in iso.segments)


def test_classification_cases():
    assert classify_truncated(2, 4).canonical == "T12"
    assert classify_truncated(2, 5).canonical == "T1_2p5"
    assert classify_truncated(0, 7).canonical == "T01"
    cl = classify_truncated(1, 3)
    assert cl.canonical == "T1" and cl.ratio == 3 and _fixes_every_point(cl.map)
    # the statement's boundary: y = 3x belongs to the rescaling case
    assert classify_truncated(2, 6).canonical == "T1"
    assert classify_truncated(2, 6).ratio == 3
    with pytest.raises(DomainError, match="need 0 <= x < y, got"):
        classify_truncated(3, 2)
    with pytest.raises(DomainError, match="need 0 <= x < y, got"):
        classify_truncated(-1, 2)


def test_apply_iso_values():
    cl = classify_truncated(2, 5)
    assert [apply_iso(cl.map, v) for v in (2, 3, 4, 5)] == [1, F(3, 2), 2, F(5, 2)]
    assert apply_iso(cl.map, F(7, 2)) == F(7, 4)
    assert apply_iso(cl.map, NEG_INF) is NEG_INF
    assert apply_iso(cl.map, 0) == 0
    assert apply_iso(classify_truncated(0, 7).map, 7) == 1
    with pytest.raises(DomainError, match="lies outside the map's domain"):
        apply_iso(cl.map, 1)


@pytest.mark.parametrize("interval", [(0, 7), (2, 4), (3, 7), (1, 3)])
def test_apply_iso_fixes_zero_and_keeps_int_and_fraction_points_alike(interval):
    cl = classify_truncated(*interval)
    image = apply_iso(cl.map, 0)
    assert image == 0 and type(image) is int
    for point in range(interval[0], interval[1] + 1):
        from_int, from_fraction = apply_iso(cl.map, point), apply_iso(cl.map, F(point))
        assert from_int == from_fraction and type(from_int) is type(from_fraction)


def test_three_piece_map_levels():
    # pick an instance where the two slopes differ: x=3, y=7 (2x=6 < 7 < 9=3x)
    cl = classify_truncated(3, 7)
    assert cl.canonical == "T1_2p5"
    assert apply_iso(cl.map, 3) == 1
    assert apply_iso(cl.map, 4) == F(3, 2)  # y-x boundary
    assert apply_iso(cl.map, 6) == 2  # 2x boundary
    assert apply_iso(cl.map, 7) == F(5, 2)
    assert apply_iso(cl.map, 5) == F(7, 4)  # interior of the middle piece


def test_maps_strictly_increasing_on_grids():
    rng = derive_rng(40, "mono-grid")
    for x, y in [(0, 3), (2, 4), (3, 7), (1, 9), (F(3, 2), F(7, 2))]:
        cl = classify_truncated(x, y)
        points = sorted(F(x) + (F(y) - F(x)) * F(t, 97) for t in range(98))
        images = [apply_iso(cl.map, p) for p in points]
        assert all(a < b for a, b in zip(images, images[1:]))
        assert images[0] == cl.target.x and images[-1] == cl.target.y


def test_verify_iso_reports():
    for x, y in [(2, 5), (2, 4), (0, 7), (1, 3), (5, 8), (F(1, 3), F(5, 9))]:
        cl = classify_truncated(x, y)
        report = verify_iso(cl.map, cl.source, cl.target, seed=11, trials=800)
        assert report.passed, (x, y, [c for c in report.checks if not c.passed])


def test_verify_iso_counterexamples_are_pinned():
    # the [2, 4] map with slope 1/3 instead of 1/2 sends [2, 4] onto [1, 5/3]
    cl = classify_truncated(2, 4)
    broken = PiecewiseLinearMap((replace(cl.map.segments[0], slope=F(1, 3)),))
    assert verify_iso(broken, cl.source, cl.target, seed=11, trials=200).checks == (
        Check("preserves_add", True),
        Check("preserves_mul", False, (F(4), F(2))),
        Check("preserves_order", True),
        Check("endpoints", False, (F(2), F(4))),
        Check("sentinels", True),
    )
    # the [3, 7] map with its middle piece raised by 1/8
    cl = classify_truncated(3, 7)
    low, middle, high = cl.map.segments
    broken = PiecewiseLinearMap((low, replace(middle, intercept=middle.intercept + F(1, 8)), high))
    assert verify_iso(broken, cl.source, cl.target, seed=11, trials=200).checks == (
        Check("preserves_add", False, (F(49, 8), F(373, 64))),
        Check("preserves_mul", True),
        Check("preserves_order", False, (F(49, 8), F(373, 64))),
        Check("endpoints", True),
        Check("sentinels", True),
    )


def test_verify_iso_key_identities():
    # saturation inside [1,5/2]: phi(2 (x) 3) = phi(5) = 5/2 = phi(2) (x) phi(3)
    cl = classify_truncated(2, 5)
    src, dst = cl.source, cl.target
    lhs = apply_iso(cl.map, src._mul(2, 3))
    rhs = dst._mul(apply_iso(cl.map, 2), apply_iso(cl.map, 3))
    assert lhs == rhs == F(5, 2)
    # in the y <= 2x case every product of interval elements lands on 2
    cl = classify_truncated(2, 4)
    rng = derive_rng(41, "t12-sat")
    for _ in range(200):
        a = F(2) + F(rng.randint(0, 64), 32)
        b = F(2) + F(rng.randint(0, 64), 32)
        assert cl.target._mul(apply_iso(cl.map, a), apply_iso(cl.map, b)) == 2
        assert apply_iso(cl.map, cl.source._mul(a, b)) == 2


def test_canonicalization_is_idempotent():
    for x, y in [(2, 5), (2, 4), (0, 7), (1, 3), (5, 8), (3, 7)]:
        cl = classify_truncated(x, y)
        again = classify_truncated(cl.target.x, cl.target.y)
        assert _fixes_every_point(again.map)
        assert again.canonical == cl.canonical


def test_max_element_order():
    assert max_element_order(2) == 2
    assert max_element_order(F(5, 2)) == 3
    assert max_element_order(3) == 3
    with pytest.raises(DomainError, match="need y > 1"):
        max_element_order(1)
    for y in (2, F(5, 2), 3, F(7, 2), 4, F(9, 2)):
        assert max_element_order(y) == max_order_by_iteration(y, samples=64, seed=7)
    # order-4 elements exist exactly when y > 3
    assert isinstance(element_order(trunc(1, F(13, 4)), 1), Finite)
    assert element_order(trunc(1, F(13, 4)), 1).order == 4


def test_canonical_classes_are_told_apart_by_their_invariants():
    """Labels differ exactly between classes; element orders separate all but same-ceiling pairs."""

    def label(x, y):
        return classify_truncated(x, y).canonical_label()

    def max_order(x, y):
        return max_element_order(classify_truncated(x, y).target.y)

    # the [0,1] class has elements of unbounded order (1/n has order n); the others are bounded
    assert label(0, 1) != label(1, 2) and max_order(1, 2) == 2
    assert element_order(trunc(0, 1), F(1, 50)) == Finite(50, 50)
    # different ceilings: the maximum element order separates them
    for p, q, orders in [((1, 2), (1, F(5, 2)), (2, 3)), ((1, 3), (1, 4), (3, 4))]:
        assert label(*p) != label(*q) and (max_order(*p), max_order(*q)) == orders
    # the same ceiling: only the labels differ; rigidity on dyadic rationals separates them, analytically
    for p, q in [((1, F(5, 2)), (1, 3)), ((1, F(10, 3)), (1, F(7, 2)))]:
        assert label(*p) != label(*q)
    # one class through different intervals
    assert label(2, 5) == label(1, F(5, 2)) and max_order(2, 5) == max_order(1, F(5, 2))
