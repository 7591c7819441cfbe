import random
from fractions import Fraction as F

import pytest

from rideshare_market.lp import (
    EQ,
    GE,
    LE,
    Infeasible,
    LPProblem,
    Optimal,
    Row,
    Unbounded,
    lp_solve,
    verify_infeasibility_certificate,
)


def test_single_bound():
    out = lp_solve(LPProblem(1, (F(1),), (Row((F(1),), LE, F(3)),)))
    assert isinstance(out, Optimal)
    assert out.point == (3,) and out.value == 3


def test_infeasible_with_certificate():
    p = LPProblem(1, (F(1),), (Row((F(1),), LE, F(1)), Row((F(1),), GE, F(2))))
    out = lp_solve(p)
    assert isinstance(out, Infeasible)
    assert verify_infeasibility_certificate(p, out.certificate)


def test_unbounded():
    out = lp_solve(LPProblem(1, (F(1),), ()))
    assert isinstance(out, Unbounded)
    assert out.ray[0] > 0


def test_unbounded_ray_moves_a_basic_variable():
    """Maximize x0 subject to x0 - x1 <= 1: x0 enters, but the row keeps
    it basic only as x1 grows with it, so the ray is (1, 1)."""
    row = Row((F(1), F(-1)), LE, F(1))
    out = lp_solve(LPProblem(2, (F(1), F(0)), (row,)))
    assert isinstance(out, Unbounded)
    assert out.ray == (1, 1)
    # along the ray the row's left side stays put and the objective grows
    assert sum(c * d for c, d in zip(row.coeffs, out.ray)) <= 0
    assert out.ray[0] > 0


def _two_sided():
    """x0 <= 1 and x0 >= 2, with an upper bound x1 <= 5 as the third row."""
    rows = (Row((F(1), F(0)), LE, F(1)), Row((F(1), F(0)), GE, F(2)))
    return LPProblem(2, (F(0), F(0)), rows, upper_bounds=(None, F(5)))


def test_upper_bound_rows_follow_the_declared_rows():
    p = _two_sided()
    # an upper bound of None adds no row
    assert p.all_rows() == [*p.rows, Row((F(0), F(1)), LE, F(5))]


@pytest.mark.parametrize(
    "certificate, valid",
    [
        pytest.param((1, -1, 0), True, id="valid"),
        pytest.param((1, -1), False, id="upper-bound-row-missing"),
        pytest.param((-1, -1, 0), False, id="negative-on-le-row"),
        pytest.param((1, 1, 0), False, id="positive-on-ge-row"),
        pytest.param((0, -1, 0), False, id="negative-combination"),
        pytest.param((1, 0, 0), False, id="positive-rhs"),
        pytest.param((0, 0, 0), False, id="zero-rhs"),
    ],
)
def test_infeasibility_certificate_check(certificate, valid):
    assert verify_infeasibility_certificate(_two_sided(), certificate) is valid


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Row((F(1),), "<", F(1)), "unknown relation '<'", id="relation"),
        pytest.param(
            lambda: LPProblem(2, (F(1),), ()), "objective length", id="objective-length"
        ),
        pytest.param(
            lambda: LPProblem(2, (F(1), F(1)), (Row((F(1),), LE, F(1)),)),
            "row length",
            id="row-length",
        ),
        pytest.param(
            lambda: LPProblem(2, (F(1), F(1)), (), upper_bounds=(F(1),)),
            "upper_bounds length",
            id="upper-bounds-length",
        ),
        pytest.param(lambda: Row((0.1,), LE, F(1)), "0.1 is a float", id="float-coefficient"),
        pytest.param(lambda: Row((F(1),), LE, True), "True is a bool", id="bool-rhs"),
        pytest.param(lambda: LPProblem(1, (0.5,), ()), "0.5 is a float", id="float-objective"),
        pytest.param(
            lambda: LPProblem(1, (F(1),), (), upper_bounds=(2.0,)),
            "2.0 is a float",
            id="float-upper-bound",
        ),
    ],
)
def test_malformed_rows_and_problems_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_equality_and_inequality_mix():
    p = LPProblem(
        2,
        (F(1), F(1)),
        (Row((F(1), F(1)), EQ, F(2)), Row((F(1), F(-1)), LE, F(1))),
    )
    out = lp_solve(p)
    assert isinstance(out, Optimal) and out.value == 2


def test_upper_bounds_respected():
    p = LPProblem(
        2, (F(1), F(2)), (Row((F(1), F(1)), LE, F(3)),), upper_bounds=(F(1), F(3))
    )
    out = lp_solve(p)
    assert isinstance(out, Optimal)
    assert out.value == 6 and out.point == (0, 3)


def test_negative_rhs_rows():
    # x >= -1 is vacuous for x >= 0; minimizing x gives 0
    out = lp_solve(LPProblem(1, (F(-1),), (Row((F(1),), GE, F(-1)),)))
    assert isinstance(out, Optimal) and out.value == 0


def test_bland_rule_survives_beale_cycling_example():
    obj = (F(3, 4), F(-150), F(1, 50), F(-6))
    rows = (
        Row((F(1, 4), F(-60), F(-1, 25), F(9)), LE, F(0)),
        Row((F(1, 2), F(-90), F(-1, 50), F(3)), LE, F(0)),
        Row((F(0), F(0), F(1), F(0)), LE, F(1)),
    )
    out = lp_solve(LPProblem(4, obj, rows))
    assert isinstance(out, Optimal)
    assert out.value == F(1, 20)


def test_optimal_point_satisfies_rows_exactly():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            rows.append(Row(coeffs, rng.choice((LE, GE, EQ)), F(rng.randint(-4, 6))))
        obj = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        ubs = tuple(F(rng.randint(1, 5)) for _ in range(n))
        p = LPProblem(n, obj, tuple(rows), upper_bounds=ubs)
        out = lp_solve(p)
        if isinstance(out, Optimal):
            for row in p.all_rows():
                lhs = sum(c * x for c, x in zip(row.coeffs, out.point))
                if row.rel == LE:
                    assert lhs <= row.rhs
                elif row.rel == GE:
                    assert lhs >= row.rhs
                else:
                    assert lhs == row.rhs
            assert all(x >= 0 for x in out.point)
        elif isinstance(out, Infeasible):
            assert verify_infeasibility_certificate(p, out.certificate)
        else:
            # ray must be feasible at infinity and strictly improving
            assert all(d >= 0 for d in out.ray)
            assert sum(c * d for c, d in zip(p.objective, out.ray)) > 0
            for row in p.rows:
                push = sum(c * d for c, d in zip(row.coeffs, out.ray))
                if row.rel == LE:
                    assert push <= 0
                elif row.rel == GE:
                    assert push >= 0
                else:
                    assert push == 0


def test_determinism():
    p = LPProblem(
        3,
        (F(1), F(1), F(1)),
        (Row((F(1), F(1), F(1)), LE, F(2)), Row((F(1), F(2), F(0)), LE, F(2))),
        upper_bounds=(F(1), F(1), F(1)),
    )
    assert lp_solve(p) == lp_solve(p)
