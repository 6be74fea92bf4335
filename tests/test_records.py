"""Result records are named tuples: built once, never assigned to, equal to
the plain tuple of their values."""

import pytest

from rankone2d import (
    GridSpec,
    Jet2,
    SingularPair,
    brute_force_check,
    catalog,
    classify_structure,
    infinitesimal_moduli,
    invertibility_verdict,
    main_check,
    parse,
    principal_cauchy,
    scan_domain,
)
from rankone2d.errors import DomainError
from rankone2d.expr import eval_jet2


def _records() -> dict:
    """One record of each kind, built by the functions that return it."""
    e = catalog("example1")
    main = main_check(e, t_grid=GridSpec(1e-2, 1e2, 41))
    pair = SingularPair(2.0, 0.5)
    return {
        "ConditionReport": main.verdict.reports[0],
        "RankOneVerdict": main.verdict,
        "MainCheckResult": main,
        "StructureClassification": classify_structure(e),
        "GridSpec": GridSpec(1e-2, 1e2, 41),
        "SingularPair": pair,
        "SplitEnergy": e,
        "Jet2": eval_jet2(e.h, 2.0),
        "Expr": e.h,
        "BruteForceResult": brute_force_check(e, n_lambda=3, n_refine=10),
        "InfimumResult": main.h0,
        "EllipticityMap": scan_domain(e, n_points=4),
        "StressState": principal_cauchy(e, pair),
        "InvertibilityReport": invertibility_verdict(e),
        "InfinitesimalModuli": infinitesimal_moduli(e),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_not_assignable(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None


def test_equal_to_the_tuple_of_values():
    assert GridSpec(lo=1e-2, hi=1e2, n=41) == (1e-2, 1e2, 41)
    assert SingularPair(lambda1=2.0, lambda2=0.5) == (2.0, 0.5)
    report = RECORDS["ConditionReport"]
    assert report == tuple(getattr(report, f) for f in report._fields)


def test_singular_pair_validates_keyword_construction():
    with pytest.raises(DomainError, match="must be positive"):
        SingularPair(lambda1=1.0, lambda2=-1.0)
    with pytest.raises(DomainError, match="finite positive float"):
        SingularPair(lambda2=1e-300, lambda1=1e300)


def test_jet_sum_and_product_are_jets():
    u, v = Jet2(1.0, 2.0, 3.0), Jet2(2.0, 1.0, 0.5)
    assert u + v == Jet2(3.0, 3.0, 3.5)
    # (uv)' = u'v + uv', (uv)'' = u''v + 2u'v' + uv''
    assert u * v == Jet2(2.0, 5.0, 10.5)
    assert type(u + v) is type(u * v) is Jet2


def test_expr_inequality_ignores_source_text():
    assert (parse("t+1", "t") != parse("t + 1", "t")) is False
    assert (parse("t+1", "t") != parse("t+2", "t")) is True
