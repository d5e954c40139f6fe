"""The seven immutable records: construction, validation, repr, equality,
hashing and read-only fields."""

import re

import numpy as np
import pytest

from kalmanres.bott import CohomologyResult, GrassmannianContext
from kalmanres.geometric import HilbertSeries, XiSummand
from kalmanres.kalman import P_DEFAULT, FpMatrix, KalmanPoint
from kalmanres.partitions import Partition
from kalmanres.resolutions import ConjectureReport

SERIES = HilbertSeries((1, -1), 4)

# class, field names in order, positional arguments, repr, [(bad arguments, message)]
RECORDS = [
    (
        GrassmannianContext,
        ("s", "d", "n"),
        (1, 2, 4),
        "GrassmannianContext(s=1, d=2, n=4)",
        [((3, 2, 4), "need 1 <= s <= d < n, got (3, 2, 4)"), ((1, 2, 2), "need 1 <= s <= d < n, got (1, 2, 2)")],
    ),
    (
        CohomologyResult,
        ("degree", "weight"),
        (1, (2, 0)),
        "CohomologyResult(degree=1, weight=(2, 0))",
        [],
    ),
    (
        XiSummand,
        ("lambda_r", "mu_qstar", "nu_w", "mult"),
        (Partition((2, 1)), Partition((1,)), Partition((2,)), 3),
        "XiSummand(lambda_r=Partition([2, 1]), mu_qstar=Partition([1]), nu_w=Partition([2]), mult=3)",
        [],
    ),
    (
        HilbertSeries,
        ("coeffs", "denominator_exponent"),
        ((1, 2, 0, 0), 16),  # trailing zeros are dropped
        "HilbertSeries(coeffs=(1, 2), denominator_exponent=16)",
        [(((1,), -1), "denominator exponent must be nonnegative, got -1")],
    ),
    (
        ConjectureReport,
        ("d", "n", "prediction", "residual", "telescope_ok"),
        (2, 5, SERIES, None, True),
        "ConjectureReport(d=2, n=5, prediction=HilbertSeries(coeffs=(1, -1), "
        "denominator_exponent=4), residual=None, telescope_ok=True)",
        [],
    ),
    (
        FpMatrix,
        ("data",),  # p defaults to P_DEFAULT
        ([[1, -2]],),
        f"FpMatrix(data=((1, {P_DEFAULT - 2}),), p={P_DEFAULT})",
        [
            (([[1]], 4), "modulus must be a prime p with 2 <= p < 2^31, got 4"),
            (([[1, 2], [3]],), "the rows of a matrix must have one length"),
        ],
    ),
    (
        KalmanPoint,
        ("d", "n", "phi"),  # p defaults to P_DEFAULT
        (1, 2, [[1, 2], [3, 9]]),
        f"KalmanPoint(d=1, n=2, phi=((1, 2), (3, 9)), p={P_DEFAULT})",
        [
            ((1, 3, [[1, 2], [3, 4]]), "phi must be n x n"),
            ((2, 2, [[1, 2], [3, 4]]), "need 1 <= d < n"),
            ((1, 2, [[1, 2], [3, 4]], 1 << 31), "modulus must be a prime p with 2 <= p < 2^31"),
        ],
    ),
]


@pytest.mark.parametrize(
    "cls, fields, args, text, refusals", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_contract(cls, fields, args, text, refusals):
    record = cls(*args)
    assert repr(record) == text
    keywords = dict(zip(fields, args))
    assert repr(cls(**keywords)) == text
    # _replace rebuilds through _make, which checks and normalizes as the constructor does
    assert repr(record._replace(**keywords)) == text
    for bad, message in refusals:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(*bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            cls._make(bad)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], args[0])
    # one matrix is a tuple of int rows, so FpMatrix and KalmanPoint hash too
    again = cls(**keywords)
    assert again == record and hash(again) == hash(record)


@pytest.mark.parametrize(
    "cls, bad",
    [
        (GrassmannianContext, (1.5, 2, 3)),
        (GrassmannianContext, (1, 2.0, 3)),
        (GrassmannianContext, (1, 2, "3")),
        (HilbertSeries, ((1.5,), 4)),  # int() truncated it to (1,)
        (HilbertSeries, ((1, 2.0), 4)),
        (HilbertSeries, ((1,), 4.0)),
        (FpMatrix, ([[1.5, 2]], 7)),  # int() truncated it to ((1, 2),)
        (FpMatrix, (np.array([[[1.9, 2.2]]]), 7)),  # a float stack became [[[1, 2]]]
        (KalmanPoint, (1.0, 2, [[1, 2], [3, 4]])),
        (KalmanPoint, (1, 2, [[1, 2], [3, 4.5]])),
    ],
)
def test_integer_fields_refuse_other_numbers(cls, bad):
    # operator.index, as Partition does for its parts: no float is truncated
    # or kept to fail later
    with pytest.raises(TypeError):
        cls(*bad)
    with pytest.raises(TypeError):
        cls._make(bad)


@pytest.mark.parametrize("cached, bad", [(7, 7.0), (np.int64(13), 13.0)])
def test_a_cached_modulus_admits_no_float(cached, bad):
    # once a modulus has passed, an equal float still raises TypeError at the
    # door instead of inside pow() at rank(); lru_cache keys a lone int by
    # itself but a numpy int by the 1-tuple (13,), which (13.0,) equals, so
    # the check's cache must be typed
    FpMatrix([[1]], cached)
    with pytest.raises(TypeError):
        FpMatrix([[3, 1], [1, 0]], bad)
    with pytest.raises(TypeError):
        KalmanPoint(1, 2, [[1, 2], [3, 4]], bad)
