"""Eigenform export parsing, serialization, and validation."""

import importlib.resources
import math

import pytest

from maassdensity.errors import DataFormatError, DomainError
from maassdensity.kuznetsov import spectral_side, weight_gaussian
from maassdensity.maassdata import (
    MaassFormRecord,
    parse_records,
    parse_records_text,
    serialize_records,
    validate_records,
)

GOOD_CSV = """# normalization: hecke-unit
t,parity,norm_sq,lambda_2,lambda_3
9.53,even,1.02,0.5,-0.3
12.17,odd,0.98,-1.1,0.7
"""


def test_parse_basic_csv():
    recs = parse_records_text(GOOD_CSV, "csv")
    assert len(recs) == 2
    assert recs[0].t == 9.53
    assert recs[0].parity == "even"
    assert recs[1].lambdas[2] == -1.1


def test_parse_requires_normalization_comment():
    body = "\n".join(line for line in GOOD_CSV.splitlines() if "normalization" not in line)
    with pytest.raises(DataFormatError, match="normalization"):
        parse_records_text(body, "csv")


def test_parse_reports_line_numbers():
    bad = GOOD_CSV + "notanumber,even,1.0,0.1,0.1\n"
    with pytest.raises(DataFormatError, match=r"<text>:\d+:"):
        parse_records_text(bad, "csv")


def test_parse_rejects_duplicate_eigenvalues():
    dup = GOOD_CSV + "12.17,even,1.0,0.2,0.2\n"
    with pytest.raises(DataFormatError, match="duplicate"):
        parse_records_text(dup, "csv")


def test_parse_sorts_by_t():
    shuffled = """# normalization: hecke-unit
t,parity,norm_sq,lambda_2
14.0,even,1.0,0.1
9.0,odd,1.0,0.2
"""
    recs = parse_records_text(shuffled, "csv")
    assert [r.t for r in recs] == [9.0, 14.0]


def test_record_validation_in_constructor():
    with pytest.raises(DataFormatError):
        MaassFormRecord(t=1.0, parity="sideways", norm_sq=1.0)
    with pytest.raises(DataFormatError):
        MaassFormRecord(t=1.0, parity="even", norm_sq=-2.0)


def test_round_trip_csv_and_json():
    recs = parse_records_text(GOOD_CSV, "csv")
    for fmt in ("csv", "json"):
        text = serialize_records(recs, fmt)
        back = parse_records_text(text, fmt)
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert a.t == b.t
            assert a.parity == b.parity
            assert a.norm_sq == b.norm_sq
            assert a.lambdas == b.lambdas


def test_json_requires_normalization_key():
    with pytest.raises(DataFormatError):
        parse_records_text('{"forms": []}', "json")


def test_json_requires_norm_sq():
    # the harmonic weight 1/|u|^2 is never filled in for a missing norm, as
    # in the CSV reader
    text = '{"normalization": "hecke-unit", "forms": [{"t": 9.53, "parity": "even"}]}'
    with pytest.raises(DataFormatError, match="norm_sq"):
        parse_records_text(text, "json")


def test_unknown_format():
    with pytest.raises(DataFormatError):
        parse_records_text(GOOD_CSV, "xml")


def test_bundled_sample_parses_and_validates():
    path = importlib.resources.files("maassdensity") / "data" / "sample_forms.csv"
    recs = parse_records(str(path), "csv")
    assert len(recs) == 3
    report = validate_records(recs)
    assert report["all_pass"]
    # the bundled rows satisfy the Hecke relations exactly
    for rec in recs:
        l2, l3 = rec.lambdas[2], rec.lambdas[3]
        assert rec.lambdas[4] == pytest.approx(l2 * l2 - 1.0, abs=1e-9)
        assert rec.lambdas[6] == pytest.approx(l2 * l3, abs=1e-9)


def test_validation_flags_bad_records():
    bad = """# normalization: hecke-unit
t,parity,norm_sq,lambda_2,lambda_3,lambda_6
10.0,even,1.0,1.9,0.5,0.2
"""
    recs = parse_records_text(bad, "csv")
    report = validate_records(recs)
    assert not report["all_pass"]
    checks = report["records"][0]["checks"]
    assert checks["multiplicative_2_3_6"] is False
    assert math.isfinite(report["count_fit_rms_residual"])


def test_kim_sarnak_bound_is_shared():
    # one bound, |lambda_p| <= 2 p^(7/64) + 1e-6, and each caller its own
    # primes: validate_records reports p <= 13, spectral_side raises p <= 7
    def rec(p, lam):
        return MaassFormRecord(t=10.0, parity="even", norm_sq=1.0, lambdas={p: lam})

    def tempered(p, lam):
        return validate_records([rec(p, lam)])["records"][0]["checks"]["tempered_range"]

    H = weight_gaussian(10.0, 2.0)
    for p in (7, 11):
        edge = 2.0 * p ** (7.0 / 64.0)
        assert tempered(p, -edge)
        assert not tempered(p, edge + 2e-6)
    spectral_side(1, 1, H, [rec(11, 3.0)])
    with pytest.raises(DomainError):
        spectral_side(1, 1, H, [rec(7, -3.0)])


def test_validation_needs_records():
    with pytest.raises(DataFormatError):
        validate_records([])
