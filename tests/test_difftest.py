from uneval.difftest import difftest
from uneval.families import gen_family_sn
from uneval.schema import parse_schema

from test_schema import SALE_CAR


def test_sn_exhaustive_agrees():
    report = difftest(gen_family_sn(3), schema_id="S3")
    assert report.disagree == 0
    assert report.agree == report.instances_total > 0
    assert report.size_ratio > 1


def test_sale_car_witness():
    doc = parse_schema(SALE_CAR)
    report = difftest(doc, instances=[{"price": 100, "plate": "x111"}])
    assert report.instances_total == 1
    assert report.disagree == 0


def test_empty_source_warns():
    doc = parse_schema(SALE_CAR)
    report = difftest(doc, instances=[])
    assert report.instances_total == 0
    assert report.warning
    assert report.disagree == 0


def test_deterministic():
    r1 = difftest(gen_family_sn(2), schema_id="S2")
    r2 = difftest(gen_family_sn(2), schema_id="S2")
    j1, j2 = r1.to_json(), r2.to_json()
    j1.pop("elapsed_ms")
    j2.pop("elapsed_ms")
    assert j1 == j2


def test_report_counts_consistent():
    report = difftest(gen_family_sn(2))
    assert report.agree + report.disagree == report.instances_total


def test_trailing_newline_names_agree():
    """The rewrite's exact-name patterns end in ``$``, which must not
    match before a final newline."""
    doc = parse_schema({"properties": {"a": True}, "unevaluatedProperties": False})
    report = difftest(doc, instances=[{"a": 1}, {"a\n": 1}, {"a\n": 1, "a": 1}, {"\n": 1}])
    assert report.instances_total == 4
    assert report.disagree == 0, report.disagreements


def test_shared_nested_uneval_agrees():
    inner = {"properties": {"x": True}, "unevaluatedProperties": False}
    doc = parse_schema(
        {"properties": {"a": inner, "b": inner}, "unevaluatedProperties": False}
    )
    report = difftest(doc)
    assert report.instances_total > 0
    assert report.disagree == 0, report.disagreements
