from nreflect.reporting import build_report


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
