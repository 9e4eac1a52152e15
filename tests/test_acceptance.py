"""The acceptance battery states the paper's claims, one test per claim; each
prints its pass line.  The library's self-tests live in the other test
modules, never in the battery.

Run with `pytest tests/test_acceptance.py -v -s` for the live report, or
`domgame suite` for the standalone version.
"""

import pytest

from domgame.acceptance import ITEMS


@pytest.mark.parametrize("item_id", ITEMS)
def test_acceptance(item_id):
    detail = ITEMS[item_id]()  # raises AssertionError with the failing fact
    print(f"[PASS] {item_id}: {detail}")


def test_items_are_the_papers_claims():
    assert list(ITEMS) == [
        "cycles", "ons-connected", "onsp-pass", "dom-pass-unions", "c4c8-passing",
        "safe-start", "subdivision", "biased-two-one", "bdg-perfect-matching", "bdg-general",
    ]


def test_run_suite_reports_failures(monkeypatch):
    import domgame.acceptance as acc

    broken = {"broken": lambda: (_ for _ in ()).throw(AssertionError("boom"))}
    monkeypatch.setattr(acc, "ITEMS", broken)
    lines = []
    assert acc.run_suite(out=lines.append) is False
    assert lines == ["[FAIL] broken: boom"]
