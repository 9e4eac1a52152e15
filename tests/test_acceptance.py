"""The acceptance battery, one test per criterion; each prints its pass line.

Run with `pytest tests/test_acceptance.py -v -s` for the live report, or
`domgame suite` for the standalone version.
"""

import pytest

from domgame.acceptance import ITEMS, _assert_state_sound


@pytest.mark.parametrize("item_id", ITEMS)
def test_acceptance(item_id):
    detail = ITEMS[item_id]()  # raises AssertionError with the failing fact
    print(f"[PASS] {item_id}: {detail}")


def test_soundness_checker_has_teeth():
    """Fault injection: a corrupted dominated mask must fail the consistency
    check."""
    from domgame.engine import GameConfig, Move, PURPLE, new_game
    from domgame.graphs import gen_cycle

    state = new_game(GameConfig(variant="ddg", starter="dom"), gen_cycle(4))
    state = state.apply(Move(0, PURPLE))
    _assert_state_sound(state)
    state.dom = (state.dom[PURPLE] ^ 0b100, state.dom[1])
    with pytest.raises(AssertionError, match="recount"):
        _assert_state_sound(state)


def test_run_suite_reports_failures(monkeypatch):
    import domgame.acceptance as acc

    broken = {"broken": lambda: (_ for _ in ()).throw(AssertionError("boom"))}
    monkeypatch.setattr(acc, "ITEMS", broken)
    lines = []
    assert acc.run_suite(out=lines.append) is False
    assert lines == ["[FAIL] broken: boom"]
