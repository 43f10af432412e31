import pytest

from abpairs import summarize


def test_gain_holds_on_nine_wins_beyond_the_spread():
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 11.0, 12.0, 10.5, 11.5]
    change = [5.0] * 9 + [13.0]
    s = summarize(parent, change, "lower")
    assert (s["wins"], s["holds"]) == (9, True)
    assert s["parent"] == 11.0 and s["change"] == 5.0
    assert s["move"] == pytest.approx(-6 / 11)


def test_eight_wins_do_not_hold():
    parent = [10.0] * 10
    change = [5.0] * 8 + [20.0] * 2
    assert summarize(parent, change, "lower")["holds"] is False


def test_gap_within_the_parent_spread_does_not_hold():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [p - 0.5 for p in parent]
    s = summarize(parent, change, "lower")
    assert s["wins"] == 10 and s["holds"] is False


def test_higher_is_better_counts_the_other_way():
    s = summarize([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0], "higher")
    assert (s["wins"], s["holds"]) == (4, True)
    assert summarize([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0], "lower")["wins"] == 0


def test_median_worse_by_more_than_the_bound_is_worse():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert summarize(parent, [1.3] * 10, "lower", 0.25)["verdict"] == "worse"
    assert summarize(parent, [0.7] * 10, "higher", 0.25)["verdict"] == "worse"
    # Worse, but within the bound.
    assert summarize(parent, [1.2] * 10, "lower", 0.25)["verdict"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    # Q3 - Q1 = 0.4 of the parent's median of 1.0, over a 0.25 bound.
    parent = [0.7, 0.8, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.2, 1.3]
    s = summarize(parent, [0.95] * 10, "lower", 0.25)
    assert s["spread"] == pytest.approx(0.4) and s["verdict"] == "unresolved"
    # The change beats every parent run: resolved despite the spread.
    assert summarize(parent, [0.6] * 10, "lower", 0.25)["verdict"] == "ok"
    # Tied runs do not beat each other.
    assert summarize(parent, [0.7] * 10, "lower", 0.25)["verdict"] == "unresolved"


def test_steady_parent_and_a_small_move_is_ok():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert summarize(parent, [1.05] * 10, "lower", 0.25)["verdict"] == "ok"
    assert summarize(parent, [0.9] * 10, "higher", 0.25)["verdict"] == "ok"
    # Without a bound, no metric is worse or unresolved.
    assert summarize(parent, [100.0] * 10, "lower")["verdict"] == "ok"
