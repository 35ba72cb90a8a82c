from bench.compare import verdict


def runs(centre, step=0.01, n=10):
    return [centre * (1 + step * (i - n / 2)) for i in range(n)]


def test_no_change_is_within():
    assert verdict(runs(100), runs(101), "lower", 0.1)[0] == "within"


def test_worse_than_the_bound_regresses_in_the_metric_s_direction():
    assert verdict(runs(100), runs(115), "lower", 0.1)[0] == "regressed"
    assert verdict(runs(100), runs(115), "higher", 0.1)[0] == "improved"
    assert verdict(runs(100), runs(85), "higher", 0.1)[0] == "regressed"


def test_a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parent_s_quartiles():
    assert verdict(runs(100), runs(90), "lower", 0.1)[0] == "improved"
    assert verdict(runs(100, n=5), runs(90, n=5), "lower", 0.1)[0] == "within"
    assert verdict(runs(100), runs(99.5), "lower", 0.1)[0] == "within"


def test_spread_beyond_the_bound_is_unresolved_unless_the_sets_are_disjoint():
    noisy = runs(100, step=0.05)
    word, worse = verdict(noisy, runs(108, step=0.05), "lower", 0.1)
    assert word == "unresolved" and round(worse, 2) == 0.08
    assert verdict(noisy, runs(200, step=0.05), "lower", 0.1)[0] == "regressed"
