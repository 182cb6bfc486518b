"""tools/bench_pairs.py — "is this a gain" (or its mirror, a loss) as an
exit status.  The verdict function is pure, so the rule (at least nine
tenths of the pairs won — or lost — ties for neither side, medians apart by
more than the parent's inter-quartile distance) is pinned here on synthetic
series; the command around it is run
once against two fake checkouts whose ``bench/run.py`` prints fixed lines."""

import json

import pytest

from tests.conftest import load_tool

tool = load_tool("bench_pairs")

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_clear_win_is_a_gain():
    v = tool.verdict(PARENT, [x * 2 for x in PARENT], higher_is_better=True)
    assert v.gain and v.wins == 10 and v.ties == 0
    assert v.parent_quartiles[1] == pytest.approx(100.0)
    assert v.change_quartiles[1] == pytest.approx(200.0)


def test_eight_of_ten_is_not_enough():
    change = [x * 2 for x in PARENT]
    change[3] = change[7] = 50.0
    v = tool.verdict(PARENT, change, higher_is_better=True)
    assert not v.gain and v.wins == 8 and "nine tenths" in v.reason


def test_nine_of_ten_is_enough():
    change = [x * 2 for x in PARENT]
    change[3] = 50.0
    assert tool.verdict(PARENT, change, higher_is_better=True).gain


def test_identical_series_tie_and_gain_nothing():
    v = tool.verdict(PARENT, list(PARENT), higher_is_better=True)
    assert not v.gain and v.wins == 0 and v.ties == 10


def test_ties_count_for_neither_side():
    change = [x + 50 for x in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]     # 8 wins, 2 ties
    v = tool.verdict(PARENT, change, higher_is_better=True)
    assert not v.gain and (v.wins, v.ties) == (8, 2)


def test_win_inside_the_parents_own_spread_is_no_gain():
    # Every pair won, but by less than the parent moves between runs.
    noisy = [100.0, 140.0, 60.0, 120.0, 80.0, 130.0, 70.0, 110.0, 90.0, 100.0]
    v = tool.verdict(noisy, [x + 1 for x in noisy], higher_is_better=True)
    assert v.wins == 10 and not v.gain
    assert "inter-quartile" in v.reason


def test_direction_follows_the_metric():
    halved = [x / 2 for x in PARENT]
    assert tool.verdict(PARENT, halved, higher_is_better=False).gain
    assert not tool.verdict(PARENT, halved, higher_is_better=True).gain


def test_clear_loss_is_a_loss_not_a_gain():
    v = tool.verdict(PARENT, [x / 2 for x in PARENT], higher_is_better=True)
    assert v.loss and not v.gain and v.wins == 0
    assert "lost 10 of 10" in v.reason


def test_a_gain_is_never_a_loss():
    v = tool.verdict(PARENT, [x * 2 for x in PARENT], higher_is_better=True)
    assert v.gain and not v.loss


def test_nine_of_ten_lost_is_a_loss_eight_is_not():
    change = [x / 2 for x in PARENT]
    change[3] = 500.0
    assert tool.verdict(PARENT, change, higher_is_better=True).loss
    change[7] = 500.0
    v = tool.verdict(PARENT, change, higher_is_better=True)
    assert not v.loss and not v.gain


def test_ties_count_for_neither_side_in_a_loss():
    change = [x - 50 for x in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]     # 8 losses, 2 ties
    v = tool.verdict(PARENT, change, higher_is_better=True)
    assert not v.loss and (v.wins, v.ties) == (0, 2)


def test_loss_inside_the_parents_own_spread_is_no_loss():
    noisy = [100.0, 140.0, 60.0, 120.0, 80.0, 130.0, 70.0, 110.0, 90.0, 100.0]
    v = tool.verdict(noisy, [x - 1 for x in noisy], higher_is_better=True)
    assert not v.loss and not v.gain


def test_a_a_run_losing_five_of_six_at_0964_is_no_loss():
    # Two checkouts of one commit: 5 of 6 pairs lost, median ratio 0.964.
    parent = [1000.0, 1010.0, 990.0, 1005.0, 995.0, 1000.0]
    change = [962.0, 974.0, 955.0, 966.0, 959.0, 1001.0]
    v = tool.verdict(parent, change, higher_is_better=True)
    assert v.wins == 1 and v.ties == 0
    assert v.change_quartiles[1] / v.parent_quartiles[1] == pytest.approx(
        0.964, abs=1e-3)
    assert not v.loss and not v.gain


def test_loss_direction_follows_the_metric():
    doubled = [x * 2 for x in PARENT]
    assert tool.verdict(PARENT, doubled, higher_is_better=False).loss
    assert not tool.verdict(PARENT, doubled, higher_is_better=True).loss


def test_series_must_pair_up():
    with pytest.raises(ValueError):
        tool.verdict(PARENT, PARENT[:-1], higher_is_better=True)
    with pytest.raises(ValueError):
        tool.verdict([], [], higher_is_better=True)


FAKE_RUN = """\
import json, sys
print("a progress line")
print(json.dumps({{"correct": {correct}, "attempted": 10, "failed": {failed},
                  "metrics": {{"host_ops_per_s": {{"value": {value},
                                                  "unit": "1/s"}}}}}}))
"""


def checkout(root, name, value, correct=True, failed=0):
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(
        FAKE_RUN.format(value=value, correct=correct, failed=failed))
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "host_ops_per_s", "better": "higher"}],
        "per_layer": []}))
    return str(tree)


def run(tmp_path, capsys, parent, change, metric="host_ops_per_s"):
    status = tool.main(["--parent", parent, "--change", change,
                        "--workload", "serve_churn", "--metric", metric,
                        "--pairs", "3", "--seconds", "1"])
    return status, capsys.readouterr()


def test_command_reads_the_final_json_line_of_each_tree(tmp_path, capsys):
    status, io = run(tmp_path, capsys, checkout(tmp_path, "p", 100.0),
                     checkout(tmp_path, "c", 250.0))
    assert status == 0
    assert "GAIN: the change won 3 of 3 pairs" in io.out
    assert "median change/parent 2.500" in io.out
    # alternating order: pair 2 ran the change first
    assert [ln.split()[1] for ln in io.out.splitlines()[2:5]] == [
        "parent", "change", "parent"]


def test_command_reports_no_gain(tmp_path, capsys):
    status, io = run(tmp_path, capsys, checkout(tmp_path, "p", 100.0),
                     checkout(tmp_path, "c", 100.0))
    assert status == 1 and "NO GAIN" in io.out


def test_command_reports_a_loss_as_exit_3(tmp_path, capsys):
    status, io = run(tmp_path, capsys, checkout(tmp_path, "p", 250.0),
                     checkout(tmp_path, "c", 100.0))
    assert status == 3
    assert "LOSS: the change lost 3 of 3 pairs" in io.out


@pytest.mark.parametrize("broken", [{"correct": False}, {"failed": 2}])
def test_an_incorrect_or_failing_run_is_exit_2(tmp_path, capsys, broken):
    status, io = run(tmp_path, capsys, checkout(tmp_path, "p", 100.0),
                     checkout(tmp_path, "c", 250.0, **broken))
    assert status == 2 and "pair 1, change" in io.err


def test_an_undeclared_metric_is_exit_2(tmp_path, capsys):
    status, io = run(tmp_path, capsys, checkout(tmp_path, "p", 100.0),
                     checkout(tmp_path, "c", 250.0), metric="nope")
    assert status == 2 and "nope" in io.err
