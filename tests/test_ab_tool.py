"""``tools.ab`` on two copies of a 3-line fake command: ABBA order, each
tree's own ``src``, the bench JSON line or the wall-time fallback, and the
claim rule's verdict."""

from __future__ import annotations

import io
import sys

from tools.ab import main, verdict

#: Reads its tree's ``src/fake_value.py``, logs which tree ran, prints a result line.
FAKE = (
    "import json, sys, fake_value\n"
    "open(sys.argv[1], 'a').write(fake_value.TREE)\n"
    "print(json.dumps({'metrics': {'query_ms_p50': {'value': fake_value.VALUE}}}))\n"
)


def make_tree(root, name: str, value: float):
    tree = root / name
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "fake_value.py").write_text(f"TREE = {name!r}\nVALUE = {value}\n")
    (tree / "fake.py").write_text(FAKE)
    return tree


def rows(report: str):
    """The metric rows of a report: name -> its whitespace-split cells."""
    lines = report.splitlines()
    header = next(index for index, line in enumerate(lines) if line.startswith("metric"))
    return {line.split()[0]: line.split()[1:] for line in lines[header + 1:] if line.strip()}


def test_abba_passes_each_on_its_own_tree(tmp_path):
    tree_a, tree_b = make_tree(tmp_path, "A", 2.0), make_tree(tmp_path, "B", 1.0)
    log = tmp_path / "order.log"
    out = io.StringIO()
    argv = [str(tree_a), str(tree_b), "--pairs", "4", "--", sys.executable, "fake.py", str(log)]
    assert main(argv, out=out) == 0
    assert log.read_text() == "ABBAABBA"
    report = out.getvalue()
    assert report.startswith("box: nproc=")
    assert "python=" in report.splitlines()[0]
    # Lower is better when tree A has no BENCHMARK.json entry for the metric.
    assert rows(report) == {
        "query_ms_p50": ["2.0000", "0.0000", "1.0000", "0.0000", "0.500", "4/4", "B", "better"]
    }


def test_a_command_without_a_json_line_falls_back_to_wall_time_and_rss(tmp_path):
    tree_a, tree_b = make_tree(tmp_path, "A", 1.0), make_tree(tmp_path, "B", 1.0)
    out = io.StringIO()
    argv = [str(tree_a), str(tree_b), "--pairs", "2", "--", sys.executable, "-c", "print('ok')"]
    assert main(argv, out=out) == 0
    table = rows(out.getvalue())
    assert sorted(table) == ["peak_rss_mb", "wall_s"]
    assert all(float(cells[0]) > 0 for cells in table.values())


def test_the_verdict_needs_nine_wins_in_ten_and_medians_apart_by_the_iqr():
    a = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    assert verdict(a, [value - 5.0 for value in a], "lower") == (10, "B better")
    assert verdict(a, [value - 5.0 for value in a], "higher") == (0, "B worse")
    # Nine wins, but the medians are closer than A's interquartile range.
    assert verdict(a, [value - 0.5 for value in a[:9]] + [20.0], "lower") == (9, "no difference")
    # Medians far apart, but only eight wins.
    assert verdict(a, [value - 5.0 for value in a[:8]] + [99.0, 99.0], "lower")[1] == "no difference"
