"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "ebay" in out and "tpch" in out and "sdss" in out


def test_experiments_command_lists_every_table_and_figure(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for label in ("Figure 1", "Figure 10", "Table 3", "Table 6"):
        assert label in out
    assert "benchmarks/test_fig6_cm_vs_btree_price.py" in out


def test_demo_command_runs_all_three_access_methods(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "seq_scan" in out
    assert "sorted_index_scan" in out
    assert "cm_scan" in out


def test_demo_analyze_prints_plan_trees(capsys):
    assert main(["demo", "--analyze"]) == 0
    out = capsys.readouterr().out
    assert "EXPLAIN ANALYZE" in out
    assert "topk[price DESC, k=5]" in out
    assert "hash_group[catid: n]" in out
    assert "rows est=" in out and "act=" in out
    assert "totals:" in out


def test_demo_partitions_prints_the_chosen_flat_join_shape(capsys):
    assert main(["demo", "--partitions", "4"]) == 0
    out = capsys.readouterr().out
    chosen, _, candidates = out.partition("flat build side, every costed candidate:")
    assert "(flat build side, chosen shape)" in chosen
    listed = [line for line in candidates.splitlines() if "ms est" in line]
    shapes = [
        shape
        for line in listed
        for shape in ("broadcast", "repartition")
        if shape in line
    ]
    assert sorted(shapes) == ["broadcast", "repartition"]
    # The plan tree printed is the shape the first-ranked candidate names.
    tree = chosen.rpartition("(flat build side, chosen shape)")[2]
    assert f"hash_join[{shapes[0]}(catsflat)" in tree


def test_advise_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        main(["advise", "mystery"])


def test_parser_structure():
    parser = build_parser()
    assert parser.prog == "repro"
