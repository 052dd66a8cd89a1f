"""Command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.core.engine import MatchingEngine
from repro.kb.builtin import make_pattern


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-workload")
    code = main(
        [
            "generate",
            str(directory),
            "--count",
            "6",
            "--seed",
            "3",
            "--plant",
            "A=0.5",
        ]
    )
    assert code == 0
    return str(directory)


def test_generate_writes_files(workload_dir):
    files = [f for f in os.listdir(workload_dir) if f.endswith(".exfmt")]
    assert len(files) == 6


def test_search_builtin_letter(workload_dir, capsys):
    assert main(["search", workload_dir, "A"]) == 0
    out = capsys.readouterr().out
    assert "searched 6 plans" in out


def test_search_verbose(workload_dir, capsys):
    assert main(["search", workload_dir, "A", "-v"]) == 0
    out = capsys.readouterr().out
    if "0 matched" not in out:
        assert "?TOP=" in out


def test_search_pattern_json_file(workload_dir, tmp_path, capsys):
    pattern_file = tmp_path / "pattern.json"
    pattern_file.write_text(make_pattern("A").to_json())
    assert main(["search", workload_dir, str(pattern_file)]) == 0
    assert "searched 6 plans" in capsys.readouterr().out


def test_search_engine_flags_and_stats_line(workload_dir, capsys):
    # One process worker cannot beat serial: the engine falls back.
    assert main(["search", workload_dir, "A", "--mp-workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "engine: 1 worker(s), cache on" in out


def test_search_no_cache(workload_dir, capsys):
    assert main(["search", workload_dir, "A", "--no-cache"]) == 0
    assert "cache off" in capsys.readouterr().out


def test_kb_engine_stats_line(workload_dir, capsys):
    assert main(["kb", workload_dir]) == 0
    out = capsys.readouterr().out
    assert "engine: 1 worker(s)" in out
    assert "evaluate" in out


def test_compile_outputs_sparql(capsys):
    assert main(["compile", "B"]) == 0
    out = capsys.readouterr().out
    assert "SELECT" in out and "predURI:isAJoin" in out


def test_transform_to_stdout(workload_dir, capsys):
    explain = os.path.join(workload_dir, sorted(os.listdir(workload_dir))[0])
    assert main(["transform", explain]) == 0
    out = capsys.readouterr().out
    assert "<http://optimatch/" in out
    assert out.count(" .\n") > 10


def test_transform_to_file(workload_dir, tmp_path, capsys):
    explain = os.path.join(workload_dir, sorted(os.listdir(workload_dir))[0])
    output = str(tmp_path / "out.nt")
    assert main(["transform", explain, "-o", output]) == 0
    assert os.path.exists(output)
    assert "triples" in capsys.readouterr().out


def test_kb_builtin(workload_dir, capsys):
    assert main(["kb", workload_dir]) == 0
    out = capsys.readouterr().out
    assert "ran 4 KB entries over 6 plans" in out


def test_kb_from_file(workload_dir, tmp_path, capsys):
    from repro.kb import builtin_knowledge_base

    kb_path = str(tmp_path / "kb.json")
    builtin_knowledge_base("A").save(kb_path)
    assert main(["kb", workload_dir, "--kb-file", kb_path]) == 0
    assert "ran 1 KB entries" in capsys.readouterr().out


def test_stats(workload_dir, capsys):
    assert main(["stats", workload_dir]) == 0
    out = capsys.readouterr().out
    assert "workload: 6 plans" in out


def test_cluster(workload_dir, capsys):
    assert main(["cluster", workload_dir, "-k", "2", "--correlate"]) == 0
    out = capsys.readouterr().out
    assert "cost-based clustering (k=2)" in out


def test_diff_identical(workload_dir, capsys):
    explain = os.path.join(workload_dir, sorted(os.listdir(workload_dir))[0])
    assert main(["diff", explain, explain]) == 0
    assert "identical" in capsys.readouterr().out


def test_diff_different(workload_dir, capsys):
    files = sorted(
        os.path.join(workload_dir, f)
        for f in os.listdir(workload_dir)
        if f.endswith(".exfmt")
    )
    assert main(["diff", files[0], files[1]]) == 1
    assert "plan diff" in capsys.readouterr().out


def test_tree(workload_dir, capsys):
    explain = os.path.join(workload_dir, sorted(os.listdir(workload_dir))[0])
    assert main(["tree", explain]) == 0
    assert "RETURN" in capsys.readouterr().out


def test_validate_directory(workload_dir, capsys):
    assert main(["validate", workload_dir]) == 0
    out = capsys.readouterr().out
    assert out.count("ok   ") == 6


def test_validate_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.exfmt"
    bad.write_text("this is not an explain file")
    assert main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_query_select(workload_dir, capsys):
    explain = os.path.join(workload_dir, sorted(os.listdir(workload_dir))[0])
    sparql = (
        "PREFIX predURI: <http://optimatch/predicate#> "
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s predURI:hasPopNumber ?x }"
    )
    assert main(["query", explain, sparql]) == 0
    out = capsys.readouterr().out
    assert "?n" in out and "row(s)" in out


def test_query_ask(workload_dir, capsys):
    explain = os.path.join(workload_dir, sorted(os.listdir(workload_dir))[0])
    sparql = (
        "PREFIX predURI: <http://optimatch/predicate#> "
        'ASK { ?s predURI:hasPopType "RETURN" }'
    )
    assert main(["query", explain, sparql]) == 0
    assert "ASK -> True" in capsys.readouterr().out


def test_query_from_file(workload_dir, tmp_path, capsys):
    query_file = tmp_path / "q.rq"
    query_file.write_text(
        "PREFIX predURI: <http://optimatch/predicate#> "
        "SELECT ?s WHERE { ?s predURI:isABaseObj ?x } LIMIT 1"
    )
    assert main(["query", workload_dir, "--file", str(query_file)]) == 0


def test_query_without_text_errors(workload_dir, capsys):
    assert main(["query", workload_dir]) == 2


def test_report_stdout(workload_dir, capsys):
    assert main(["report", workload_dir, "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "# Workload health report" in out


def test_report_to_file(workload_dir, tmp_path, capsys):
    output = str(tmp_path / "report.md")
    assert main(["report", workload_dir, "-o", output]) == 0
    assert "wrote report" in capsys.readouterr().out
    assert "## Findings" in open(output).read()


def test_kb_extended(workload_dir, capsys):
    assert main(["kb", workload_dir, "--extended"]) == 0
    assert "ran 14 KB entries" in capsys.readouterr().out


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_experiment_fig9_tiny(capsys):
    assert main(["experiment", "fig9", "--scale", "0.01"]) == 0
    assert "Figure 9" in capsys.readouterr().out


def test_serve_async_flag_still_parses():
    args = build_parser().parse_args(["serve", "--async", "--port", "0"])
    assert args.port == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--threaded"],
        ["serve", "--front", "async"],
        ["search", "wl", "A", "--workers", "2"],
    ],
)
def test_removed_flags_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err



@pytest.mark.parametrize(
    "kwargs", [{"workers": 2}, {"mode": "thread"}], ids=["workers", "thread"]
)
def test_engine_rejects_thread_fan_out(kwargs):
    # There is no thread tier: mode= is not a setting, and more than one
    # worker runs in processes (serially where shared memory is missing).
    if "mode" in kwargs:
        with pytest.raises(TypeError):
            MatchingEngine(**kwargs)
        return
    with MatchingEngine(**kwargs) as engine:
        if engine.mode == "process":
            assert engine.workers == 2
            assert engine.mode_fallback is None
        else:
            assert (engine.mode, engine.workers) == ("serial", 1)
            assert "shared memory unavailable" in engine.mode_fallback
