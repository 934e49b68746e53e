"""Command-line surface, report assembly, result cache."""

import argparse
import dataclasses
import errno
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from koszulforge import betti, cli, hilbert, reports
from koszulforge.betti import KoszulConfig
from koszulforge.cache import ResultCache, cache_key
from koszulforge.cli import build_parser, main
from koszulforge.errors import InputError
from koszulforge.graphs import parse_graph
from koszulforge.reports import analyze, render_text
from koszulforge.toric import monomial_map, toric_ideal


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_reader_closing_early_is_quiet():
    # a payload of about 340 kB, far over a pipe's buffer: the reader stops
    # after 100 bytes, as ``| head -c 100`` does
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "koszulforge.cli", "stable-sets", "cycle(18)"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert head.startswith(b"{")
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_stable_sets_command(capsys):
    code, out, _ = run_cli(capsys, "stable-sets", "complement(cycle(7))")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 15 and data["alpha"] == 2


def test_stable_sets_cap_ends_with_exit_2(capsys):
    # cycle(60) has about 1.5e12 stable sets; listing stops at the cap
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "stable-sets", "cycle(60)")
    assert code == 2
    assert err.startswith("resource cap: ")
    assert time.perf_counter() - start < 5


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "cycle(5)")
    assert code == 0
    data = json.loads(out)
    assert data["almost_bipartite"] is True
    assert data["comparability"] is False


def test_enumerate_command(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4")
    assert code == 0
    assert len(json.loads(out)) == 11


def test_hilbert_command_text(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "paper:family(1)",
                           "--format", "text")
    assert code == 0
    assert out.strip() == "(1 + 8t + 21t^2 + 21t^3 + 8t^4 + t^5) / (1 - t)^10"


def test_hilbert_command_json(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "complement(cycle(7))")
    assert code == 0
    data = json.loads(out)
    assert data["h_vector"] == [1, 7, 14, 7, 1]
    assert data["dim"] == 8


def test_groebner_command_var_order(capsys):
    code, out, _ = run_cli(capsys, "groebner", "cycle(4)",
                           "--var-order",
                           "y_{2,4},y_{1,3},y_{4},y_{3},y_{2},y_{1},y_{}")
    assert code == 0
    data = json.loads(out)
    assert data["order"]["ranking"][0] == 6  # y_{2,4} is the least variable


def test_gorenstein_command(capsys):
    code, out, _ = run_cli(capsys, "gorenstein", "cycle(4)")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Gorenstein"


@pytest.mark.parametrize("spec", ["paper:G2", "cycle(6)"])
def test_gorenstein_command_prints_the_library_certificate(capsys, spec):
    # the command searches its linear system with the library's one seed;
    # on these two rings another seed finds another system
    code, out, _ = run_cli(capsys, "gorenstein", spec)
    assert code == 0
    ideal = toric_ideal(monomial_map(parse_graph(spec)))
    assert json.loads(out) == hilbert.gorenstein_certificate(ideal).to_json()


def test_qgb_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "qgb", "cycle(5)",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["exists"] is True
    # second run hits the cache and prints identical JSON
    code2, out2, _ = run_cli(capsys, "qgb", "cycle(5)",
                             "--cache-dir", str(tmp_path))
    assert out2 == out


def test_toric_ideal_command(capsys):
    code, out, _ = run_cli(capsys, "toric-ideal", "cycle(5)")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"generators", "map", "provenance"}
    assert data["provenance"] == "elimination"
    assert len(data["generators"]) == 12
    code, out, _ = run_cli(capsys, "toric-ideal", "cycle(5)",
                           "--format", "text")
    assert code == 0 and out == "12 generators (elimination)\n"


def test_cache_entry_of_other_sources_is_a_miss(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.setattr(cli, "source_digest", lambda: "other sources")
    code, want, _ = run_cli(capsys, "qgb", "cycle(5)",
                            "--cache-dir", str(tmp_path))
    assert code == 0
    [entry] = tmp_path.glob("*.json")
    stale = json.loads(entry.read_text())
    stale["value"]["exists"] = "stale"
    entry.write_text(json.dumps(stale))
    # the sources that wrote the entry read it back ...
    _, out, _ = run_cli(capsys, "qgb", "cycle(5)", "--cache-dir", str(tmp_path))
    assert json.loads(out)["exists"] == "stale"
    # ... and the sources of this checkout do not
    monkeypatch.undo()
    _, out, _ = run_cli(capsys, "qgb", "cycle(5)", "--cache-dir", str(tmp_path))
    assert out == want
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_koszul_command(capsys):
    code, out, _ = run_cli(capsys, "koszul", "cycle(5)")
    assert code == 0
    assert json.loads(out)["status"] == "KoszulViaQuadraticGB"


def test_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "stable-sets", "triangle(3)")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("stable-sets", '{"n": 2, "edges": [[1]]}'),
    ("paper-suite", "--cases", "x"),
])
def test_malformed_input_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and not out


@pytest.mark.parametrize("damage", [lambda text: text[:20],
                                    lambda text: '{"key": "no value"}'])
def test_damaged_cache_entry_is_a_miss(capsys, tmp_path, damage):
    code, out, _ = run_cli(capsys, "qgb", "cycle(5)", "--cache-dir", str(tmp_path))
    assert code == 0
    [entry] = tmp_path.glob("*.json")
    entry.write_text(damage(entry.read_text()))
    code2, out2, _ = run_cli(capsys, "qgb", "cycle(5)",
                             "--cache-dir", str(tmp_path))
    assert code2 == 0 and out2 == out
    assert json.loads(entry.read_text())["value"] == json.loads(out)


@pytest.mark.parametrize("argv", [
    ("stable-sets", "cycle(4)", "--marking-cap", "5"),
    ("classify", "cycle(4)", "--spair-cap", "5"),
    ("enumerate", "3", "--jobs", "2"),
    ("toric-ideal", "cycle(4)", "--order", "lex"),
    ("hilbert", "cycle(4)", "--cache-dir", "x"),
    ("gorenstein", "cycle(4)", "--char", "7"),
    ("qgb", "cycle(4)", "--seed", "1"),
    ("koszul", "cycle(4)", "--no-cache"),
    ("analyze", "cycle(4)", "--var-order", "y_{}"),
    ("groebner", "cycle(4)", "--imax", "2"),
    ("paper-suite", "--marking-cap", "5"),
    ("paper-suite", "--jobs", "2"),
    ("gorenstein", "paper:G2", "--seed", "1"),
    ("groebner", "cycle(4)", "--order", "revlex-nongraded"),
])
def test_unhonoured_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    # a removed --order value is an unknown choice, not an unknown flag
    expected = ("invalid choice" if "revlex-nongraded" in argv
                else "unrecognized arguments")
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("command", ["koszul", "analyze"])
@pytest.mark.parametrize("char", ["6", "-3"])
def test_bad_characteristic_is_rejected(capsys, command, char):
    code, out, err = run_cli(capsys, command, "cycle(4)", "--char", char)
    assert code == 1
    assert "characteristic" in err and not out


@pytest.mark.parametrize("argv", [
    ("koszul", "cycle(4)", "--imax", "-5", "--jmax", "-3"),
    ("koszul", "complement(cycle(7))", "--imax", "-1"),
    ("analyze", "cycle(4)", "--jmax", "-1"),
])
def test_negative_betti_bound_is_rejected_before_any_work(capsys, monkeypatch,
                                                          argv):
    def search(*args, **kwargs):
        pytest.fail("the marking search ran before the bounds were checked")

    monkeypatch.setattr(betti, "decide_quadratic_gb", search)
    monkeypatch.setattr(reports, "decide_quadratic_gb", search)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "bounds must be nonnegative" in err and not out


@pytest.mark.parametrize("argv", [
    ("toric-ideal", "cycle(5)", "--spair-cap", "-1"),
    ("groebner", "cycle(5)", "--spair-cap", "-1", "--no-cache"),
    ("qgb", "cycle(5)", "--marking-cap", "-5", "--no-cache"),
    ("koszul", "cycle(5)", "--spair-cap", "-1"),
    ("analyze", "cycle(5)", "--spair-cap", "-1"),
    ("analyze", "cycle(5)", "--marking-cap", "-1"),
])
def test_negative_cap_is_an_input_error(capsys, argv):
    # a cap of -1 is malformed, not a budget to raise: exit 1, not 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "must be nonnegative" in err
    assert not out


@pytest.mark.parametrize("options", [KoszulConfig(spair_cap=-1),
                                     KoszulConfig(marking_cap=-1)])
def test_negative_cap_fails_the_config_check(options):
    with pytest.raises(InputError, match="must be nonnegative"):
        options.check()
    with pytest.raises(InputError, match="must be nonnegative"):
        analyze("cycle(5)", options)


def test_zero_spair_cap_is_a_resource_cap(capsys):
    code, _, err = run_cli(capsys, "toric-ideal", "cycle(5)", "--spair-cap", "0")
    assert code == 2
    assert "S-pair budget of 0 exceeded" in err


def test_analyze_rejects_composite_characteristic():
    with pytest.raises(InputError):
        analyze("cycle(4)", KoszulConfig(characteristic=6))


def test_resource_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "qgb", "complement(cycle(7))",
                           "--marking-cap", "10", "--no-cache")
    assert code == 2
    assert "resource cap" in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "stable-sets", "cycle(4)",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["count"] == 7


def test_paper_suite_subset(capsys):
    code, out, _ = run_cli(capsys, "paper-suite", "--cases", "1,10")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert [c["id"] for c in data["suite"]] == [1, 10]


def test_paper_suite_runs_a_repeated_case_once(capsys):
    code, out, _ = run_cli(capsys, "paper-suite", "--cases", "1,1")
    assert code == 0
    data = json.loads(out)
    assert [c["id"] for c in data["suite"]] == [1]
    assert list(data["timings"]) == ["1"]


def test_paper_suite_unknown_case_exits_1(capsys):
    code, out, err = run_cli(capsys, "paper-suite", "--cases", "12")
    assert code == 1 and not out
    assert err == "error: unknown case ids: [12]\n"


def test_paper_suite_schema_is_the_reports_schema(capsys):
    assert cli.SCHEMA is reports.SCHEMA
    code, out, _ = run_cli(capsys, "paper-suite", "--cases", "1")
    assert code == 0
    assert json.loads(out)["schema"] == reports.SCHEMA


def test_paper_suite_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "paper-suite", "--cases", "1")
    code2, out2, _ = run_cli(capsys, "paper-suite", "--cases", "1")
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timings")
    b.pop("timings")
    assert a == b


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def square_report():
    return analyze("cycle(4)")


def test_analyze_square(square_report):
    r = square_report
    assert r["schema"] == "koszul-forge/1"
    assert r["stable_sets"]["count"] == 7
    assert r["ring"]["h_vector"] == [1, 2, 1]
    assert r["ring"]["embdim"] - r["ring"]["dim"] == r["ring"]["h_vector"][1]
    assert r["ideal"]["quadratic"] is True
    assert r["gorenstein"]["verdict"] == "Gorenstein"
    assert r["quadratic_gb"]["exists"] is True
    assert r["koszul"]["status"] == "KoszulViaQuadraticGB"
    assert r["headline"] == "Koszul quadratic Gorenstein"


def test_analyze_g4_headline(capsys):
    code, out, _ = run_cli(capsys, "analyze", "paper:G4")
    assert code == 0
    assert json.loads(out)["headline"] == "Koszul quadratic non-Gorenstein"


def test_analyze_capped_marking_search_still_reports():
    r = analyze("complement(cycle(7))", KoszulConfig(marking_cap=100))
    assert r["quadratic_gb"]["exists"] is None
    assert r["koszul"]["status"] == "NonKoszul"
    assert r["koszul"]["witness"] == [3, 4, 1]
    assert "marking search skipped" in r["koszul"]["note"]


def test_analyze_reports_a_wrong_dimension_as_an_engine_fault(monkeypatch):
    # h1 = embdim - dim holds for every toric ring: a breach is no input
    # error, so it must not exit 1 with "error:"
    real = reports.hilbert_series

    def off_by_one(*args, **kwargs):
        hd = real(*args, **kwargs)
        return dataclasses.replace(hd, krull_dim=hd.krull_dim + 1)

    monkeypatch.setattr(reports, "hilbert_series", off_by_one)
    with pytest.raises(AssertionError, match="h1 != embdim - dim"):
        analyze("cycle(4)")


def test_analyze_reports_a_stray_beta_2j_as_an_engine_fault(monkeypatch):
    # a quadratic ideal has beta_{2,j} = 0 for j > 2
    stray = betti.KoszulVerdict(
        "KoszulUpToBound", table=betti.BettiTable({(2, 3): 1}, 4, 5, 0))
    monkeypatch.setattr(reports, "koszul_verdict", lambda *args: stray)
    with pytest.raises(AssertionError, match="beta_2j != 0"):
        analyze("cycle(4)")


def test_analyze_searches_for_a_linear_system_once(monkeypatch):
    # the Gorenstein certificate and the Koszul verdict's artinian reduction
    # share one memoised search
    calls = [0]
    search = hilbert.find_regular_linear_system

    def counted(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(hilbert, "find_regular_linear_system", counted)
    hilbert.regular_linear_system.cache_clear()
    r = analyze("complement(cycle(7))", KoszulConfig(marking_cap=100))
    assert r["koszul"]["status"] == "NonKoszul"
    assert calls[0] == 1


@pytest.mark.parametrize("spec, options, flags", [
    ("cycle(5)", KoszulConfig(), ()),
    ("complement(cycle(7))", KoszulConfig(marking_cap=100),
     ("--marking-cap", "100")),
], ids=["marking-search", "betti-table"])
def test_analyze_koszul_block_equals_the_koszul_command(capsys, spec, options,
                                                        flags):
    code, out, _ = run_cli(capsys, "koszul", spec, *flags)
    assert code == 0
    block = analyze(spec, options)["koszul"]
    assert json.loads(json.dumps(block)) == json.loads(out)


def test_analyze_capped_resolution_still_reports(monkeypatch):
    monkeypatch.setattr(betti, "BETTI_COLUMN_CAP", 48)
    r = analyze("complement(cycle(7))", KoszulConfig(marking_cap=100))
    assert r["koszul"]["status"] is None
    assert "over the cap 48" in r["koszul"]["skipped"]
    assert r["headline"] == "quadratic Gorenstein"
    assert "koszul: skipped (" in render_text(r)


def test_betti_bounds_over_the_entry_cap_exit_2(capsys):
    # 3000001 * 6 entries: refused by the configuration check, before the
    # toric ideal's marking search or any Betti step
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "koszul", "cycle(5)", "--marking-cap",
                             "1", "--imax", "3000000")
    assert code == 2 and not out
    assert err.startswith("resource cap:")
    assert f"over the cap {betti.BETTI_ENTRY_CAP}" in err
    assert time.perf_counter() - start < 5


def test_analyze_skips_koszul_block_over_the_entry_cap():
    r = analyze("cycle(5)", KoszulConfig(i_max=3_000_000, marking_cap=1))
    assert r["koszul"]["status"] is None
    assert f"over the cap {betti.BETTI_ENTRY_CAP}" in r["koszul"]["skipped"]
    assert r["gorenstein"]["verdict"] == "Gorenstein"


def test_analyze_renders_text(square_report):
    text = render_text(square_report)
    assert "h=(1, 2, 1)" in text
    assert "headline" in text


def test_analyze_timings_separate_block(square_report):
    payload = dict(square_report)
    payload.pop("timings")
    assert "timings" not in json.dumps(payload)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key({"op": "test", "x": 1})
    assert cache.get(key) is None
    cache.put(key, {"result": [1, 2, 3]})
    entry = cache.get(key)
    assert entry["value"] == {"result": [1, 2, 3]}
    assert entry["key"] == key


def test_cache_immutable(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key({"op": "x"})
    cache.put(key, {"v": 1})
    cache.put(key, {"v": 2})
    assert cache.get_value(key) == {"v": 1}


def test_cache_keys_differ_on_content():
    assert cache_key({"a": 1}) != cache_key({"a": 2})
    assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})


def test_cache_concurrent_puts(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache_key({"op": "concurrent"})
    errors = []

    def writer(n):
        try:
            cache.put(key, {"writer": n})
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    value = cache.get_value(key)
    assert value is not None and "writer" in value
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1


def _readme_flag_rows():
    """(flags, subcommands) for every row of the README's flag table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = []
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        if not line.startswith("| `--") or len(cells) != 2:
            continue
        flags = {f: set(re.findall(r"\w+", choices.replace("\\|", " ")))
                 for f, choices in re.findall(r"(--[a-z-]+)(?: \{([^}]*)\})?",
                                              cells[0])}
        rows.append((flags, cells[1]))
    return rows


def test_readme_flag_table_matches_parser():
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    accepted = {}  # flag -> (subcommands accepting it, its choices)
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag.startswith("--") and flag != "--help":
                    cmds, _ = accepted.setdefault(flag, (set(), action.choices))
                    cmds.add(name)
    documented = {}
    for flags, where in _readme_flag_rows():
        cmds = (set(subparsers.choices) if where == "all"
                else set(re.findall(r"`([a-z-]+)`", where)))
        for flag, choices in flags.items():
            documented[flag] = cmds
            parser_choices = accepted.get(flag, (None, None))[1]
            if choices and parser_choices:
                assert choices == set(parser_choices), flag
    assert documented == {f: cmds for f, (cmds, _) in accepted.items()}


@pytest.mark.parametrize("target", ["os.replace", "tempfile.mkstemp"])
def test_failed_cache_write_keeps_the_result(capsys, monkeypatch, tmp_path,
                                             target):
    code, want, _ = run_cli(capsys, "groebner", "cycle(4)", "--no-cache")
    assert code == 0

    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(target, full)
    code, out, err = run_cli(capsys, "groebner", "cycle(4)",
                             "--cache-dir", str(tmp_path))
    assert code == 0 and out == want
    assert "warning: cache write failed" in err
    assert list(tmp_path.iterdir()) == []  # no entry, no temp file


def test_cache_degrades_on_unwritable_dir(capsys):
    cache = ResultCache("/proc/definitely/not/writable")
    assert not cache.enabled
    assert cache.get("abc") is None
    cache.put("abc", {})  # no crash


def test_disabled_cache():
    cache = ResultCache(None)
    assert not cache.enabled
