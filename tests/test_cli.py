import argparse
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from chmv import cli, dsl
from chmv.algebra import make_algebra
from chmv.chain import ChainSize, LINF
from chmv.cli import EXIT_DOMAIN, EXIT_OK, build_parser, main
from chmv.duality import continuous_hom_count, enumerate_continuous_homs
from chmv.multiset import INF, EMultiset, enumerate_morphisms, morphism_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out), err


def test_classify_projective_not_stone(capsys):
    code, doc, _ = run_json(capsys, "classify", "L2 * Linf")
    assert code == EXIT_OK
    assert doc["status"] == "ok"
    assert doc["payload"]["projective"] is True
    assert doc["payload"]["stone"] is False


def test_classify_multiset_urysohn_strauss(capsys):
    code, doc, _ = run_json(capsys, "classify", "{a:1}")
    assert code == EXIT_OK
    assert doc["payload"]["urysohn_strauss"] is True
    assert doc["payload"]["hyperarchimedean"] is True


def test_classify_parse_failure_is_domain_error(capsys):
    code, out, err = run(capsys, "classify", "L1")
    assert code == EXIT_DOMAIN
    assert err


def test_dual_of_multiset(capsys):
    code, doc, _ = run_json(capsys, "dual", "{a:1,b:3}")
    assert code == EXIT_OK
    assert doc["payload"]["dual"] == "L2 * L4"


def test_dual_of_algebra(capsys):
    code, doc, _ = run_json(capsys, "dual", "L3 * Linf")
    assert code == EXIT_OK
    assert doc["payload"]["dual"] == "{x1:2, x2:inf}"


def test_dual_of_empty_multiset(capsys):
    code, doc, _ = run_json(capsys, "dual", "{}")
    assert code == EXIT_OK
    assert doc["payload"]["object"]["factors"] == []


def test_dual_round_trips_the_largest_multiplicity_and_chain_size(capsys):
    """The largest accepted multiplicity and chain size are each other's duals."""
    mult, size = 10 ** 4300 - 2, 10 ** 4300 - 1  # 4300 digits each
    code, doc, _ = run_json(capsys, "dual", f"{{a:{mult}}}")
    assert code == EXIT_OK and doc["payload"]["dual"] == f"L{size}"
    code, doc, _ = run_json(capsys, "dual", doc["payload"]["dual"])
    assert code == EXIT_OK and doc["payload"]["dual"] == f"{{x1:{mult}}}"
    for spec, message in [
        (f"{{a:{mult + 1}}}", "multiplicity must be below 10^4300 - 1 (at position 3)"),
        ("L1" + "0" * 4300, "chain size must be below 10^4300 (at position 0)"),
    ]:
        assert run(capsys, "dual", spec) == (EXIT_DOMAIN, "", message + "\n")


@pytest.mark.parametrize(
    "argv, payload",
    [
        (
            ("dual", "{a:1, b:inf}"),
            {
                "dual": "L2 * Linf",
                "object": {
                    "factors": [{"label": "a", "chain": "L2"}, {"label": "b", "chain": "Linf"}]
                },
            },
        ),
        (
            ("dual", "L3 * Linf"),
            {
                "dual": "{x1:2, x2:inf}",
                "object": {
                    "points": [{"label": "x1", "mult": "2"}, {"label": "x2", "mult": "inf"}]
                },
            },
        ),
        (
            ("classify", "{a:2, b:inf, c:2}"),
            {
                "hyperarchimedean": True,
                "stone": False,
                "projective": False,
                "extremally_disconnected": False,
                "urysohn_strauss": False,
                "profile": {
                    "entries": [{"mult": "2", "card": "2"}, {"mult": "inf", "card": "1"}]
                },
            },
        ),
    ],
)
def test_json_payloads_are_pinned(capsys, argv, payload):
    code, doc, err = run_json(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert doc == {"status": "ok", "payload": payload, "diagnostics": []}


def test_homs_multisets(capsys):
    code, doc, _ = run_json(capsys, "homs", "{a:2}", "{b:1,c:2}")
    assert code == EXIT_OK
    assert doc["payload"]["count"] == 2
    code, doc, _ = run_json(capsys, "homs", "{a:1}", "{b:2}")
    assert doc["payload"]["count"] == 0


def test_homs_algebras_with_listing(capsys):
    code, doc, _ = run_json(capsys, "homs", "L2*L2", "L2", "--mode", "list")
    assert code == EXIT_OK
    assert doc["payload"]["count"] == 2
    assert len(doc["payload"]["homs"]) == 2
    maps = {tuple(sorted(h["index_map"].items())) for h in doc["payload"]["homs"]}
    assert maps == {(("x1", "x1"),), (("x1", "x2"),)}


def test_homs_list_on_multisets(capsys):
    code, doc, err = run_json(capsys, "homs", "{a:2}", "{b:1,c:2}", "--mode", "list")
    assert code == EXIT_OK and err == ""
    assert doc["payload"] == {"count": 2, "homs": [{"map": {"a": "b"}}, {"map": {"a": "c"}}]}


EIGHT_POINTS = "{" + ",".join(f"{p}:1" for p in "abcdefgh") + "}"
OTHER_EIGHT_POINTS = "{" + ",".join(f"{p}:1" for p in "pqrstuvw") + "}"


def test_homs_count_uses_the_product_formula(capsys):
    start = time.monotonic()
    code, doc, _ = run_json(capsys, "homs", EIGHT_POINTS, OTHER_EIGHT_POINTS)
    assert time.monotonic() - start < 2
    assert code == EXIT_OK
    assert doc["payload"] == {"count": 8 ** 8}
    code, doc, _ = run_json(capsys, "homs", "L2*L2*L2", "L2*L2*L2*L2*L2*L2*L2*L2")
    assert doc["payload"] == {"count": 3 ** 8}


def test_homs_list_over_the_limit_fails_fast(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "homs", EIGHT_POINTS, OTHER_EIGHT_POINTS, "--mode", "list")
    assert time.monotonic() - start < 2
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "16777216 maps exceed --limit 10000" in err and "--mode count" in err


def test_homs_list_limit_is_inclusive(capsys):
    code, doc, _ = run_json(capsys, "homs", "L2*L2", "L2", "--mode", "list", "--limit", "2")
    assert code == EXIT_OK
    assert len(doc["payload"]["homs"]) == doc["payload"]["count"] == 2
    code, doc, _ = run_json(capsys, "homs", "L2*L2*L2", "L2", "--mode", "list", "--limit", "2")
    assert code == EXIT_DOMAIN
    assert doc["status"] == "error" and doc["payload"] is None
    assert doc["diagnostics"] == ["3 maps exceed --limit 2; count them with --mode count"]


# 8000 points of multiplicity 6, each with four admissible images: 4^8000 maps, 4817 digits
HUGE_HOM_SET = ("{" + ", ".join(f"p{i}:6" for i in range(8000)) + "}", "{a:1, b:2, c:3, d:6}")
TOO_MANY_DIGITS = "the number of maps has more than 4300 digits"


@pytest.mark.parametrize("mode", ["count", "list"])
def test_homs_refuses_a_count_over_the_digit_limit(capsys, mode):
    code, out, err = run(capsys, "homs", *HUGE_HOM_SET, "--mode", mode)
    assert (code, out, err) == (EXIT_DOMAIN, "", TOO_MANY_DIGITS + "\n")
    code, doc, err = run_json(capsys, "homs", *HUGE_HOM_SET, "--mode", mode)
    assert code == EXIT_DOMAIN and err == ""
    assert doc == {"status": "error", "payload": None, "diagnostics": [TOO_MANY_DIGITS]}


def test_homs_prints_a_count_at_the_digit_limit(capsys):
    # L2 * L2 -> k factors L2 has 2^k maps: 2^14284 has 4300 digits, 2^14285 has 4301
    code, doc, _ = run_json(capsys, "homs", "L2 * L2", " * ".join(["L2"] * 14284))
    assert code == EXIT_OK and doc["payload"] == {"count": 2 ** 14284}
    code, doc, _ = run_json(capsys, "homs", "L2 * L2", " * ".join(["L2"] * 14285))
    assert code == EXIT_DOMAIN and doc["diagnostics"] == [TOO_MANY_DIGITS]


_labels = st.lists(st.sampled_from("abcd"), unique=True, max_size=3)
_small_multisets = _labels.flatmap(lambda labels: st.lists(
    st.sampled_from([1, 2, 3, 4, 6, INF]), min_size=len(labels), max_size=len(labels)
).map(lambda mults: EMultiset(tuple(zip(labels, mults)))))
_small_algebras = _labels.flatmap(lambda labels: st.lists(
    st.sampled_from([ChainSize(2), ChainSize(3), ChainSize(4), ChainSize(5), LINF]),
    min_size=len(labels), max_size=len(labels),
).map(lambda chains: make_algebra(zip(labels, chains))))
_hom_pairs = st.one_of(
    st.tuples(_small_multisets, _small_multisets),
    st.tuples(_small_algebras, _small_algebras),
    st.sampled_from([
        (EMultiset(()), EMultiset(())),
        (make_algebra(()), make_algebra(())),
        (EMultiset((("a", 1),)), EMultiset(())),  # no map: a point has nowhere to go
        (make_algebra((("x", LINF),)), make_algebra((("y", ChainSize(2)),))),  # no hom
    ]),
)


@settings(max_examples=200, deadline=None)
@given(pair=_hom_pairs)
def test_homs_lists_what_the_library_enumerates_in_its_order(pair):
    """The CLI reads the admissible choices itself; it must agree with enumerate_*."""
    src, dst = pair
    if isinstance(src, EMultiset):
        key, maps = "map", [m.mapping for m in enumerate_morphisms(src, dst)]
        count = morphism_count(src, dst)
    else:
        key, maps = "index_map", [h.index_map for h in enumerate_continuous_homs(src, dst)]
        count = continuous_hom_count(src, dst)
    argv = ["--format", "json", "homs", dsl.render(src), dsl.render(dst)]
    code, out = _call(argv + ["--mode", "list"])
    assert code == EXIT_OK
    payload = json.loads(out)["payload"]
    assert payload["count"] == count == len(maps)
    assert [list(h[key].items()) for h in payload["homs"]] == [list(m) for m in maps]
    assert json.loads(_call(argv)[1])["payload"] == {"count": count}


@settings(max_examples=200, deadline=None)
@given(pair=_hom_pairs)
def test_listing_writes_the_bytes_of_json_dumps_of_its_maps(pair):
    """List mode writes its maps from the choice lists; the bytes are those of the dicts."""
    src, dst = pair
    args = argparse.Namespace(
        src=dsl.render(src), dst=dsl.render(dst), mode="list", limit=cli.HOMS_LIST_LIMIT
    )
    payload = cli.cmd_homs(args).payload
    listing = payload["homs"]
    maps = [
        {listing.key: dict(zip(listing.labels, pick))}
        for pick in itertools.product(*listing.choices)
    ]
    materialised = {"count": payload["count"], "homs": maps}
    assert cli._dumps(payload) == json.dumps(materialised, indent=2)  # the text format
    document = {"status": "ok", "payload": payload, "diagnostics": []}
    document_of_maps = {"status": "ok", "payload": materialised, "diagnostics": []}
    assert cli._dumps(document) == json.dumps(document_of_maps, indent=2)  # the json format


def test_homs_mixed_kinds_rejected(capsys):
    code, out, err = run(capsys, "homs", "{a:1}", "L2")
    assert code == EXIT_DOMAIN


def test_eval(capsys):
    code, doc, _ = run_json(
        capsys, "eval", "~x (+) x", "--algebra", "L3", "--env", "x=(1/2)"
    )
    assert code == EXIT_OK
    assert doc["payload"]["coords"] == {"x1": "1"}


def test_eval_two_variables(capsys):
    code, doc, _ = run_json(
        capsys,
        "eval",
        "x (.) y",
        "--algebra",
        "L4 * L2",
        "--env",
        "x=(2/3, 1); y=(2/3, 0)",
    )
    assert code == EXIT_OK
    assert doc["payload"]["coords"] == {"x1": "1/3", "x2": "0"}


def test_eval_unbound_variable(capsys):
    code, out, err = run(capsys, "eval", "x (+) y", "--algebra", "L2", "--env", "x=(1)")
    assert code == EXIT_DOMAIN


@pytest.mark.parametrize(
    "env, message",
    [
        ("x=(1);x=(0)", "bad binding 'x=(0)': 'x' is already bound"),
        ("x=(1); x =(0)", "bad binding ' x =(0)': 'x' is already bound"),
        (" =(1)", "bad binding ' =(1)'"),
        ("x=(1);=(0)", "bad binding '=(0)'"),
        ("x=(1); 1 x=(0)", "bad binding ' 1 x=(0)': '1 x' is not a label"),
        ("x-1=(1)", "bad binding 'x-1=(1)': 'x-1' is not a label"),
        ("1x=(1)", "bad binding '1x=(1)': '1x' is not a label"),
        ("\u00e9=(1)", "bad binding '\u00e9=(1)': '\u00e9' is not a label"),
    ],
)
def test_eval_duplicate_or_empty_binding_is_domain_error(capsys, env, message):
    code, out, err = run(capsys, "eval", "x", "--algebra", "L2", "--env", env)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.strip() == message


@pytest.mark.parametrize(
    "algebra, env, message",
    [
        ("L3", "x=(1/0)", "binding 'x': zero denominator in '1/0'"),
        ("L3 * Linf", "x=(1, 0/0)", "binding 'x': zero denominator in '0/0'"),
        ("L3 * Linf", "x=(1/2, 0); y=(a, 1)",
         "binding 'y': coordinate 'a' is not an integer, p/q or a decimal"),
        ("L3", "x=(2)", "binding 'x': 2 is outside [0, 1]"),
        ("L3", "x=(1/3)", "binding 'x': 1/3 is not a multiple of 1/2"),
        ("L3", "x=(1/2); y=(1, 1)", "binding 'y': expected 1 coordinates, got 2"),
        ("L3", "x=(\u0661/2)", "binding 'x': coordinate '\u0661/2' has a non-ASCII digit"),
        ("L3", "x=(\u0660.\u0665)",
         "binding 'x': coordinate '\u0660.\u0665' has a non-ASCII digit"),
        ("L3", "x=(1/-2)", "binding 'x': coordinate '1/-2' is not an integer, p/q or a decimal"),
        ("L3", "x=(nan)", "binding 'x': coordinate 'nan' is not an integer, p/q or a decimal"),
        ("L3", "x=(inf)", "binding 'x': coordinate 'inf' is not an integer, p/q or a decimal"),
        ("L3", "x=(1/2/3)", "binding 'x': coordinate '1/2/3' is not an integer, p/q or a decimal"),
        ("L3", "x=(1e1/2)", "binding 'x': coordinate '1e1/2' is not an integer, p/q or a decimal"),
        # Fraction() reads these from Python 3.11 and 3.12 on; a coordinate does not
        ("L3", "x=(1_0/20)",
         "binding 'x': coordinate '1_0/20' is not an integer, p/q or a decimal"),
        ("L3", "x=(1 / 2)", "binding 'x': coordinate '1 / 2' is not an integer, p/q or a decimal"),
        ("L3", "x=(-1/2)", "binding 'x': -1/2 is outside [0, 1]"),
    ],
)
def test_eval_coordinate_errors_name_the_binding(capsys, algebra, env, message):
    code, out, err = run(capsys, "eval", "x", "--algebra", algebra, "--env", env)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.strip() == message


def test_multiplicities_are_ascii_digits(capsys):
    message = "expected a multiplicity or 'inf', found '\u0663' (at position 3)\n"
    assert run(capsys, "classify", "{a:\u0663}") == (EXIT_DOMAIN, "", message)
    assert run(capsys, "classify", "{a:3}")[0] == EXIT_OK


@pytest.mark.parametrize("term", ["~" * 5000 + "x"])
def test_eval_too_deep_is_domain_error(capsys, term):
    code, out, err = run(capsys, "eval", term, "--algebra", "L2", "--env", "x=(1)")
    assert code == EXIT_DOMAIN
    assert "deeper than" in err


def test_eval_reads_parentheses_nested_past_the_height_limit(capsys):
    term = "(" * 3000 + "x" + ")" * 3000
    code, doc, err = run_json(capsys, "eval", term, "--algebra", "L3", "--env", "x=(1/2)")
    assert (code, err) == (EXIT_OK, "")
    assert doc["payload"]["coords"] == {"x1": "1/2"}


@pytest.mark.parametrize("coord", ["1e-300000", "5E-1", ".5e0", "1.e+2", "-2e0", "1_0e1"])
def test_eval_exponent_coordinate_fails_fast_and_names_it(capsys, coord):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "x", "--algebra", "L2 * Linf", "--env", f"x=(1, {coord})")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.strip() == (
        f"binding 'x': coordinate {coord!r} uses exponent notation;"
        " write an integer, p/q or a decimal"
    )


# two coprime 3001-digit denominators: 1/P (+) 1/Q has a 6001-digit denominator
P, Q = 10 ** 3000 + 1, 10 ** 3000 + 3


@pytest.mark.parametrize(
    "term, env, message",
    [
        ("x (+) y", f"x=(1/{P}); y=(1/{Q})", "result at 'x1'"),
        ("x", "x=(1/1" + "0" * 5001 + ")", "binding 'x'"),  # 5002 digits: too long to read
        ("x", "y=(0); x=(0." + "0" * 4299 + "1)", "binding 'x'"),  # reads as 1/10^4300
    ],
    ids=["result", "binding-5002-digits", "binding-decimal"],
)
def test_eval_refuses_coordinates_over_the_digit_limit(capsys, term, env, message):
    code, out, err = run(capsys, "eval", term, "--algebra", "Linf", "--env", env)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.strip() == f"{message}: numerator or denominator longer than 4300 digits"


def test_eval_accepts_coordinates_at_the_digit_limit(capsys):
    code, doc, _ = run_json(capsys, "eval", "x (.) y", "--algebra", "Linf", "--env",
                            f"x=(1/{P}); y=(1/{Q})")
    assert code == EXIT_OK and doc["payload"] == {"coords": {"x1": "0"}}
    largest = 10 ** 4300 - 1  # 4300 digits
    code, doc, _ = run_json(capsys, "eval", "x", "--algebra", "Linf", "--env", f"x=(1/{largest})")
    assert code == EXIT_OK and doc["payload"] == {"coords": {"x1": f"1/{largest}"}}


@pytest.mark.parametrize(
    "env, coords",
    [
        ("x=(1, 1)", {"x1": "1", "x2": "1"}),
        ("x=(0, 1/3)", {"x1": "0", "x2": "1/3"}),
        ("x=(1, 0.25)", {"x1": "1", "x2": "1/4"}),
        ("x=(0, .5)", {"x1": "0", "x2": "1/2"}),
        ("x=(+1., -0/3)", {"x1": "1", "x2": "0"}),
    ],
)
def test_eval_reads_integer_fraction_and_decimal_coordinates(capsys, env, coords):
    code, doc, _ = run_json(capsys, "eval", "x", "--algebra", "L2 * Linf", "--env", env)
    assert code == EXIT_OK
    assert doc["payload"] == {"coords": coords}


def test_file_input(capsys, tmp_path):
    spec = tmp_path / "alg.txt"
    spec.write_text("L2 * L3\n")
    code, doc, _ = run_json(capsys, "dual", f"@{spec}")
    assert code == EXIT_OK
    assert doc["payload"]["dual"] == "{x1:1, x2:2}"


def test_missing_file_is_domain_error(capsys, tmp_path):
    code, out, err = run(capsys, "classify", f"@{tmp_path}/absent.txt")
    assert code == EXIT_DOMAIN


def test_selftest_small(capsys):
    code, out, err = run(capsys, "selftest", "--scale", "small")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[-1] == "ok"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert len(lines) == 11  # ten suites plus the summary line


def assert_unrecognized(code, out, err, args):
    assert code == EXIT_DOMAIN
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: chmv ")
    assert error.endswith(f": error: unrecognized arguments: {args}")


@pytest.mark.parametrize("flag", ["--samples", "--bound"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_selftest_counts_below_1_are_usage_errors(capsys, flag, value):
    """--samples and --bound are gone: every selftest run makes the same checks,
    so any count, 1 or below it, is a usage error."""
    for count in ("1", value):
        code, out, err = run(capsys, "selftest", "--scale", "small", flag, count)
        assert_unrecognized(code, out, err, f"{flag} {count}")


def test_selftest_counts_must_be_ints(capsys):
    code, out, err = run(capsys, "selftest", "--scale", "small", "--samples", "1.5")
    assert_unrecognized(code, out, err, "--samples 1.5")


def test_selftest_injected_fault(monkeypatch, capsys):
    run_all = cli.verify.run_all

    def with_a_failing_suite(*args, **kwargs):
        fault = cli.verify.SuiteResult("injected-fault", 1, ["deliberate failure"])
        return run_all(*args, **kwargs) + [fault]

    monkeypatch.setattr(cli.verify, "run_all", with_a_failing_suite)
    code, out, err = run(capsys, "selftest", "--scale", "small")
    assert code == EXIT_DOMAIN
    assert "FAIL injected-fault (1/1 checks failed): deliberate failure" in out.splitlines()
    assert "FAIL injected-fault (1/1 checks failed): deliberate failure" in err.splitlines()


def test_selftest_json_schema(capsys):
    code, doc, _ = run_json(capsys, "selftest", "--scale", "small")
    assert code == EXIT_OK
    assert doc["payload"]["ok"] is True
    assert len(doc["payload"]["suites"]) == 10
    for suite in doc["payload"]["suites"]:
        assert suite["ok"] and suite["checks"] > 0 and suite["failures"] == []


def test_text_format_default(capsys):
    code, out, err = run(capsys, "classify", "L2")
    assert code == EXIT_OK
    assert '"projective": true' in out


def test_determinism(capsys):
    first = run_json(capsys, "selftest", "--scale", "small", "--seed", "3")
    second = run_json(capsys, "selftest", "--scale", "small", "--seed", "3")
    assert first == second


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["--format", "xml", "classify", "L2"], "argument --format: invalid choice: 'xml'"),
        (["homs", "{a:1}"], "the following arguments are required: dst"),
        ([], "the following arguments are required: command"),
        (["homs", "L2", "--", "--"], "expected one argument after '--'"),
        (["selftest", "--inject-fault"], "unrecognized arguments: --inject-fault"),
        (
            ["homs", "L3", "L2", "--mode", "list", "--limit", "-1"],
            "argument --limit: must be at least 0, got -1",
        ),
        (
            ["homs", "L3", "L2", "--mode", "list", "--limit", "abc"],
            "argument --limit: invalid int value: 'abc'",
        ),
    ],
)
def test_usage_errors_exit_1_with_usage_on_stderr(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: chmv ")
    assert error.startswith("chmv") and f": error: {message}" in error


def test_closed_stdout_exits_1_without_a_traceback():
    """A reader that quits early, as in `chmv classify ... | head -c 10`.

    The child reads its spec from stdin, so it cannot write before the parent
    has closed its end of the stdout pipe: the write fails every time.
    """
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chmv.cli", "classify", "@/dev/stdin"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    proc.stdout.close()
    _, err = proc.communicate("L2 * Linf", timeout=60)
    assert proc.returncode == EXIT_DOMAIN
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv", [["--help"], ["homs", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.startswith("usage: chmv") and err == ""


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    queries = [
        ["classify", "L2 * Linf"],
        ["--format", "json", "dual", "{a:1,b:3}"],
        ["homs", "L2*L2", "L2", "--mode", "list"],
        ["eval", "~x (+) x", "--algebra", "L3", "--env", "x=(1/2)"],
        ["bogus"],
    ]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        well_formed_codes = [main(queries[i % 4]) for i in range(40)]
        built_by_well_formed = list(built)
        codes = [main(queries[i % len(queries)]) for i in range(50)]
    build_parser.cache_clear()
    assert well_formed_codes == [EXIT_OK] * 40
    assert built_by_well_formed == []  # the recognizer read them all
    assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_DOMAIN] * 10
    assert len(built) == 6  # chmv and its five subcommands, for the first "bogus"
    assert built[0] == "chmv"


# --- properties at the CLI boundary -----------------------------------------

def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


REFERENCE_QUERY = ["--format", "json", "homs", "L2*L2", "L2", "--mode", "list"]
REFERENCE_OUTPUT = """\
{
  "status": "ok",
  "payload": {
    "count": 2,
    "homs": [
      {
        "index_map": {
          "x1": "x1"
        }
      },
      {
        "index_map": {
          "x1": "x2"
        }
      }
    ]
  },
  "diagnostics": []
}
"""

CLASSIFY_L2_TEXT = """\
{
  "hyperarchimedean": true,
  "stone": true,
  "projective": true,
  "extremally_disconnected": true,
  "urysohn_strauss": true,
  "profile": {
    "entries": [
      {
        "mult": "1",
        "card": "1"
      }
    ]
  }
}
"""


HOMS_LIST_TEXT = """\
{
  "count": 2,
  "homs": [
    {
      "map": {
        "a": "b"
      }
    },
    {
      "map": {
        "a": "c"
      }
    }
  ]
}
"""

HOMS_LIST_FROM_EMPTY = """\
{
  "status": "ok",
  "payload": {
    "count": 1,
    "homs": [
      {
        "map": {}
      }
    ]
  },
  "diagnostics": []
}
"""

HOMS_LIST_NONE = """\
{
  "status": "ok",
  "payload": {
    "count": 0,
    "homs": []
  },
  "diagnostics": []
}
"""


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (REFERENCE_QUERY, REFERENCE_OUTPUT),
        (["classify", "L2"], CLASSIFY_L2_TEXT),
        (["homs", "{a:2}", "{b:1,c:2}", "--mode", "list"], HOMS_LIST_TEXT),
        (["--format", "json", "homs", "{}", "{a:1}", "--mode", "list"], HOMS_LIST_FROM_EMPTY),
        (["--format", "json", "homs", "Linf", "L2", "--mode", "list"], HOMS_LIST_NONE),
    ],
)
def test_stdout_bytes_are_pinned(capsys, argv, stdout):
    """Indentation and key order included, which parsing the JSON would not see."""
    assert run(capsys, *argv) == (EXIT_OK, stdout, "")


_algebras = st.sampled_from([
    "L2", "L3", "L3 * Linf", "[a: L2, b: L4]", "[]", "L2*L2*L2", "L1", "L2 *", "[a: L2, a: L3]",
])
_multisets = st.sampled_from(["{}", "{a:1}", "{a:2, b:inf}", "{p:1,q:3,r:1}", "{a:0}", "{a:1", "{a:true}"])
_objects = st.one_of(_algebras, _multisets)
_terms = st.sampled_from([
    "x", "~x (+) x", "x (.) y", "x /\\ ~y", "x \\/ y -> z", "0", "1", "((x))", "~~~x",
    "(x", "x (+)", "x y", "",
])
_envs = st.sampled_from([
    "", "x=(1/2)", "x=(1, 0); y=(0, 1)", "x=(1/3, 1/2)", "x=(1/0)", "x", "x=(a)", "x=()",
    "y=(1);", "x=(2)", "x=(-1/2)",
])
_flags = st.sampled_from([
    "--format", "json", "text", "xml", "--mode", "list", "count", "--limit", "0", "2", "-1",
    "x", "--algebra", "--env", "-h", "--", "-",
])
_junk = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=8
).filter(lambda t: not t.startswith("@") and t != "selftest")
_tokens = st.one_of(_objects, _terms, _envs, _flags, _junk)
_well_formed = st.one_of(
    st.tuples(st.sampled_from(["classify", "dual"]), _objects).map(list),
    st.builds(
        lambda src, dst, mode, limit: ["homs", src, dst, "--mode", mode, "--limit", limit],
        _objects, _objects, st.sampled_from(["count", "list"]),
        st.sampled_from(["0", "2", "-1", "10000"]),
    ),
    st.builds(
        lambda term, algebra, env: ["eval", term, "--algebra", algebra, "--env", env],
        _terms, _algebras, _envs,
    ),
)
_formats = st.sampled_from([[], ["--format", "json"], ["--format", "text"]])
_argv = st.one_of(
    st.builds(lambda fmt, cmd, extra: fmt + cmd + extra, _formats, _well_formed,
              st.lists(_tokens, max_size=2)),
    st.builds(lambda fmt, cmd, rest: fmt + [cmd] + rest, _formats,
              st.sampled_from(["classify", "dual", "homs", "eval"]), st.lists(_tokens, max_size=6)),
    st.lists(st.one_of(_flags, _junk), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(argv=_argv)
def test_cli_boundary_returns_0_or_1_and_keeps_no_state(argv):
    code, _ = _call(argv)
    assert code in (EXIT_OK, EXIT_DOMAIN)
    assert _call(REFERENCE_QUERY) == (EXIT_OK, REFERENCE_OUTPUT)


def _argparse_vars(argv: list[str]) -> dict:
    return vars(build_parser().parse_args(argv))


def _one_token_replaced(argv: list[str], index: int, token: str) -> list[str]:
    index %= len(argv)
    return argv[:index] + [token] + argv[index + 1:]


_formatted = st.builds(lambda fmt, cmd: fmt + cmd, _formats, _well_formed)
_near_well_formed = st.builds(_one_token_replaced, _formatted, st.integers(0, 9), _tokens)


@settings(max_examples=1000, deadline=None)
@given(argv=st.one_of(_argv, _formatted, _near_well_formed))
@example(argv=["--format", "xml", "classify", "L2"])
@example(argv=["homs", "L2", "L3", "--mode", "json"])
@example(argv=["homs", "L2", "L3", "--limit", "abc"])
@example(argv=["homs", "L2", "L3", "--limit", "2", "--limit", "3"])
@example(argv=["eval", "x", "--env", "x=(1)"])
@example(argv=["selftest", "--seed", "1.5"])
def test_recognizer_returns_what_argparse_returns_or_defers(argv):
    """argparse is the reference: an argv the recognizer takes parses to the same Namespace."""
    recognized = cli._recognize(argv)
    if recognized is not None:
        assert vars(recognized) == _argparse_vars(argv)  # a rejected argv raises UsageError


README = Path(__file__).resolve().parents[1] / "README.md"
EVERY_OPTION = [
    ["homs", "{a:2}", "{b:1,c:2}", "--mode", "list", "--limit", "5"],
    ["homs", "--limit", "5", "L2 * L3", "--mode", "count", "L3"],
    ["eval", "x (+) y", "--algebra", "L2 * L3", "--env", "x=(1, 0); y=(0, 1/2)"],
    ["selftest", "--scale", "small", "--seed", "3"],
]


def _readme_examples() -> list[list[str]]:
    """The argv of each example in the README's CLI table."""
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `")]
    cells = [row.split(" | ")[1] for row in rows]
    return [shlex.split(cell.split("`")[1])[1:] for cell in cells if cell.startswith("`chmv ")]


def test_recognizer_takes_the_readme_examples_and_every_option():
    examples = _readme_examples()
    assert len(examples) == 7
    for argv in examples + EVERY_OPTION:
        for fmt in ([], ["--format", "json"]):
            recognized = cli._recognize(fmt + argv)
            assert recognized is not None, fmt + argv
            assert vars(recognized) == _argparse_vars(fmt + argv)


_json_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028'), st.characters()))
_json_leaves = st.one_of(
    _json_text,
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.booleans(),
    st.none(),
)
_json_payloads = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(obj=_json_payloads)
def test_emitter_writes_the_bytes_of_json_dumps(obj):
    # the command shapes: str, int, bool, None, lists and dicts with str keys
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [0.5, (1, 2), Fraction(1, 2), {1: "a"}], ids=repr)
def test_emitter_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)
    with pytest.raises(TypeError):
        cli._dumps({"payload": [obj]})  # nested, as in the JSON envelope
