import json
import time

import pytest

from chmv.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_OK, main


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


def test_homs_count_uses_the_product_formula(capsys):
    src = "{" + ",".join(f"{p}:1" for p in "abcdefgh") + "}"
    dst = "{" + ",".join(f"{p}:1" for p in "pqrstuvw") + "}"
    start = time.monotonic()
    code, doc, _ = run_json(capsys, "homs", src, dst)
    assert time.monotonic() - start < 2
    assert code == EXIT_OK
    assert doc["payload"] == {"count": 8 ** 8}
    code, doc, _ = run_json(capsys, "homs", "L2*L2*L2", "L2*L2*L2*L2*L2*L2*L2*L2")
    assert doc["payload"] == {"count": 3 ** 8}


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


@pytest.mark.parametrize("term", ["~" * 5000 + "x", "(" * 3000 + "x" + ")" * 3000])
def test_eval_too_deep_is_domain_error(capsys, term):
    code, out, err = run(capsys, "eval", term, "--algebra", "L2", "--env", "x=(1)")
    assert code == EXIT_DOMAIN
    assert "deeper than" in err


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


def test_selftest_injected_fault(capsys):
    code, out, err = run(capsys, "selftest", "--scale", "small", "--inject-fault")
    assert code == EXIT_DOMAIN
    assert "FAIL" in out


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
