import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from qbecc.classical import rs_mds
from qbecc.cli import main
from qbecc.gf import GF4, ExtField
from qbecc.stabilizer import ResourceLimitError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_15_3(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "15", "--poly", "1^6 2^3 1^0")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 15, "k": 3, "l": 3, "qrb": 3,
                       "saturates": True, "degenerate": False, "distance": 3}


def test_analyze_css_21_9(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "21", "--construction", "css",
                        "--poly", "1^6 1^4 1^1 1^0",
                        "--poly2", "1^6 1^4 1^2 1^1 1^0",
                        "--distance-limit", "0")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["l"], payload["qrb"]) == (21, 9, 2, 3)
    assert payload["saturates"] is False
    assert "distance" not in payload


@pytest.mark.parametrize("polys", [("1^0", "1^13 1^0"),
                                   ("1^1 1^0", " ".join(f"1^{e}" for e in range(12, -1, -1)))])
def test_analyze_k0_row_has_no_distance(capsys, polys):
    # k = 0 CSS rows that search writes at n = 13, the first with C2 the zero
    # code: no logical operator, so no distance field (not the 2n start value)
    code, out = run_cli(capsys, "analyze", "--n", "13", "--construction", "css",
                        "--poly", polys[0], "--poly2", polys[1])
    assert code == 0
    assert json.loads(out) == {"n": 13, "k": 0, "l": 3, "qrb": 3,
                               "saturates": True, "degenerate": True}


def test_analyze_wide_syndrome(capsys):
    # r = 70 > 64 syndrome bits: the analyzer exited 3 on this code before
    qr = "1^35 1^34 1^31 1^30 1^28 1^27 1^22 1^18 1^11 1^10 1^9 1^8 1^7 1^2 1^0"
    code, out = run_cli(capsys, "analyze", "--n", "71", "--construction", "css",
                        "--poly", qr, "--poly2", qr)
    assert code == 0
    assert json.loads(out) == {"n": 71, "k": 1, "l": 17, "qrb": 17,
                               "saturates": True, "degenerate": False}


def test_analyze_leaves_out_a_distance_over_64_bits(capsys):
    # 2^(n+k) = 2^34 is within the limit, but the dual's elements have
    # 2n = 66 bits: the distance field is left out, as for an over-limit
    # count, and the burst fields are printed (this exited 3 before)
    code, out = run_cli(capsys, "analyze", "--n", "33", "--construction", "css",
                        "--poly", "1^2 1^1 1^0",
                        "--poly2", "1^30 1^27 1^24 1^21 1^18 1^15 1^12 1^9 1^6 1^3 1^0",
                        "--distance-limit", str(1 << 35))
    assert code == 0
    assert json.loads(out) == {"n": 33, "k": 1, "l": 1, "qrb": 8,
                               "saturates": False, "degenerate": True}


@pytest.mark.parametrize("n", ["0", "-3"])
def test_analyze_rejects_length_below_one(capsys, n):
    code, out = run_cli(capsys, "analyze", "--n", n, "--poly", "1^0")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "UsageError",
                                        "message": f"analyze needs n >= 1, got n={n}"}


@pytest.mark.parametrize("limit", ["-1", "-268435456"])
def test_analyze_rejects_a_negative_distance_limit(capsys, limit):
    # 0 disables the distance; a negative limit is refused, not read as 0
    code, out = run_cli(capsys, "analyze", "--n", "15", "--poly", "1^6 2^3 1^0",
                        "--distance-limit", limit)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError", "message": f"--distance-limit must be non-negative, got {limit}"}


def test_analyze_malformed_poly(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "15", "--poly", "1^6 1^6")
    assert code == 2
    assert "error" in json.loads(out)


def test_analyze_non_divisor(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "15", "--poly", "1^2 1^1")
    assert code == 2


def test_bounds(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "13", "--k", "1", "--l", "3")
    assert code == 0
    assert json.loads(out) == {"qrb": 3, "qrb_ok": True, "no_cloning_ok": True}
    code, out = run_cli(capsys, "bounds", "--n", "13", "--k", "1", "--l", "4")
    assert json.loads(out)["qrb_ok"] is False
    code, out = run_cli(capsys, "bounds", "--n", "12", "--k", "1", "--l", "3")
    assert json.loads(out)["no_cloning_ok"] is False


def test_bounds_rejects_impossible_parameters(capsys):
    for n, k, l in ((-3, 1, 3), (3, 5, 1), (13, 1, -2)):
        code, out = run_cli(capsys, "bounds", "--n", str(n), "--k", str(k), "--l", str(l))
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "UsageError",
            "message": f"bounds needs n >= 1, 0 <= k <= n and l >= 0, got n={n}, k={k}, l={l}"}


def test_search_small_range(capsys, tmp_path):
    out_path = tmp_path / "records.csv"
    code, _ = run_cli(capsys, "search", "--min-n", "13", "--max-n", "15",
                      "--construction", "hermitian", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("n,k,l,qrb")
    assert any(line.startswith("13,1,3,3,true,false,hermitian") for line in lines)
    assert any(line.startswith("15,3,3,3,true,false,hermitian") for line in lines)


def test_search_even_only_range(capsys):
    code, out = run_cli(capsys, "search", "--min-n", "4", "--max-n", "4")
    assert code == 2
    assert "error" in json.loads(out)


def test_search_negative_length_rejected(capsys):
    code, out = run_cli(capsys, "search", "--min-n", "-3", "--max-n", "3")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "code lengths must be at least 1, got -3"}


def test_tensor_example(capsys):
    code, out = run_cli(capsys, "tensor", "--c1-poly", "1^6 2^3 1^0",
                        "--c1-n", "15", "--rs", "6,2", "--dispersal", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"] == [90, 42]
    assert payload["rank"] == 24
    assert payload["self_orthogonal"] is True
    assert payload["dispersal"]["aligned"]["max_subblocks"] <= 2
    assert payload["dispersal"]["aligned"]["max_inner_burst"] <= 3
    # l1 measured on the inner code, l2 from the outer code's distance
    assert (payload["dispersal"]["l1"], payload["dispersal"]["l2"]) == (3, 2)


def test_tensor_bad_l1(capsys):
    # 4 does not divide n1 = 15; an explicit 0 is refused as well, not
    # replaced by the measured height
    for l1 in ("4", "0"):
        code, out = run_cli(capsys, "tensor", "--c1-poly", "1^6 2^3 1^0",
                            "--c1-n", "15", "--rs", "6,2", "--dispersal", "6",
                            "--l1", l1)
        assert code == 2
        assert f"subblock height {l1} " in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("c1_n", ["0", "-3"])
def test_tensor_rejects_inner_length_below_one(capsys, c1_n):
    code, out = run_cli(capsys, "tensor", "--c1-poly", "1^0", "--c1-n", c1_n, "--rs", "6,2")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "UsageError",
                                        "message": f"tensor needs --c1-n >= 1, got {c1_n}"}


def test_tensor_dispersal_zero_rejected(capsys):
    # 0 is a burst length, not "no report": it reaches the [1, size] check
    code, out = run_cli(capsys, "tensor", "--c1-poly", "1^6 2^3 1^0",
                        "--c1-n", "15", "--rs", "6,2", "--dispersal", "0")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "burst length 0 outside [1, 90]"}


@pytest.mark.parametrize("rs, digest", [("16,4", "b0e53d6738fa72e4"),
                                        ("64,4", "6e5fb2f1de1d0ab7"),
                                        ("256,4", "58980b3f89af4580"),
                                        ("1024,8", "936e6e2245019c39")])
def test_tensor_output_pinned(capsys, rs, digest):
    # first 16 hex digits of the stdout SHA-256, recorded while the outer
    # code's check rows came from eliminating its Vandermonde rows
    code, out = run_cli(capsys, "tensor", "--c1-poly", "1^6 2^3 1^0",
                        "--c1-n", "15", "--rs", rs, "--dispersal", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_tensor_check_matrix_over_cap_refused(capsys, monkeypatch):
    from qbecc import stabilizer
    argv = ("tensor", "--c1-poly", "1^6 2^3 1^0", "--c1-n", "15", "--rs", "6,2")
    # bytes, not items: 16 per entry.  The 4 x 6 outer check matrix takes
    # 384 bytes, the 24 x 90 tensor check matrix 34560
    monkeypatch.setattr(stabilizer, "MAX_ARRAY_BYTES", 34559)
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "resource-limit",
        "message": "the 24 x 90 tensor check matrix needs 2160 entries of 16 bytes, "
                   "over the 34559-byte cap"}
    # the tensor matrix is charged before the outer code is built, so the
    # outer code's own charge refuses only a direct rs_mds call
    monkeypatch.setattr(stabilizer, "MAX_ARRAY_BYTES", 383)
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "the 24 x 90 tensor check matrix needs 2160 entries of 16 bytes, "
        "over the 383-byte cap")
    with pytest.raises(ResourceLimitError, match=r"^the 4 x 6 check matrix of the "
                       r"Reed-Solomon code needs 24 entries of 16 bytes, over the "
                       r"383-byte cap$"):
        rs_mds(6, 2, ExtField(GF4, 6))
    monkeypatch.setattr(stabilizer, "MAX_ARRAY_BYTES", 34560)
    assert run_cli(capsys, *argv)[0] == 0


def test_tensor_over_cap_refused_before_the_outer_code(capsys, monkeypatch):
    from qbecc import cli

    def refused(*args):
        raise AssertionError("rs_mds called")
    monkeypatch.setattr(cli, "rs_mds", refused)
    code, out = run_cli(capsys, "tensor", "--c1-poly", "1^6 2^3 1^0", "--c1-n", "15",
                        "--rs", "4097,1000")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "resource-limit",
        "message": "the 12000 x 61455 tensor check matrix needs 737460000 entries of "
                   "16 bytes, over the 536870912-byte cap"}
    monkeypatch.undo()
    # values outside rs_mds's ranges still reach its own messages
    for rs, message in (("4097,2049", "burst target 2049 out of range [0, 2048]"),
                        ("4098,8", "length 4098 out of range [2, 4097] for GF(4^6)"),
                        ("6,-1", "burst target -1 out of range [0, 2]")):
        code, out = run_cli(capsys, "tensor", "--c1-poly", "1^6 2^3 1^0", "--c1-n", "15",
                            "--rs", rs)
        assert code == 2
        assert json.loads(out)["error"] == {"type": "ValueError", "message": message}


def test_simulate_p0(capsys):
    code, out = run_cli(capsys, "simulate", "--code", "13_1",
                        "--decoder", "combined", "--p", "0", "--mu", "0.3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "13_1" and float(fields[5]) == 1.0
    assert fields[7] == "true"


def test_simulate_grid_shapes(capsys):
    code, out = run_cli(capsys, "simulate", "--code", "13_1",
                        "--decoder", "random", "--p", "1e-2",
                        "--mu", "0:0.5:1")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3


def test_simulate_unknown_code(capsys):
    code, out = run_cli(capsys, "simulate", "--code", "99_1",
                        "--decoder", "random", "--p", "0.01", "--mu", "0")
    assert code == 2
    # the message itself, not the repr that str() of a KeyError gives
    assert json.loads(out)["error"] == {
        "type": "KeyError",
        "message": "unknown registry code '99_1'; known: 13_1, 15_3, 17_1a, 17_1b, "
                   "21_9, 23_1, 25_1, 25_5, 29_1, 35_13, 35_17, 35_19, 35_25, 35_7, 41_1"}


def test_grid_parsing():
    from qbecc.cli import _parse_grid
    assert _parse_grid("3e-2") == [0.03]
    lin = _parse_grid("0:0.05:1")
    assert len(lin) == 21 and lin[0] == 0.0 and abs(lin[-1] - 1.0) < 1e-12
    log = _parse_grid("1e-5:log:1e-1")
    assert len(log) == 17
    assert abs(log[0] - 1e-5) < 1e-18 and abs(log[-1] - 0.1) < 1e-12
    # a step that does not divide the range stops at the last point inside
    assert _parse_grid("0.01:0.025:0.05") == [0.01, 0.035]
    # a log range under an eighth of a decade keeps both ends
    short = _parse_grid("0.01:log:0.011")
    assert len(short) == 2 and short[0] == 0.01 and abs(short[1] - 0.011) < 1e-15
    assert _parse_grid("0:0.6:1") == [0.0, 0.6]
    # finite bounds whose difference overflows a float
    assert _parse_grid("-1e308:1e308:1e308") == [-1e308, 0.0, 1e308]


def test_search_odd_only_flag_removed(capsys):
    code, _ = run_cli(capsys, "search", "--min-n", "7", "--max-n", "7", "--odd-only")
    assert code == 2


def test_simulate_descending_grid_rejected(capsys):
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--decoder", "random",
                        "--p", "0.05:0.01:0.01", "--mu", "0")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"


def test_simulate_negative_radius_rejected(capsys):
    for flag in ("--w-max", "--t", "--l"):
        code, out = run_cli(capsys, "simulate", "--code", "13_1", "--strategy", "truncated",
                            "--p", "0.03", "--mu", "0.5", flag, "-1")
        assert code == 2, flag
        assert flag in json.loads(out)["error"]["message"]


def test_simulate_radius_past_full_table(capsys):
    # every syndrome of 13_1 is claimed at weight 4, so t = 40 stops there
    code, out40 = run_cli(capsys, "simulate", "--code", "13_1", "--p", "0.03",
                          "--mu", "0.5", "--t", "40")
    assert code == 0
    code, out4 = run_cli(capsys, "simulate", "--code", "13_1", "--p", "0.03",
                         "--mu", "0.5", "--t", "4")
    assert out40 == out4


def test_simulate_distance_too_large_needs_t(capsys):
    # 21_9: the dual has 2^30 elements, over min_distance's 2^28
    code, out = run_cli(capsys, "simulate", "--code", "21_9", "--p", "0.03", "--mu", "0.5")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError",
        "message": "21_9: distance enumeration too large to derive t; pass --t"}


def test_simulate_builds_a_stabilizer_code_only_for_the_distance(capsys, monkeypatch):
    # the channel reads the generators' label columns; a StabilizerCode is
    # built only to derive t from the minimum distance
    from qbecc.stabilizer import StabilizerCode
    built = []
    init = StabilizerCode.__init__
    monkeypatch.setattr(StabilizerCode, "__init__",
                        lambda self, n, rows: built.append(n) or init(self, n, rows))
    argv = ("simulate", "--code", "13_1,15_3", "--decoder", "random,combined",
            "--p", "0.03", "--mu", "0.5", "--limit", str(4 ** 15))
    code, _ = run_cli(capsys, *argv, "--t", "1")
    assert code == 0 and built == []
    code, _ = run_cli(capsys, *argv)
    assert code == 0 and built == [13, 15]


def test_simulate_wide_syndrome_truncated(capsys):
    # r = 22 syndrome bits: the decoder table is a sorted label array
    code, out = run_cli(capsys, "simulate", "--code", "23_1", "--strategy", "truncated",
                        "--decoder", "random,burst,combined", "--p", "0.03", "--mu", "0.5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == \
        [("23_1", "random"), ("23_1", "burst"), ("23_1", "combined")]
    assert all(row[7] == "false" for row in rows)


def test_simulate_refuses_an_over_limit_code_before_any_table(capsys, monkeypatch):
    # 23_1 is over the default 4^13 limit: refused before 13_1's tables are
    # built or scored, with an unknown decoder mode still a usage error first
    from qbecc import channel
    built = []
    build_decoder = channel.build_decoder
    monkeypatch.setattr(channel, "build_decoder",
                        lambda *args, **kwargs: built.append(args) or build_decoder(*args, **kwargs))
    argv = ("simulate", "--code", "13_1,23_1", "--t", "1", "--p", "0.03", "--mu", "0.5")
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "resource-limit",
        "message": f"exact strategy needs 4^23 = {4 ** 23} error mass terms, limit {4 ** 13}"}
    assert built == []
    code, out = run_cli(capsys, *argv, "--decoder", "random,foo")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "unknown decoder mode 'foo'"}
    assert built == []


def test_simulate_truncated_span_over_cap(capsys):
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--strategy", "truncated",
                        "--decoder", "burst", "--l", "40", "--p", "0.03", "--mu", "0.5")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "resource-limit"


def test_analyze_hermitian_rejection_pinned(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "3", "--poly", "1^1 1^0")
    assert code == 2
    assert out == ('{\n  "error": {\n    "type": "ValueError",\n'
                   '    "message": "code is not Hermitian dual containing"\n  }\n}\n')


def test_analyze_css_rejection_pinned(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "3", "--construction", "css",
                        "--poly", "1^2 1^1 1^0", "--poly2", "1^2 1^1 1^0")
    assert code == 2
    assert out == ('{\n  "error": {\n    "type": "ValueError",\n'
                   '    "message": "CSS precondition failed: dual of C2 is not inside C1"'
                   '\n  }\n}\n')


def test_analyze_non_divisor_names_the_field(capsys):
    code, out = run_cli(capsys, "analyze", "--n", "15", "--poly", "1^7 1^0")
    assert code == 2
    assert json.loads(out) == {"error": {
        "type": "InvalidGeneratorError",
        "message": "Poly<x^7 + 1> does not divide x^15 - 1 over GF(4)"}}


def test_analyze_non_divisor_refused_without_a_matrix(capsys):
    # with no distance asked no matrix is built: the remainder walk refuses
    for argv, field in [(("--poly", "1^7 1^0"), "GF(4)"),
                        (("--construction", "css", "--poly", "1^7 1^0",
                          "--poly2", "1^6 1^4 1^2 1^1 1^0"), "GF(2)")]:
        code, out = run_cli(capsys, "analyze", "--n", "15", *argv, "--distance-limit", "0")
        assert code == 2
        assert json.loads(out) == {"error": {
            "type": "InvalidGeneratorError",
            "message": f"Poly<x^7 + 1> does not divide x^15 - 1 over {field}"}}


@pytest.mark.parametrize("argv", [
    ("search", "--min-n", "13", "--max-n", "13", "--construction", "hermitian"),
    ("simulate", "--code", "13_1", "--decoder", "random", "--p", "0", "--mu", "0"),
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.csv"
    code, out = run_cli(capsys, *argv, "--output", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "UsageError"
    assert error["message"] == f"cannot write --output {path}: No such file or directory"
    assert not path.parent.exists()


def test_search_nan_budget_exits_2_and_inf_runs(capsys):
    code, out = run_cli(capsys, "search", "--min-n", "7", "--max-n", "7",
                        "--max-seconds", "nan")
    assert code == 2
    assert json.loads(out)["error"] == {"type": "ValueError",
                                        "message": "time budget must be positive"}
    code, out = run_cli(capsys, "search", "--min-n", "7", "--max-n", "7",
                        "--max-seconds", "inf")
    assert code == 0
    assert out.startswith("n,k,l,qrb")


@pytest.mark.parametrize("grid", ["0:0.1:inf", "0.01:log:inf", "nan:0.1:1", "0:nan:1",
                                  "0:0.1:nan", "0:-inf:1", "nan:log:1"])
def test_simulate_non_finite_grid_rejected(capsys, grid):
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--decoder", "random",
                        "--t", "1", "--p", grid, "--mu", "0")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError",
        "message": f"range {grid!r} has a non-finite start, step or end"}


def test_simulate_log_grid_past_float_range_rejected(capsys):
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--decoder", "random",
                        "--t", "1", "--p", "5e-324:log:1e308", "--mu", "0")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError",
        "message": "log range '5e-324:log:1e308' spans more than a float's range"}


def test_simulate_linear_grid_over_cap_refused(capsys, monkeypatch):
    from qbecc import channel
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--decoder", "random",
                        "--t", "1", "--p", "0:1e-300:1", "--mu", "0")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "resource-limit"
    # bytes, not items: 8 per point; 2^20 bytes hold 131072 points
    monkeypatch.setattr(channel, "MAX_ARRAY_BYTES", 1 << 20)
    from qbecc.cli import _parse_grid
    assert len(_parse_grid("0:1:131071")) == 131072
    with pytest.raises(ResourceLimitError, match="over 131072 points of 8 bytes"):
        _parse_grid("0:1:131072")


def test_simulate_grid_product_over_cap_refused(capsys, monkeypatch):
    from qbecc import channel
    monkeypatch.setattr(channel, "MAX_ARRAY_BYTES", 4096)  # 512 points of 8 bytes

    def no_table(*args, **kwargs):
        raise AssertionError("build_decoder reached")

    monkeypatch.setattr(channel, "build_decoder", no_table)
    # 31 points each fit; their 961 pairs do not
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--decoder", "random",
                        "--t", "1", "--p", "0:0.01:0.3", "--mu", "0:0.01:0.3")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "resource-limit"
    assert "961 tasks of 8 bytes, over the 4096-byte cap" in error["message"]


def test_simulate_out_of_range_p_refused_before_any_table(capsys, monkeypatch):
    from qbecc import channel

    def no_table(*args, **kwargs):
        raise AssertionError("build_decoder reached")

    monkeypatch.setattr(channel, "build_decoder", no_table)
    code, out = run_cli(capsys, "simulate", "--code", "41_1", "--strategy", "truncated",
                        "--t", "1", "--l", "8", "--p", "2", "--mu", "0.5")
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValueError", "message": "depolarizing probability 2.0 outside [0, 1]"}


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_workers_below_one_rejected(capsys, workers):
    code, out = run_cli(capsys, "simulate", "--code", "13_1", "--decoder", "random",
                        "--p", "0.01", "--mu", "0", "--workers", workers)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError", "message": f"--workers must be at least 1, got {workers}"}


# ----------------------------------------------------------------------
# the real entry point: python -m qbecc.cli in a child process
# ----------------------------------------------------------------------

MODULE = ("-m", "qbecc.cli")
# what the installed qbecc script does: no os._exit, so the interpreter
# finalizes and flushes stdout once more at exit
SCRIPT = ("-c", "import sys; from qbecc.cli import main; sys.exit(main())")


def run_entry_point(*argv, stdout=subprocess.PIPE, entry=MODULE):
    """Run the CLI in a child process.  PYTHONUNBUFFERED is removed from
    the child's environment: with it set, every write reaches the pipe at
    once and an output lost at exit would go unseen."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *entry, *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=600)


SEARCH_21 = ("search", "--min-n", "21", "--max-n", "21")


def test_entry_point_stdout_matches_main(capsys):
    # over 8 KiB, so the child writes more than one buffer's worth
    code, out = run_cli(capsys, *SEARCH_21)
    proc = run_entry_point(*SEARCH_21)
    assert (proc.returncode, code) == (0, 0)
    assert len(out) > 8192
    assert proc.stdout == out.encode("utf-8")


def test_entry_point_output_file_complete(capsys, tmp_path):
    path = tmp_path / "records.csv"
    proc = run_entry_point(*SEARCH_21, "--output", str(path))
    assert proc.returncode == 0 and proc.stdout == b""
    _, out = run_cli(capsys, *SEARCH_21)
    assert path.read_text("utf-8") == out


@pytest.mark.parametrize("argv, expected", [
    (("bounds", "--n", "13", "--k", "1", "--l", "3"), 0),
    (("analyze", "--n", "15", "--poly", "1^6 1^6"), 2),
    (("simulate", "--code", "13_1", "--p", "0.1", "--mu", "0.1", "--limit", "4"), 3),
], ids=["ok", "usage", "limit"])
def test_entry_point_exit_codes(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    proc = run_entry_point(*argv)
    assert (proc.returncode, code) == (expected, expected)
    assert proc.stdout == out.encode("utf-8")


def test_search_budget_bounds_a_wide_length_range():
    # the lengths stay a range: listing 10^7 odd lengths before the budget
    # started took 1.09 s and 400 MB here, where a plain search child
    # peaks near 14 MB.  A process's ru_maxrss starts at the high-water mark
    # of the one that forked it, so the search runs as the child of a small
    # interpreter, which reports it
    child = ("import resource, subprocess, sys; "
             "code = subprocess.run([sys.executable, '-m', 'qbecc.cli', *sys.argv[1:]]).returncode; "
             "sys.stderr.write(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)); "
             "sys.exit(code)")
    started = time.monotonic()
    proc = run_entry_point("search", "--min-n", "13", "--max-n", "20000013",
                           "--max-seconds", "0.2", entry=("-c", child))
    seconds = time.monotonic() - started
    assert proc.returncode == 0 and proc.stdout.startswith(b"n,k,l,qrb")
    warning, peak_kib = proc.stderr.decode().rsplit("\n", 1)
    assert warning == "warning: budget exhausted, results are incomplete"
    assert seconds < 5 and int(peak_kib) < 64 * 1024, (seconds, peak_kib)


def test_entry_point_help_is_flushed():
    proc = run_entry_point("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: qbecc")
    assert proc.stdout.rstrip().endswith(b"show this help message and exit")


def test_entry_point_keeps_profiler_report():
    proc = run_entry_point("bounds", "--n", "13", "--k", "1", "--l", "3",
                           entry=("-m", "cProfile", *MODULE))
    assert proc.returncode == 0
    assert proc.stdout.startswith(b'{\n  "qrb": 3,')
    assert b"function calls" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("entry", [MODULE, SCRIPT], ids=["module", "script"])
@pytest.mark.parametrize("argv", [("bounds", "--n", "5", "--k", "1", "--l", "1"), SEARCH_21],
                         ids=["fails-at-flush", "fails-at-write"])
def test_stdout_write_failure_is_reported_on_stderr(argv, entry):
    with open("/dev/full", "w") as full:
        proc = run_entry_point(*argv, stdout=full, entry=entry)
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {"error": {
        "type": "OSError", "message": "cannot write standard output: No space left on device"}}


@pytest.mark.parametrize("entry", [MODULE, SCRIPT], ids=["module", "script"])
def test_closed_pipe_is_reported_on_stderr(entry):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = run_entry_point("bounds", "--n", "5", "--k", "1", "--l", "1",
                               stdout=write_end, entry=entry)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {"error": {
        "type": "BrokenPipeError", "message": "cannot write standard output: Broken pipe"}}
