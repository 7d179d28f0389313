import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from slicestar.cli import main
from slicestar.suites import PROPERTIES, SUITE_NAMES

FN_IDENTITY = {"fn": {"kind": "poly", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
               "domain": {"center": [0.0, 0.0], "radius": 3.0,
                          "realIntersecting": True}}
FN_EXP = {"fn": {"kind": "exp", "arg": {"kind": "poly",
                                        "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}},
          "domain": {"center": [0.0, 0.0], "radius": 2.0,
                     "realIntersecting": True}}
FN_GENERIC = {"fn": {"kind": "add", "args": [
    {"kind": "const", "value": [2.0, 1.0, 0.5, -0.3]},
    {"kind": "mul", "args": [{"kind": "poly", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]},
                             {"kind": "const", "value": [0.1, 0.05, -0.02, 0.08]}]}]},
    "domain": {"center": [0.0, 0.0], "radius": 1.2, "realIntersecting": True}}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_identity(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    code, out = run(capsys, ["eval", "--fn", fn, "--at", "[1,2,0,0]"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == [1.0, 2.0, 0.0, 0.0]
    assert data["at"] == [1.0, 2.0, 0.0, 0.0]


def test_eval_exp_euler(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_EXP)
    code, out = run(capsys, ["eval", "--fn", fn, "--at",
                             f"[0,{math.pi / 2},0,0]"])
    assert code == 0
    v = json.loads(out)["value"]
    assert abs(v[0]) < 1e-12 and abs(v[1] - 1) < 1e-12


def test_eval_matches_library_bytes(tmp_path, capsys):
    from slicestar.descriptors import function_from_obj, quaternion_to_json
    from slicestar import Quaternion
    fn = write(tmp_path, "f.json", FN_GENERIC)
    q = Quaternion(0.3, 0.4, -0.2, 0.1)
    code, out = run(capsys, ["eval", "--fn", fn, "--at",
                             json.dumps(quaternion_to_json(q))])
    assert code == 0
    f = function_from_obj(FN_GENERIC)
    expected = json.dumps(quaternion_to_json(f(q)))
    got = json.dumps(json.loads(out)["value"])
    assert got == expected


def test_eval_out_of_domain_exit_code(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    code, _ = run(capsys, ["eval", "--fn", fn, "--at", "[9,9,9,9]"])
    assert code == 3


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, ["eval", "--fn", str(bad), "--at", "[0,0,0,0]"])
    assert code == 2
    fn = write(tmp_path, "f.json", {"fn": {"kind": "mystery"},
                                    "domain": FN_IDENTITY["domain"]})
    code, _ = run(capsys, ["eval", "--fn", fn, "--at", "[0,0,0,0]"])
    assert code == 2


#: a 401-digit JSON integer, which no float holds
HUGE = 10 ** 400
#: a valid child node
ONE = {"kind": "const", "value": [1, 0, 0, 0]}
MALFORMED_FN = {
    "add-no-args": ({"kind": "add", "args": []},
                    "descriptor node {'kind': 'add', 'args': []}: 'args' must be a non-empty array"),
    "poly-scalar-coeffs": ({"kind": "poly", "coeffs": 5},
                           "descriptor node {'kind': 'poly', 'coeffs': 5}: 'coeffs' must be an array"),
    "fn-string": ("poly", "descriptor node must be a JSON object, got 'poly'"),
    "const-null-entry": ({"kind": "const", "value": [None, 0, 0, 0]},
                         "quaternion entry must be a number, got None"),
    # JSON strings and booleans are not numbers, though float() takes them
    "const-string-entry": ({"kind": "const", "value": ["2", "0.5", 0, 0]},
                           "quaternion entry must be a number, got '2'"),
    "poly-bool-entry": ({"kind": "poly", "coeffs": [[0, 0, 0, 0], [True, 0, 0, 0]]},
                        "quaternion entry must be a number, got True"),
    # a JSON integer beyond the float range
    "const-huge-entry": ({"kind": "const", "value": [0, HUGE, 0, 0]},
                         "quaternion entry must fit in a float, got an integer of 401 digits"),
    # json writes and reads Infinity and NaN, which no quaternion entry holds
    "const-inf-entry": ({"kind": "const", "value": [math.inf, 0, 0, 0]},
                        "quaternion entries must be finite, got [inf, 0, 0, 0]"),
    "poly-nan-entry": ({"kind": "poly", "coeffs": [[0, 0, 0, 0], [0, math.nan, 0, 0]]},
                       "quaternion entries must be finite, got [0, nan, 0, 0]"),
    "neg-no-arg": ({"kind": "neg"}, "descriptor node {'kind': 'neg'}: 'arg' must be an object"),
    "conj-array-arg": ({"kind": "conj", "arg": [ONE]},
                       f"descriptor node {{'kind': 'conj', 'arg': [{ONE!r}]}}: "
                       "'arg' must be an object"),
    "scale-nan-by": ({"kind": "scale", "arg": ONE, "by": math.nan},
                     f"descriptor node {{'kind': 'scale', 'arg': {ONE!r}, 'by': nan}}: "
                     "'by' must be a finite number"),
    "scale-string-by": ({"kind": "scale", "arg": ONE, "by": "0.2"},
                        f"descriptor node {{'kind': 'scale', 'arg': {ONE!r}, 'by': '0.2'}}: "
                        "'by' must be a finite number"),
    "scale-no-by": ({"kind": "scale", "arg": ONE},
                    f"descriptor node {{'kind': 'scale', 'arg': {ONE!r}}}: "
                    "'by' must be a finite number"),
    "dot-one-arg": ({"kind": "dot", "args": [ONE]},
                    f"descriptor node {{'kind': 'dot', 'args': [{ONE!r}]}}: "
                    "'args' must be an array of two"),
    "wedge-three-args": ({"kind": "wedge", "args": [ONE, ONE, ONE]},
                         f"descriptor node {{'kind': 'wedge', 'args': [{ONE!r}, {ONE!r}, "
                         f"{ONE!r}]}}: 'args' must be an array of two"),
}
MALFORMED_DOMAIN = {
    "center-scalar": {"center": 5, "radius": 1},
    "center-short": {"center": [0], "radius": 1},
    "radius-array": {"center": [0, 0], "radius": [1]},
    "center-bool": {"center": [False, 0], "radius": 1},
    "radius-bool": {"center": [0, 0], "radius": True},
    # numbers that are no finite float (json writes and reads NaN and Infinity)
    "radius-nan": {"center": [0, 0], "radius": math.nan},
    "radius-infinity": {"center": [0, 0], "radius": math.inf},
    "center-nan": {"center": [math.nan, 0], "radius": 1},
    "radius-huge": {"center": [0, 0], "radius": HUGE},
}
#: the ends of a valid two-sample path
SAMPLE = {"t": 0.0, "w0": [1.0, 0.0], "w1": [0.0, 0.0], "s": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
SAMPLE_END = {**SAMPLE, "t": 1.0, "w0": [1.0, 0.1]}
MALFORMED_PATH = {
    "samples-scalar": ({"samples": 5}, "path {'samples': 5}: 'samples' must be an array"),
    "sample-scalar": ({"samples": [5]}, "path sample must be a JSON object, got 5"),
    "t-array": ({"samples": [{"t": [0], "w0": [1, 0], "w1": [0, 0], "s": [[1, 0], [0, 0], [0, 0]]}]},
                'path sample "t" must be a number, got [0]'),
    "t-string": ({"samples": [{**SAMPLE, "t": "0"}, SAMPLE_END]},
                 'path sample "t" must be a number, got \'0\''),
    "t-huge": ({"samples": [{**SAMPLE, "t": HUGE}, SAMPLE_END]},
               'path sample "t" must fit in a float, got an integer of 401 digits'),
    "w0-string": ({"samples": [{**SAMPLE, "w0": ["1", 0.0]}, SAMPLE_END]},
                  "real part must be a number, got '1'"),
    "s-bool": ({"samples": [SAMPLE, {**SAMPLE_END, "s": [[1.0, 0.0], [0.0, False], [0.0, 0.0]]}]},
               "imaginary part must be a number, got False"),
}


def _assert_one_line_config_error(code, capsys, message):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_FN))
def test_malformed_descriptor_exits_2(tmp_path, capsys, case):
    node, message = MALFORMED_FN[case]
    fn = write(tmp_path, "f.json", {"fn": node, "domain": FN_IDENTITY["domain"]})
    code = main(["eval", "--fn", fn, "--at", "[0,0,0,0]"])
    _assert_one_line_config_error(code, capsys, message)


def test_descriptor_nested_too_deeply_exits_2(tmp_path, capsys):
    # built as text: json.dump itself recurses on a 600-deep object
    node = '{"kind": "const", "value": [1, 0, 0, 0]}'
    for _ in range(600):
        node = f'{{"kind": "add", "args": [{node}, {{"kind": "poly", "coeffs": []}}]}}'
    fn = tmp_path / "f.json"
    fn.write_text(f'{{"fn": {node}, "domain": {{"center": [0, 0], "radius": 1}}}}')
    code = main(["eval", "--fn", str(fn), "--at", "[0,0,0,0]"])
    _assert_one_line_config_error(
        code, capsys, f"function file {fn}: descriptor nested too deeply to load")


def test_exp_overflow_is_a_library_failure(tmp_path, capsys):
    fn = write(tmp_path, "f.json", {"fn": {"kind": "exp", "arg": {"kind": "const",
                                                                  "value": [800, 0, 0, 0]}},
                                    "domain": {"center": [0, 0], "radius": 1}})
    code = main(["eval", "--fn", fn, "--at", "[0,0,0,0]"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: OverflowError: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_DOMAIN))
def test_malformed_domain_exits_2(tmp_path, capsys, case):
    domain = MALFORMED_DOMAIN[case]
    fn = write(tmp_path, "f.json", {"fn": FN_IDENTITY["fn"], "domain": domain})
    code = main(["eval", "--fn", fn, "--at", "[0,0,0,0]"])
    _assert_one_line_config_error(
        code, capsys, f'domain must be {{"center": [re, im], "radius": r}}, got {domain!r}')


@pytest.mark.parametrize("at, entry", [('["1",0,0,0]', "'1'"), ("[true,0,0,0]", "True"),
                                       ("[0,0,0,false]", "False")])
def test_non_number_point_exits_2(tmp_path, capsys, at, entry):
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    code = main(["eval", "--fn", fn, "--at", at])
    _assert_one_line_config_error(code, capsys, f"quaternion entry must be a number, got {entry}")


@pytest.mark.parametrize("verb", ["eval", "dexp"])
@pytest.mark.parametrize("at, shown", [("[Infinity,0,0,0]", "[inf, 0, 0, 0]"),
                                       ("[0,0,-Infinity,1]", "[0, 0, -inf, 1]"),
                                       ("[0,NaN,0,0]", "[0, nan, 0, 0]")])
def test_non_finite_point_exits_2(tmp_path, capsys, verb, at, shown):
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    code = main([verb, "--fn" if verb == "eval" else "--f", fn, "--at", at])
    _assert_one_line_config_error(code, capsys, f"quaternion entries must be finite, got {shown}")


def test_huge_integer_point_exits_2(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    code = main(["eval", "--fn", fn, "--at", f"[0,0,{HUGE},0]"])
    _assert_one_line_config_error(
        code, capsys, "quaternion entry must fit in a float, got an integer of 401 digits")


@pytest.mark.parametrize("case", sorted(MALFORMED_PATH))
def test_malformed_path_exits_2(tmp_path, capsys, case):
    obj, message = MALFORMED_PATH[case]
    path = write(tmp_path, "path.json", obj)
    code = main(["lift", "--path", path])
    _assert_one_line_config_error(code, capsys, message)


@pytest.mark.parametrize("verb", ["lift", "monodromy"])
@pytest.mark.parametrize("key", ["t", "w0", "w1", "s"])
def test_path_sample_without_a_member_exits_2(tmp_path, capsys, verb, key):
    sample = {k: v for k, v in SAMPLE_END.items() if k != key}
    path = write(tmp_path, "path.json", {"samples": [SAMPLE, sample]})
    code = main([verb, "--path", path])
    _assert_one_line_config_error(code, capsys, f"path sample {sample!r}: {key!r} is missing")


@pytest.mark.parametrize("verb", ["lift", "monodromy"])
@pytest.mark.parametrize("key", ["u0", "u1", "s"])
def test_lift_start_without_a_member_exits_2(tmp_path, capsys, verb, key):
    path = write(tmp_path, "loop.json", _loop_json())
    point = {"u0": [0.0, 0.0], "u1": [0.0, 0.0], "s": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    del point[key]
    start = write(tmp_path, "start.json", point)
    code = main([verb, "--path", path, "--start", start])
    _assert_one_line_config_error(code, capsys, f"lift point {point!r}: {key!r} is missing")


def test_log_verb_round_trip(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_GENERIC)
    code, out = run(capsys, ["log", "--fn", fn, "--h1", "1", "--h2", "-1",
                             "--basepoint", "0.1,0.2", "--samples", "12"])
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == {"h1": 1, "h2": -1, "basepoint": [0.1, 0.2]}
    assert data["roundtrip"]["max"] < 1e-8
    assert len(data["samples"]) == 12


def test_log_verb_csv(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_GENERIC)
    code, out = run(capsys, ["log", "--fn", fn, "--h1", "0", "--h2", "0",
                             "--basepoint", "0.1,0.0", "--samples", "3", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("z_re,z_im,g0_re")
    assert len(lines) == 4


def test_root_verb(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_GENERIC)
    code, out = run(capsys, ["root", "--fn", fn, "--n", "3",
                             "--basepoint", "0.1,0.0", "--samples", "8"])
    assert code == 0
    assert json.loads(out)["power_back"]["max"] < 1e-8


def test_bch_verb(tmp_path, capsys):
    f = write(tmp_path, "f.json",
              {"fn": {"kind": "const", "value": [0.1, 0.3, 0.2, 0.0]},
               "domain": {"center": [0, 0], "radius": 1.0,
                          "realIntersecting": True}})
    g = write(tmp_path, "g.json",
              {"fn": {"kind": "const", "value": [-0.2, 0.0, 0.25, 0.3]},
               "domain": {"center": [0, 0], "radius": 1.0,
                          "realIntersecting": True}})
    code, out = run(capsys, ["bch", "--f", f, "--g", g])
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is True
    assert data["residual"] < 1e-10


@pytest.mark.parametrize("c0", [800.0, -12.0])
def test_bch_verb_far_from_unit_scale(tmp_path, capsys, c0):
    # exp(F) exp(G) overflows at Re f0 = 800, but the residual |Q - exp(H - s)|
    # never evaluates e^s = e^{f0 + g0}: the verb reports it relative to
    # e^{Re s}, and h is the h of f0 = 0 shifted by f0
    g = str(DATA / "bch-g.json")
    outs = {}
    for c in (0.0, c0):
        f = write(tmp_path, f"f{c}.json",
                  {"fn": {"kind": "const", "value": [c, 0.5, 0.0, 0.0]},
                   "domain": {"center": [0, 0], "radius": 1.0,
                              "realIntersecting": True}})
        code, out = run(capsys, ["bch", "--f", f, "--g", g, "--samples", "8"])
        assert code == 0
        outs[c] = json.loads(out)
    data, ref = outs[c0], outs[0.0]
    assert data["admissible"] is True and data["commuting"] is False
    assert data["residual"] < 1e-13
    assert len(data["h_samples"]) == len(ref["h_samples"]) == 8
    for got, want in zip(data["h_samples"], ref["h_samples"]):
        assert got["z"] == want["z"]
        (h0, *vec), (w0, *wvec) = got["value"], want["value"]
        assert abs(complex(*h0) - c0 - complex(*w0)) <= 1e-14 * abs(c0)
        assert all(abs(complex(*a) - complex(*b)) <= 1e-14 for a, b in zip(vec, wvec))


def test_dexp_verb(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_GENERIC)
    code, out = run(capsys, ["dexp", "--f", fn, "--at", "[0.2,0.3,0,0]"])
    assert code == 0
    data = json.loads(out)
    assert data["oracle_residual"] < 1e-10
    assert len(data["value"]) == 4


def _loop_json(n=48):
    samples = []
    for k in range(n + 1):
        t = 2 * math.pi * k / n
        samples.append({"t": k / n, "w0": [math.cos(t), 0.0],
                        "w1": [math.sin(t), 0.0],
                        "s": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    return {"samples": samples}


def test_malformed_lift_start_exits_2(tmp_path, capsys):
    path = write(tmp_path, "loop.json", _loop_json())
    start = write(tmp_path, "start.json", [1, 2])
    code = main(["lift", "--path", path, "--start", start])
    _assert_one_line_config_error(code, capsys, "lift point must be a JSON object, got [1, 2]")


def test_lift_and_monodromy_verbs(tmp_path, capsys):
    path = write(tmp_path, "loop.json", _loop_json())
    code, out = run(capsys, ["monodromy", "--path", path])
    assert code == 0
    assert json.loads(out) == {"h1": 1, "h2": -1}

    code, out = run(capsys, ["lift", "--path", path])
    assert code == 0
    data = json.loads(out)
    assert len(data["samples"]) == 49
    # endpoint shifted by the monodromy translation (0, 2 pi)
    first, last = data["samples"][0], data["samples"][-1]
    assert abs(last["u1"][0] - first["u1"][0] - 2 * math.pi) < 1e-9


def test_verify_verb_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code = main(["verify", "--suite", "algebra", "--seed", "3",
                 "--samples", "40", "--out", str(out1)])
    assert code == 0
    code = main(["verify", "--suite", "algebra", "--seed", "3",
                 "--samples", "40", "--out", str(out2)])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["pass"] is True
    assert all(r["pass"] for r in report["results"]["algebra"])


def test_verify_tolerance_override_can_fail(tmp_path, capsys):
    code = main(["verify", "--suite", "algebra", "--samples", "20",
                 "--tol", "quat_mul_vs_matrix_oracle=1e-30",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["pass"] is False


def test_deck_parity_tol_moves_the_odd_separation_threshold(capsys):
    # the row is 1 / the smallest odd separation (1.06 at this seed), so
    # --tol X asks for a separation above 1/X
    argv = ["verify", "--suite", "covering", "--seed", "1", "--samples", "200"]
    code, out = run(capsys, argv + ["--tol", "deck_parity_odd_moves_exp=0.5"])
    assert code == 1 and json.loads(out)["pass"] is False
    code, out = run(capsys, argv)
    row, = (r for r in json.loads(out)["results"]["covering"]
            if r["name"] == "deck_parity_odd_moves_exp")
    assert code == 0 and 1 / row["max_residual"] > 1e-2


def test_verify_rejects_bad_tol(capsys):
    code, _ = run(capsys, ["verify", "--suite", "algebra", "--tol", "nonsense"])
    assert code == 2


def test_cli_loads_every_node_kind(tmp_path, capsys):
    # a function written by function_to_obj, through every derived operator
    from slicestar import Domain, Quaternion, constant, polynomial, star_exp
    from slicestar.descriptors import function_to_obj, quaternion_to_json
    dom = Domain(0.0, 1.2)
    f = polynomial([Quaternion(0.3, 0.2, -0.1, 0.4), Quaternion(0.1, 0.5, 0.2, -0.3)], dom)
    g = constant(Quaternion(0.2, -0.4, 0.1, 0.3), dom)
    h = star_exp(-(f.conj() * 0.5).star_wedge(g.vsym() + g.sym()) + f.scalar_part()
                 + f.vector_part().star(g).star_dot(f) * 0.1)
    q = Quaternion(0.4, 0.2, -0.3, 0.1)
    code, out = run(capsys, ["eval", "--fn", write(tmp_path, "h.json", function_to_obj(h)),
                             "--at", json.dumps(quaternion_to_json(q))])
    assert code == 0
    assert json.loads(out)["value"] == quaternion_to_json(h(q))


def test_descriptor_round_trip():
    from slicestar.descriptors import function_from_obj, function_to_obj
    from slicestar import Quaternion
    f = function_from_obj(FN_GENERIC)
    again = function_from_obj(function_to_obj(f))
    q = Quaternion(0.4, 0.2, -0.3, 0.1)
    assert (f(q) - again(q)).norm() < 1e-15


def test_bch_verb_inadmissible(tmp_path, capsys):
    # exponents whose exponentials realize the vanishing-product example
    import slicestar as ss
    dom = ss.Domain(1.5j, 0.8)
    fq = ss.constant(ss.Quaternion(0.3, 0.9, 0, 0), dom)
    gq = ss.vanishing_vsym_partner(fq)
    phi = ss.star_log(fq, ss.LogBranch(0, 0, dom.center))
    psi = ss.star_log(gq, ss.LogBranch(0, 0, dom.center))
    # sample the logs into explicit polynomial-free descriptors is not
    # possible; instead check the library report directly and the CLI on a
    # pair of constants conjugated to be inadmissible via the lattice
    rep = ss.bch_condition(phi, psi)
    assert not rep.admissible

    import math
    f = write(tmp_path, "f.json",
              {"fn": {"kind": "const", "value": [0.1, math.pi, 0.0, 0.0]},
               "domain": {"center": [0, 0], "radius": 1.0,
                          "realIntersecting": True}})
    g = write(tmp_path, "g.json",
              {"fn": {"kind": "const", "value": [0.2, 0.3, 0.4, 0.0]},
               "domain": {"center": [0, 0], "radius": 1.0,
                          "realIntersecting": True}})
    code, out = run(capsys, ["bch", "--f", f, "--g", g])
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is False
    assert "h_samples" not in data


# -- one parser shared by in-process calls -------------------------------------


def test_parser_built_once_across_calls(tmp_path, capsys, monkeypatch):
    from slicestar import cli
    original, built = cli.build_parser, []

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    for at in ("[1,2,0,0]", "[0,1,1,0]", "[0.5,0,0,2]"):
        code, out = run(capsys, ["eval", "--fn", fn, "--at", at])
        assert code == 0 and json.loads(out)["at"] == json.loads(at)
    assert len(built) == 1


def test_tol_override_does_not_leak_into_next_call(tmp_path):
    argv = ["verify", "--suite", "algebra", "--samples", "20"]
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--tol", "quat_mul_vs_matrix_oracle=1e-30",
                        "--out", str(first)]) == 1
    assert main(argv + ["--out", str(second)]) == 0
    assert json.loads(first.read_text())["pass"] is False
    assert json.loads(second.read_text())["pass"] is True


def test_valid_call_after_argparse_error(tmp_path, capsys):
    fn = write(tmp_path, "f.json", FN_IDENTITY)
    with pytest.raises(SystemExit) as stop:
        main(["eval", "--fn", fn])          # --at is required
    assert stop.value.code == 2
    assert "--at" in capsys.readouterr().err
    code, out = run(capsys, ["eval", "--fn", fn, "--at", "[1,2,0,0]"])
    assert code == 0
    assert json.loads(out)["value"] == [1.0, 2.0, 0.0, 0.0]


# -- each verb accepts only the options it reads --------------------------------

DATA = Path(__file__).parent / "data" / "cli"

#: a valid call of each verb, and the shared options it does not read
VERB_OPTIONS = {
    "eval": (["eval", "--fn", "f-two-sided.json", "--at", "[0.1,0.9,-1.2,0.3]"],
             ["--seed=2", "--samples=3", "--tol=x=1", "--json", "--csv"]),
    "log": (["log", "--fn", "f-real.json", "--h1", "0", "--h2", "0",
             "--basepoint", "0.1,0.0", "--samples", "2"], ["--tol=x=1"]),
    "root": (["root", "--fn", "f-real.json", "--n", "2", "--basepoint", "0.1,0.0",
              "--samples", "2"], ["--tol=x=1"]),
    "bch": (["bch", "--f", "bch-f.json", "--g", "bch-g.json", "--samples", "2"],
            ["--json", "--csv"]),
    "dexp": (["dexp", "--f", "f-real.json", "--at", "[0.2,0.3,-0.1,0.25]"],
             ["--seed=2", "--samples=3", "--tol=x=1", "--json", "--csv"]),
    "lift": (["lift", "--path", "path.json"],
             ["--seed=2", "--samples=3", "--tol=x=1", "--json", "--csv"]),
    "monodromy": (["monodromy", "--path", "loop.json"],
                  ["--seed=2", "--samples=3", "--tol=x=1", "--json", "--csv"]),
    "verify": (["verify", "--suite", "algebra", "--samples", "4"], ["--json", "--csv"]),
}


@pytest.mark.parametrize("verb, option", [(v, o) for v, (_, opts) in VERB_OPTIONS.items()
                                          for o in opts])
def test_option_a_verb_does_not_read_exits_2(capsys, monkeypatch, verb, option):
    monkeypatch.chdir(DATA)
    with pytest.raises(SystemExit) as stop:
        main(VERB_OPTIONS[verb][0] + [option])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + option in captured.err


@pytest.mark.parametrize("verb", sorted(VERB_OPTIONS))
def test_every_verb_writes_to_out(tmp_path, capsys, monkeypatch, verb):
    monkeypatch.chdir(DATA)
    target = tmp_path / "out.txt"
    assert main(VERB_OPTIONS[verb][0] + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())


# -- sample grids: counts, stem calls and the JSON writer ----------------------

GRID_VERBS = {
    "log": ["log", "--fn", str(DATA / "f-real.json"), "--h1", "0", "--h2", "0",
            "--basepoint", "0.1,0.0"],
    "root": ["root", "--fn", str(DATA / "f-real.json"), "--n", "2",
             "--basepoint", "0.1,0.0"],
    "bch": ["bch", "--f", str(DATA / "bch-f.json"), "--g", str(DATA / "bch-g.json")],
}


@pytest.mark.parametrize("verb", sorted(GRID_VERBS))
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_grid_verbs_reject_sample_count_below_one(capsys, monkeypatch, verb, samples):
    from slicestar import Domain

    def no_draw(*args, **kwargs):
        raise AssertionError("sample points drawn")

    monkeypatch.setattr(Domain, "sample_points", no_draw)
    code = main(GRID_VERBS[verb] + ["--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


def _count_stem_calls(monkeypatch) -> dict:
    """Make the CLI load functions whose stems count their calls, per file."""
    from slicestar import cli
    from slicestar.slicefn import SliceFunction
    calls = {}
    load = cli.load_function

    def counted_load(path):
        f = load(path)
        stem = f._stem
        calls[path] = 0

        def count(z):
            calls[path] += 1
            return stem(z)

        return SliceFunction(count, f.domain)

    monkeypatch.setattr(cli, "load_function", counted_load)
    return calls


@pytest.mark.parametrize("verb", ["log", "root"])
@pytest.mark.parametrize("fn, basepoint", [("f-real.json", "0.1,0.0"),
                                           ("f-two-sided.json", "0.2,-1.4")])
def test_log_and_root_stem_calls_per_sample(capsys, monkeypatch, verb, fn, basepoint):
    # the residual's F(z) comes from the branch's continuation state, and a
    # fresh point is continued straight from the nearest node, so a sample
    # costs one stem call
    calls = _count_stem_calls(monkeypatch)
    argv = [verb, "--fn", str(DATA / fn), "--basepoint", basepoint, "--samples", "300"]
    argv += ["--n", "3"] if verb == "root" else ["--h1", "0", "--h2", "0"]
    code = main(argv)
    assert code == 0 and len(json.loads(capsys.readouterr().out)["samples"]) == 300
    # 64 boundary points and the anchor, then one call per sample
    assert calls == {str(DATA / fn): 65 + 300}


def test_bch_stem_calls_per_sample(capsys, monkeypatch):
    # the residual's Q(z) = exp(F_v(z)) exp(G_v(z)) and s(z) = f0 + g0 come
    # from bch_combine's continuation state, so each h sample costs one call
    # of each stem
    calls = _count_stem_calls(monkeypatch)
    seen = {}
    for samples in (1, 32):
        argv = ["bch", "--f", str(DATA / "bch-f.json"), "--g", str(DATA / "bch-g.json"),
                "--samples", str(samples)]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["h_samples"]) == samples
        seen[samples] = sorted(calls.values())
    assert seen[32] == [n + 31 for n in seen[1]]
    # 64 condition points, the anchor and a few bisections, then the samples
    assert max(seen[32]) <= 102


@pytest.mark.parametrize("argv, message", [
    (["bch", "--f", "bch-f.json", "--g", "bch-g.json", "--tol", "bhc=0.5"],
     "unknown --tol key(s) bhc; bch reads only 'bch'"),
    (["verify", "--suite", "algebra", "--tol", "nosuchprop=1e-30"],
     "unknown tolerance key(s) nosuchprop: no property of suite 'algebra' has that name"),
])
def test_misspelled_tol_key_exits_2(capsys, monkeypatch, argv, message):
    monkeypatch.chdir(DATA)
    _assert_one_line_config_error(main(argv), capsys, message)


@pytest.mark.parametrize("value", ["inf", "-inf", "1e999"])
@pytest.mark.parametrize("argv, key", [
    (["bch", "--f", "bch-f.json", "--g", "bch-g.json", "--samples", "2"], "bch"),
    (["verify", "--suite", "algebra", "--samples", "5"], "cq_exp_inverse"),
])
def test_infinite_tol_exits_2(capsys, monkeypatch, argv, key, value):
    # an infinite tolerance passes every residual (or, on bch, admits every
    # pair), and the report would hold a non-JSON Infinity
    monkeypatch.chdir(DATA)
    _assert_one_line_config_error(main(argv + ["--tol", f"{key}={value}"]), capsys,
                                  f"--tol {key} must be finite, got {value!r}")


@pytest.mark.parametrize("verb", ["log", "root"])
@pytest.mark.parametrize("basepoint", ["nan,0", "inf,0", "0.1,-inf", "0.1,nan", "nan"])
def test_non_finite_basepoint_exits_2(capsys, verb, basepoint):
    argv = GRID_VERBS[verb] + ["--samples", "2"]
    argv[argv.index("--basepoint") + 1] = basepoint
    _assert_one_line_config_error(main(argv), capsys,
                                  f"--basepoint must be finite, got {basepoint!r}")


def test_verify_checks_tol_keys_before_any_suite_runs(capsys, monkeypatch):
    from slicestar import suites

    def not_run(rng, samples):
        raise AssertionError("a loop ran before the --tol keys were checked")

    monkeypatch.setattr(suites, "PROPERTIES",
                        [(suite, index, props, not_run)
                         for suite, index, props, _ in suites.PROPERTIES])
    code = main(["verify", "--suite", "all", "--samples", "200", "--tol", "typo=1"])
    _assert_one_line_config_error(
        code, capsys,
        "unknown tolerance key(s) typo: no property of suite 'all' has that name")
    # a key of another suite is unknown to the one asked for
    code = main(["verify", "--suite", "algebra", "--tol", "exp_of_log_round_trip=1"])
    _assert_one_line_config_error(
        code, capsys, "unknown tolerance key(s) exp_of_log_round_trip: no property "
        "of suite 'algebra' has that name")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_property_takes_its_tol_key(capsys, suite):
    names = [name for s, _, props, _ in PROPERTIES if s == suite for name, _ in props]
    tols = [(name, 2.0 + k / 16) for k, name in enumerate(names)]
    argv = ["verify", "--suite", suite, "--samples", "1"]
    for name, tol in tols:
        argv += ["--tol", f"{name}={tol!r}"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["results"][suite]
    assert [(r["name"], r["tol"]) for r in rows] == tols


def test_log_refuses_branch_index_past_the_precision_limit(capsys):
    from slicestar.starlog import MAX_BRANCH_INDEX
    code = main(["log", "--fn", str(DATA / "f-two-sided.json"),
                 "--h1", "100000000000000000", "--h2", "0",
                 "--basepoint", "0.3,1.5", "--samples", "3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: BranchIndexTooLarge: ")
    assert str(MAX_BRANCH_INDEX) in captured.err


# drawn under the derandomized `slicestar` profile (conftest.py), so every
# run checks the same payloads
_names = st.text(st.characters(codec="utf-8"), max_size=6)
_scalars = (st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16,
                                           -1e16, math.inf, -math.inf, math.nan])
            | st.integers() | st.booleans() | st.none() | _names)
_payloads = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_names, inner, max_size=4)),
    max_leaves=24)


@given(_payloads)
@example({"floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16],
          "tuple": (1, True, None, "\u00e9\n\"", []), "": {}})
def test_json_writer_matches_json_dumps(obj):
    from slicestar.cli import _json_text
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


_row_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                              5e-324, 1e16])


@pytest.mark.parametrize("shape, width", [("_branch_sample", 11), ("_condition_sample", 4),
                                          ("_h_sample", 10), ("_lift_sample", 11)])
@given(data=st.data())
def test_row_template_matches_json_dumps(shape, width, data):
    from slicestar import cli
    form = getattr(cli, shape)
    rows = data.draw(st.lists(st.tuples(*[_row_floats] * width), max_size=4))
    # a list at the top level and one nested deeper, next to other keys
    payload = {"samples": cli._Rows(form, rows), "n": 1.5,
               "nested": {"deeper": cli._Rows(form, rows)}}
    expected = {"samples": [form(row) for row in rows], "n": 1.5,
                "nested": {"deeper": [form(row) for row in rows]}}
    assert cli._json_text(payload) == json.dumps(expected, indent=2, sort_keys=True)


@pytest.mark.parametrize("shape, width", [("_branch_sample", 11), ("_condition_sample", 4),
                                          ("_h_sample", 10), ("_lift_sample", 11)])
def test_row_template_matches_json_dumps_when_a_sum_overflows(shape, width):
    # every float is finite, but the sum of the grid overflows (the first two
    # rows), and so does the sum of one row (the third): each row is then
    # formatted apart, the third through _json_text
    from slicestar import cli
    form = getattr(cli, shape)
    rows = [(1.7e308,) + (0.5,) * (width - 1), (-0.25,) * (width - 1) + (1.7e308,),
            (1.7e308, 1.7e308) + (-0.0,) * (width - 2), (5e-324,) * width]
    payload = {"samples": cli._Rows(form, rows)}
    expected = {"samples": [form(row) for row in rows]}
    assert cli._json_text(payload) == json.dumps(expected, indent=2, sort_keys=True)
