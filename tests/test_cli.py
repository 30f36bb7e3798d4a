import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_capped
from conjlab.cli import main
from conjlab.verify import run_one


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_rank_identity(tmp_path, capsys):
    p = tmp_path / "I3.json"
    p.write_text(json.dumps({"field": "gf:2", "rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    code, out = run_cli(capsys, ["rank", "--field", "gf:2", "--in", str(p)])
    assert code == 0
    assert json.loads(out) == {"rank": 3}


def test_options_before_the_verb_exit_2(capsys):
    """The common options belong to each verb: given before it, they are a
    usage error, not silently replaced by the verb's defaults (which answered
    the QQ rank over GF(7), and JSON for --out csv)."""
    for argv in (["--field", "gf:7", "rank"], ["--out", "csv", "rank"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: conjlab" in capsys.readouterr().err


def test_verbs_reject_options_they_do_not_read(capsys):
    """A verb takes only the options its handler reads: any other is a usage
    error, not silently dropped."""
    for argv in (["rank", "--seed", "1"], ["suite", "--trials", "3"], ["suite", "--field", "gf:5"],
                 ["descriptor", "canon", "a.json", "--in", "b.json"],
                 ["verify", "char2b", "--in", "x.json"],
                 # an option that only other ops of the verb read
                 ["chain", "classify", "--level", "9"], ["chain", "normalize", "--char", "2"],
                 ["chain", "project", "--char", "2"], ["chain", "classify", "--field", "gf:5"],
                 ["chain", "normalize", "--field", "qq_t"], ["graph", "reduce", "--field", "gf:2"],
                 ["graph", "replay", "--field", "qq"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage: conjlab" in capsys.readouterr().err


def test_sampled_options_need_sampled_mode(tmp_path, capsys):
    """--seed and --trials steer only --mode sampled of offdiag-check and
    minor-vanishing: in exhaustive mode, the default, either is a usage
    error, not silently dropped."""
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "gf:2", "rows": [["1", "0"], ["0", "0"]]}))
    for verb in (["offdiag-check", "--k", "0", "--m", "1"], ["minor-vanishing", "--k", "1"]):
        argv = verb + ["--field", "gf:2", "--in", str(m)]
        for extra in (["--trials", "5"], ["--seed", "3"], ["--mode", "exhaustive", "--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + extra)
            assert exc.value.code == 2, argv + extra
            assert "exhaustive reads no --" in capsys.readouterr().err
        code, _ = run_cli(capsys, argv + ["--mode", "sampled", "--trials", "5", "--seed", "3"])
        assert code == 0


def test_descriptor_intersect(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"k": 2, "exceptional": []}))
    b.write_text(json.dumps({"k": -1, "exceptional": [{"lambda": "3", "bound": 5}]}))
    code, out = run_cli(capsys, ["descriptor", "intersect", str(a), str(b)])
    assert code == 0
    assert json.loads(out) == {"k": -1, "exceptional": [{"lambda": "3", "bound": 2}]}
    # emitted JSON is accepted back by the reader
    c = tmp_path / "c.json"
    c.write_text(out)
    code, out2 = run_cli(capsys, ["descriptor", "canon", str(c)])
    assert code == 0 and json.loads(out2) == json.loads(out)


def test_verify_pass_and_fail(capsys):
    code, out = run_cli(capsys, ["verify", "char2b", "--n", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass" and rep["lemma"] == "char2b"
    code, out = run_cli(capsys, ["verify", "commutator", "--field", "gf:2", "--m", "2"])
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run_cli(capsys, ["rank", "--in", str(p)])
    assert code == 2
    p2 = tmp_path / "badfield.json"
    p2.write_text(json.dumps({"field": "zz", "rows": [["1"]]}))
    code, _ = run_cli(capsys, ["rank", "--in", str(p2)])
    assert code == 2


@pytest.mark.parametrize("field,doc", [
    ("gf:5", '{"rows":[["1/0"]]}'),
    ("qq", '{"rows":[["1/0"]]}'),
    ("qq_t", '{"rows":[["(1)/(0)"]]}'),
    ("qq", "[1]"),
    ("qq", '{"rows":5}'),
    ("qq", '{"field":5,"rows":[["1"]]}'),
])
def test_malformed_matrix_exits_2(capsys, monkeypatch, field, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = main(["rank", "--field", field])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb,doc", [
    (["pencil"], '{"matrices":5}'),
    (["graph", "reduce"], "[1]"),
    (["graph", "reduce"], '{"vertices":["a"],"edges":[5]}'),
    (["graph", "replay"], '{"graph":{"vertices":[],"edges":[]},"certificate":5}'),
    (["chain", "classify"], "[1]"),
    (["chain", "project"], '{"chain":1}'),
    (["topleft"], "[1]"),
    (["raise-rank"], '{"matrices":{}}'),
    (["lift-tuple-rank"], "[1]"),
    (["degenerate"], "5"),
    (["descriptor", "canon"], "[1]"),
    (["chain", "classify"], '{"type":"A","n1":1,"repeat":5}'),
    (["chain", "classify"], '{"type":"A","n1":1,"repeat":[5]}'),
    (["chain", "classify"], '{"type":"A","n1":1,"repeat":[[1,1]]}'),
    (["chain", "classify"], '{"type":"A","n1":[],"repeat":[[1,1,1]]}'),
    (["chain", "classify"], '{"type":5,"n1":1,"repeat":[[1,1,1]]}'),
    (["descriptor", "canon"], '{"k":[],"exceptional":5}'),
    (["descriptor", "canon"], '{"k":1,"exceptional":[5]}'),
    (["chain", "classify"], '{"type":"A","n1":1e400,"repeat":[[1,1,1]]}'),
    (["descriptor", "canon"], '{"k":1e400}'),
    (["descriptor", "canon"], '{"k":1,"exceptional":[{"lambda":"2","bound":1e400}]}'),
    (["chain", "normalize"], '{"type":"A","n1":1,"repeat":[[1,1,1e400]]}'),
    (["chain", "normalize"], '{"type":"A","n1":1,"repeat":[[1.5,0,1]]}'),
    (["chain", "normalize"], '{"type":"A","n1":true,"repeat":[[true,0,1]]}'),
    (["chain", "classify"], '{"type":"A","n1":2,"repeat":[[1,false,1]]}'),
    (["descriptor", "canon"], '{"k":true,"exceptional":[]}'),
    (["descriptor", "canon"], '{"k":1,"exceptional":[{"lambda":"2","bound":false}]}'),
    (["lift-tuple-rank"], '{"chain":{"type":"A","n1":2,"repeat":[[1,1,0]]},'
                          '"matrix":{"rows":[["1"]]},"level":"2"}'),
    (["lift-tuple-rank"], '{"chain":{"type":"A","n1":2,"repeat":[[1,1,0]]},'
                          '"matrix":{"rows":[["1"]]},"level":1.5}'),
    (["suite", "--config", "-"], "[1]"),
    (["suite", "--config", "-"], '[{"lemma": 5}]'),
    (["suite", "--config", "-"], '[{"lemma": "char2b", "n": [3]}]'),
    (["suite", "--config", "-"], "null"),
    (["suite", "--config", "-"], '{"lemma": "char2b", "n": 3}'),
    # rank bounds that no sample can exceed
    (["suite", "--config", "-"], '[{"lemma":"rankbound-sp","n":1,"m":1,"trials":1}]'),
    (["suite", "--config", "-"], '[{"lemma":"rankbound-od","n":3,"m":1,"trials":1}]'),
    (["suite", "--config", "-"], '[{"lemma":"rankbound-b","n":1,"m":2,"trials":1}]'),
    (["suite", "--config", "-"], '[{"lemma":"rankbound-zz","n":2,"m":1,"trials":0}]'),
    # sampled verifiers given no samples
    (["suite", "--config", "-"], '[{"lemma":"rankbound-sp","n":4,"m":1,"trials":0}]'),
    (["suite", "--config", "-"], '[{"lemma":"equivariance-A","chain":{"type":"A","n1":2,'
                                 '"prefix":[[1,1,1]],"repeat":[[1,1,1]]},"trials":0}]'),
    (["verify", "rankbound-sp", "--n", "4", "--m", "1", "--trials", "0"], ""),
    (["verify", "equivariance-A", "--trials", "0"], ""),
    (["offdiag-check", "--k", "0", "--m", "1", "--mode", "sampled", "--trials", "-5",
      "--field", "gf:2"], '{"rows":[["1","0"],["0","0"]]}'),
    (["minor-vanishing", "--k", "1", "--mode", "sampled", "--trials", "-1"],
     '{"rows":[["1","0"],["0","0"]]}'),
    (["minor-vanishing", "--k", "1", "--mode", "sampled", "--trials", "0"],
     '{"rows":[["1","0"],["0","0"]]}'),
    # a point with no level
    (["chain", "trace"], '{"chain":{"type":"A","n1":2,"repeat":[[1,1,0]]},"levels":[]}'),
    (["chain", "check-point"], '{"chain":{"type":"A","n1":2,"repeat":[[1,1,0]]},"levels":[]}'),
    # rankbound-b halves its samples
    (["verify", "rankbound-b", "--field", "gf:2", "--n", "1", "--m", "0"], ""),
    # a characteristic is 0 or a prime
    *[(["chain", "classify", "--char", c], '{"type":"A","n1":2,"repeat":[[2,0,0]]}')
      for c in ("1", "4", "-3")],
    # offdiag-check needs k >= 0 in both modes
    *[(["offdiag-check", "--k", "-1", "--m", "0", "--field", "gf:2", "--mode", mode],
       '{"rows":[["1","0"],["0","0"]]}') for mode in ("sampled", "exhaustive")],
    # a point whose levels lie over different fields
    *[(["chain", op], '{"chain":{"type":"A","n1":1,"repeat":[[1,1,0]]},"levels":['
                      '{"field":"qq","rows":[["1"]]},'
                      '{"field":"gf:2","rows":[["1","0"],["0","1"]]}]}')
      for op in ("trace", "check-point")],
    # tamper is a JSON boolean
    (["suite", "--config", "-"], '[{"lemma":"conj-2","tamper":"no"}]'),
    (["suite", "--config", "-"], '[{"lemma":"conj-2","tamper":0}]'),
    # equivariance of a chain type the default suite does not name
    (["verify", "equivariance-E"], ""),
    (["verify", "equivariance-A-B"], ""),
    # an equivariance lemma whose chain is of another type
    (["suite", "--config", "-"], '[{"lemma":"equivariance-B","chain":{"type":"A","n1":2,'
                                 '"prefix":[[1,1,1]],"repeat":[[1,1,1]]},"trials":1}]'),
    # a key the lemma does not read
    (["suite", "--config", "-"], '[{"lemma":"char2b","n":2,"field":"qq"}]'),
    # the binary operations given one path
    (["descriptor", "union"], '{"k":1,"exceptional":[]}'),
    (["descriptor", "intersect"], '{"k":1,"exceptional":[]}'),
    (["descriptor", "contains"], '{"k":1,"exceptional":[]}'),
    # a certificate step's edge is a JSON array
    (["graph", "replay"], '{"graph":{"vertices":["a"],"edges":[["a","a"]]},'
                          '"certificate":[{"rule":"remove_edge","edge":5}]}'),
    # a certificate step's edge is two vertices, its vertex and looped are
    # vertices, and a missing member is named
    *[(["graph", "replay"], '{"graph":{"vertices":["a","b"],"edges":[["a","a"],["a","b"]]},'
                            '"certificate":[' + step + ']}')
      for step in ('{"rule":"remove_edge","edge":["a"]}',
                   '{"rule":"remove_edge","edge":["a","b","a"]}',
                   '{"rule":"remove_looped_vertex","vertex":["a"]}',
                   '{"rule":"migrate_edge","edge":["a","b"],"looped":["a"]}',
                   '{"rule":"migrate_edge","edge":["a","b"]}',
                   '{"rule":"remove_looped_vertex"}',
                   '{"edge":["a","a"]}')],
    # a graph edge is two vertices, and a vertex a string or an integer
    (["graph", "reduce"], '{"vertices":["a"],"edges":[["a"]]}'),
    (["graph", "reduce"], '{"vertices":["a"],"edges":[["a","a","a"]]}'),
    (["graph", "reduce"], '{"vertices":[["a"]],"edges":[]}'),
    (["graph", "reduce"], '{"vertices":["a",true],"edges":[]}'),
    (["graph", "incidence"], '{"vertices":["a"],"edges":[["a",{"b":1}]]}'),
    (["graph", "replay"], '{"graph":{"vertices":[1.5],"edges":[]},"certificate":[]}'),
    # the minor criterion reads a square matrix, in both modes
    *[(["minor-vanishing", "--field", "gf:3", "--k", "1", *extra], rows)
      for rows in ('{"rows":[[0,0],[0,0],[0,0]]}', '{"rows":[[1,0],[0,1],[0,0]]}')
      for extra in ([], ["--mode", "sampled", "--trials", "3", "--seed", "1"])],
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_malformed_document_exits_2(tmp_path, capsys, monkeypatch, verb, doc):
    if verb[0] == "descriptor":
        path = tmp_path / "d.json"
        path.write_text(doc)
        argv = verb + [str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        argv = verb
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_descriptor_reads_stdin(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"k": 2, "exceptional": []}))
    doc = json.dumps({"k": -1, "exceptional": [{"lambda": "3", "bound": 5}]})
    code, out = run_cli(capsys, ["descriptor", "intersect", str(a), "-"], stdin=doc,
                        monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"k": -1, "exceptional": [{"lambda": "3", "bound": 2}]}
    code, out = run_cli(capsys, ["descriptor", "canon", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == json.loads(doc)
    # canon reads the first of two documents
    code, out = run_cli(capsys, ["descriptor", "canon", str(a), "-"], stdin=doc,
                        monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"k": 2, "exceptional": []}


@pytest.mark.parametrize("entry", ["1/2/3", "t", "1.5", ""])
def test_gf_entry_error_names_input_and_forms(capsys, monkeypatch, entry):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"rows": [[entry]]})))
    code = main(["rank", "--field", "gf:5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: cannot parse {entry!r} over gf:5: write an integer a "
                   "or a quotient a/b of integers\n")


def test_eig_large_entry(tmp_path, capsys):
    big = 10**18 + 3
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "qq", "rows": [[str(big), "1", "0"], ["0", str(big), "0"],
                                                     ["2", "3", "-7"]]}))
    t0 = time.perf_counter()
    code, out = run_cli(capsys, ["eig", "--in", str(m)])
    assert time.perf_counter() - t0 < 3
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [
        {"lambda": "-7", "multiplicity": 1}, {"lambda": str(big), "multiplicity": 1}]


def test_eig_and_tuplerank_reach_largest_prime(capsys, monkeypatch):
    """Over GF(2^31 - 1) the eigenvalues come from the roots of the
    characteristic polynomial, not from a rank per element."""
    p = 2**31 - 1
    doc = json.dumps({"rows": [["3", "1"], ["0", "3"]]})
    t0 = time.perf_counter()
    code, out = run_cli(capsys, ["eig", "--field", f"gf:{p}"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"eigenvalues": [{"lambda": "3", "multiplicity": 1}]}
    doc = json.dumps({"rows": [["0", "1"], ["-1", "0"]]})  # x^2 + 1, -1 a nonsquare mod p
    code, out = run_cli(capsys, ["tuplerank", "--field", f"gf:{p}"], stdin=doc,
                        monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"rank": 2, "lambda": None}
    assert time.perf_counter() - t0 < 1


def test_qqt_quotient_with_a_sum_exits_2(capsys, monkeypatch):
    code, out = run_cli(capsys, ["rank", "--field", "qq_t"],
                        stdin='{"rows":[["t/3","-2*t^2/5"]]}', monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out) == {"rank": 1}
    monkeypatch.setattr("sys.stdin", io.StringIO('{"rows":[["t+1/3"]]}'))
    code = main(["rank", "--field", "qq_t"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "'t+1/3'" in err and "(num)/(den)" in err


@pytest.mark.parametrize("field, scalar", [
    ("qq_t", "t^99999999999"), ("qq_t", "(1)/(t^99999999999)"),
    ("qq", "1e10000000"), ("qq", "1e-99999999999"),
])
def test_scalar_with_a_huge_exponent_exits_2(field, scalar):
    # a 14-byte entry built a list slot per degree of t, or computed 10**N:
    # run capped, it now exits 2 with one line at once
    code, out, err, _ = run_capped(f"""
        import sys
        from conjlab.cli import main
        sys.exit(main(["rank", "--field", "{field}"]))
    """, stdin=json.dumps({"rows": [[scalar]]}), timeout=30)
    assert code == 2 and out == "" and err.count("\n") == 1 and "exponent" in err, err


@pytest.mark.parametrize("rows, coeffs", [
    ([["1e2200", "0"], ["0", "1e2200"]], ["1" + "0" * 4400, "-2" + "0" * 2200, "1"]),
    ([["1e4300"]], ["-1" + "0" * 4300, "1"]),
], ids=["4401-digit-result", "4301-digit-entry"])
def test_integers_past_the_str_digit_limit_print_exactly(rows, coeffs):
    # Python's str(int) refuses more than 4300 digits; the output does not
    code, out, err, _ = run_capped("""
        import sys
        from conjlab.cli import main
        sys.exit(main(["charpoly", "--field", "qq"]))
    """, stdin=json.dumps({"rows": rows}), timeout=30)
    assert code == 0 and json.loads(out) == {"coeffs": coeffs}, err


def test_all_conjugates_checks_past_the_pair_count(capsys, monkeypatch):
    # the 8 x 8 identity over GF(2) passes offdiag-check by its lemma (7.0 M
    # subspace pairs at m = 2) and fails minor-vanishing at its first pair
    doc = json.dumps({"field": "gf:2", "rows": [[str(int(i == j)) for j in range(8)] for i in range(8)]})
    for argv, want in ((["offdiag-check", "--k", "1", "--m", "2"], {"holds": True}),
                       (["minor-vanishing", "--k", "4"], {"vanishes": False})):
        code, out = run_cli(capsys, argv, stdin=doc, monkeypatch=monkeypatch)
        assert code == 0 and {k: v for k, v in json.loads(out).items() if k in want} == want, out


def test_all_conjugates_refusals_with_many_good_subspaces_are_quick():
    # E_00 over GF(2), n = 21: the 2^20 - 1 lines with r_0 = 0 are good R's
    # of the walk at k = 0, m = 1 and of the minor search at k = 1, all ahead
    # of the first bad one; charged by their entries, both exit 2 in seconds
    n = 21
    doc = json.dumps({"field": "gf:2", "rows": [[str(int(i == j == 0)) for j in range(n)] for i in range(n)]})
    for argv, search in ((["offdiag-check", "--k", "0", "--m", "1"], "witness walk"),
                         (["minor-vanishing", "--k", "1"], "minor search")):
        code, out, err, _ = run_capped(f"""
            import sys
            from conjlab.cli import main
            sys.exit(main({argv!r}))
        """, stdin=doc, timeout=20)
        assert code == 2 and out == "" and err.count("\n") == 1 and search in err, err


def test_chain_normalize_integral_floats(capsys, monkeypatch):
    doc = '{"type":"A","n1":2.0,"repeat":[[1.0,0,1]]}'
    code, out = run_cli(capsys, ["chain", "normalize"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == '{"n1":2,"prefix":[],"repeat":[[1,0,1]],"type":"A"}'


@pytest.mark.parametrize("lemma, chain", [
    ("equivariance", {"type": "A", "n1": 2, "prefix": [[1, 1, 1]], "repeat": [[1, 1, 1]]}),
    ("equivariance-A", {"type": "A", "n1": 2, "prefix": [[1, 1, 1]], "repeat": [[1, 1, 1]]}),
    ("equivariance-B", {"type": "B", "n1": 1, "prefix": [[1, 0, 2]], "repeat": [[1, 0, 2]]}),
    ("equivariance-C", {"type": "C", "n1": 1, "prefix": [[2, 0, 1]], "repeat": [[2, 0, 1]]}),
    ("equivariance-D", {"type": "D", "n1": 2, "prefix": [[2, 0, 1]], "repeat": [[2, 0, 1]]}),
])
def test_verify_equivariance_default_chains(capsys, lemma, chain):
    # verify runs each equivariance lemma on these chains
    code, out = run_cli(capsys, ["verify", lemma, "--trials", "3", "--seed", "4"])
    entry = {"lemma": lemma, "field": "gf:7", "trials": 3, "chain": chain}
    want = run_one(entry, 4).to_json()
    got = json.loads(out)
    assert code == 0 and got.pop("ms") >= 0 and want.pop("ms") >= 0
    assert got == want


@pytest.mark.parametrize("argv, key", [
    (["char2b", "--field", "gf:5"], "field"), (["char2b", "--m", "9"], "m"),
    (["conj-2", "--n", "7"], "n"), (["commutator", "--trials", "3"], "trials"),
    (["equivariance-C", "--n", "2"], "n"),
])
def test_verify_rejects_options_its_lemma_does_not_read(capsys, argv, key):
    code = main(["verify"] + argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert f"reads no {key!r}" in err and argv[0] in err


def test_verify_over_budget_exits_2(capsys):
    code, out = run_cli(capsys, ["verify", "char2a", "--field", "gf:3", "--n", "3"])
    assert code == 2 and out == ""


def test_sampled_trials_over_budget_exit_2(tmp_path, capsys):
    """A sampled count above the enumeration budget exits 2 with one line
    before any draw; on a passing input it ran for as many draws as asked."""
    m = tmp_path / "zero.json"
    m.write_text(json.dumps({"field": "gf:2", "rows": [["0", "0"], ["0", "0"]]}))
    cfg = tmp_path / "char2a.json"
    cfg.write_text(json.dumps([{"lemma": "char2a", "field": "gf:3", "mode": "sample",
                                "trials": 10**12}]))
    sampled = ["--field", "gf:2", "--in", str(m), "--mode", "sampled", "--trials", str(10**20)]
    for argv in (["offdiag-check", "--k", "0", "--m", "1"] + sampled,
                 ["minor-vanishing", "--k", "1"] + sampled,
                 ["verify", "equivariance-A", "--trials", str(10**12)],
                 ["verify", "rankbound-sp", "--n", "8", "--trials", str(10**12)],
                 ["suite", "--config", str(cfg)]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert "trials exceed the enumeration budget" in err, argv


@pytest.mark.parametrize("lemma, n", [("char2b", 300), ("rankbound-sp", 5000), ("rankbound-b", 2000)])
def test_verify_sizes_over_budget_exit_2(lemma, n):
    # each ended in a MemoryError traceback with exit 1 under the cap; the
    # size is charged before anything is built
    code, out, err, _ = run_capped(f"""
        import sys
        from conjlab.cli import main
        sys.exit(main(["verify", "{lemma}", "--n", "{n}"]))
    """, timeout=30)
    assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error:"), err
    assert "enumeration budget" in err


def test_verify_commutator_needs_a_finite_field(capsys):
    # an explicit qq or qq_t exits 2, as for char2a, with one line naming the
    # lemma; with no --field the lemma runs over GF(3)
    for field in ("qq", "qq_t"):
        code = main(["verify", "commutator", "--field", field])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.count("\n") == 1 and "commutator" in err
    code, out = run_cli(capsys, ["verify", "commutator", "--m", "2"])
    assert code == 0 and json.loads(out)["params"]["field"] == "gf:3"


def test_stdin_and_determinism(capsys, monkeypatch):
    doc = json.dumps({"field": "qq", "rows": [["1", "2"], ["2", "4"]]})
    code, out1 = run_cli(capsys, ["tuplerank", "--in", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    code, out2 = run_cli(capsys, ["tuplerank", "--in", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert out1 == out2
    assert json.loads(out1) == {"rank": 1, "lambda": "0"}


def test_charpoly_eig_pencil(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "qq", "rows": [["1", "0"], ["0", "2"]]}))
    code, out = run_cli(capsys, ["charpoly", "--in", str(m)])
    assert json.loads(out) == {"coeffs": ["2", "-3", "1"]}
    code, out = run_cli(capsys, ["eig", "--in", str(m)])
    assert json.loads(out)["eigenvalues"] == [
        {"lambda": "1", "multiplicity": 1}, {"lambda": "2", "multiplicity": 1}]
    pen = tmp_path / "pen.json"
    pen.write_text(json.dumps({"matrices": [
        {"field": "gf:3", "rows": [["1", "0"], ["0", "1"]]},
        {"field": "gf:3", "rows": [["1", "0"], ["0", "0"]]},
    ]}))
    code, out = run_cli(capsys, ["pencil", "--in", str(pen)])
    assert json.loads(out) == {"rank": 1, "witness": ["1", "2"]}


def test_offdiag_and_classify(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "gf:3", "rows": [["1", "0"], ["0", "2"]]}))
    code, out = run_cli(capsys, ["offdiag-check", "--k", "0", "--m", "1", "--in", str(m)])
    rep = json.loads(out)
    assert rep["holds"] is False
    assert rep["witness"]["g"] == {"field": "gf:3", "rows": [["1", "1"], ["0", "1"]]}
    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps({"field": "qq", "rows": [
        ["5", "1", "0", "0"], ["0", "5", "0", "0"], ["0", "0", "5", "0"], ["0", "0", "0", "5"]]}))
    code, out = run_cli(capsys, ["classify-orbit", "--in", str(m2)])
    assert json.loads(out) == {"kind": "stratum", "lambda": "5", "rank": 1, "level": 4}


def test_graph_verbs(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "a"], ["a", "b"]]}))
    code, out = run_cli(capsys, ["graph", "reduce", "--in", str(g)])
    rep = json.loads(out)
    assert rep["reducible"] is True
    rep2 = tmp_path / "replay.json"
    rep2.write_text(json.dumps({"graph": json.loads(g.read_text()),
                                "certificate": rep["certificate"]}))
    code, out = run_cli(capsys, ["graph", "replay", "--in", str(rep2)])
    assert json.loads(out) == {"ok": True}
    code, out = run_cli(capsys, ["graph", "incidence", "--field", "gf:2", "--in", str(g)])
    assert json.loads(out) == {"surjective": True, "rank": 2}


def test_chain_verbs(tmp_path, capsys):
    ch = {"type": "A", "n1": 1, "prefix": [], "repeat": [[2, 0, 1]]}
    p = tmp_path / "ch.json"
    p.write_text(json.dumps(ch))
    code, out = run_cli(capsys, ["chain", "classify", "--char", "0", "--in", str(p)])
    assert json.loads(out)["case"] == "2"
    code, out = run_cli(capsys, ["chain", "normalize", "--in", str(p)])
    assert json.loads(out)["repeat"] == [[2, 0, 1]]
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps({
        "chain": {"type": "A", "n1": 1, "prefix": [], "repeat": [[2, 0, 0]]},
        "matrix": {"field": "qq", "rows": [["1", "0"], ["0", "2"]]},
    }))
    code, out = run_cli(capsys, ["chain", "project", "--level", "1", "--in", str(proj)])
    assert json.loads(out) == {"field": "qq", "rows": [["3"]]}


def test_minor_vanishing_verb(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "gf:2", "rows": [["0", "0"], ["0", "0"]]}))
    code, out = run_cli(capsys, ["minor-vanishing", "--k", "1", "--field", "gf:2",
                                 "--in", str(m)])
    assert code == 0 and json.loads(out) == {"vanishes": True}


def test_chain_embed_and_trace(tmp_path, capsys):
    doc = tmp_path / "embed.json"
    doc.write_text(json.dumps({
        "chain": {"type": "A", "n1": 2, "prefix": [], "repeat": [[2, 0, 0]]},
        "matrix": {"field": "qq", "rows": [["0", "1"], ["-1", "0"]]},
    }))
    code, out = run_cli(capsys, ["chain", "embed", "--level", "1", "--in", str(doc)])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0] == ["0", "1", "0", "0"] and rows[2] == ["0", "0", "0", "1"]
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps({
        "chain": {"type": "A", "n1": 2, "prefix": [], "repeat": [[2, 0, 0]]},
        "levels": [{"field": "gf:2", "rows": [["1", "0"], ["0", "0"]]}],
    }))
    code, out = run_cli(capsys, ["chain", "trace", "--in", str(pt)])
    assert code == 0 and json.loads(out) == {"trace": "1"}


@pytest.mark.parametrize("verb", [["lift-tuple-rank"], ["chain", "project"], ["chain", "embed"]])
@pytest.mark.parametrize("level", [10**5, 10**18])
def test_chain_verbs_answer_any_level_at_once(capsys, monkeypatch, verb, level):
    """A growing chain has no 2x2 matrices at a huge level: exit 2 at once.
    A repeat of identity maps keeps n, so project answers at any level."""
    matrix = {"field": "qq", "rows": [["1", "0"], ["0", "2"]]}
    for repeat, want in (([[1, 1, 0]], 2), ([[1, 0, 0]], 0 if verb[-1] == "project" else 2)):
        doc = {"chain": {"type": "A", "n1": 2, "repeat": repeat}, "matrix": matrix}
        argv = verb + ["--level", str(level)]
        if verb == ["lift-tuple-rank"]:
            doc["level"], argv = level, verb
        t0 = time.perf_counter()
        code, out = run_cli(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert time.perf_counter() - t0 < 0.5 and code == want, (repeat, code)
        if want == 0:
            assert json.loads(out) == matrix


def test_raise_rank_verb(tmp_path, capsys):
    e11 = {"field": "qq", "rows": [["1" if (i, j) == (0, 0) else "0" for j in range(6)]
                                   for i in range(6)]}
    doc = tmp_path / "rr.json"
    doc.write_text(json.dumps({"matrices": [e11, e11]}))
    code, out = run_cli(capsys, ["raise-rank", "--in", str(doc)])
    assert code == 0
    assert len(json.loads(out)["conjugators"]) == 2


def test_verify_equivariance_verb(capsys):
    code, out = run_cli(capsys, ["verify", "equivariance-C", "--trials", "10"])
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_topleft_and_degenerate(tmp_path, capsys):
    doc = tmp_path / "tl.json"
    doc.write_text(json.dumps({
        "p": {"field": "qq", "rows": [["1", "0", "0", "0"], ["0", "0", "0", "0"],
                                      ["0", "0", "0", "0"], ["0", "0", "0", "0"]]},
        "q": {"field": "qq", "rows": [["0", "0"], ["0", "0"]]},
    }))
    code, out = run_cli(capsys, ["topleft", "--in", str(doc)])
    assert code == 0 and "g" in json.loads(out)
    deg = tmp_path / "deg.json"
    deg.write_text(json.dumps({
        "r": {"field": "qq", "rows": [["0", "1"], ["-1", "0"]]},
        "w": {"field": "qq", "rows": [["0"], ["1"]]},
        "q": {"field": "qq", "rows": [["0", "0"], ["0", "0"]]},
        "v": {"field": "qq", "rows": [["1"], ["0"]]},
    }))
    code, out = run_cli(capsys, ["degenerate", "--in", str(deg)])
    assert code == 0
    curve = json.loads(out)["curve"]
    assert curve["field"] == "qq_t"
    # the emitted QQ(t) matrix is accepted back by the reader
    from conjlab.jsonio import matrix_from_json, matrix_to_json
    G = matrix_from_json(curve)
    assert matrix_to_json(G) == curve


def test_suite_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"lemma": "char2b", "n": 2},
                               {"lemma": "commutator", "field": "gf:3", "m": 2}]))
    code, out = run_cli(capsys, ["suite", "--config", str(cfg), "--seed", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] and len(rep["reports"]) == 2
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps([{"lemma": "conj-C", "tamper": True}]))
    code, out = run_cli(capsys, ["suite", "--config", str(cfg2)])
    assert code == 1 and not json.loads(out)["ok"]


def test_csv_output(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"field": "qq", "rows": [["1", "0"], ["0", "2"]]}))
    code, out = run_cli(capsys, ["rank", "--out", "csv", "--in", str(m)])
    assert code == 0 and out.strip() == "rank,2"


# Small documents for every verb that reads one: the shape the verb expects,
# built from small parts with a wrong type or size mixed in now and then, or
# arbitrary JSON.
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([0.5, 2.0, float("inf")]),
    st.sampled_from(["0", "1", "-1", "2/3", "1/0", "t", "t/3", "(1)/(t)", "1/2/3", "A"]))
_JSON = st.recursive(_SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text("kqrvw", max_size=2), inner, max_size=3)),
    max_leaves=8)
_ENTRY = st.one_of(st.integers(-2, 3), st.integers(-2, 3).map(str), st.sampled_from(["2/3", "t"]))
_INT = st.one_of(st.integers(0, 2), st.integers(1, 2), st.integers(1, 2), _SCALAR)
_LABEL = st.sampled_from("abc")


def _matrices(k):
    """k matrices of one size, n x n and now and then n x 1."""
    return st.integers(0, 3).flatmap(lambda n: st.sampled_from([n, n, 1]).flatmap(
        lambda m: st.lists(st.fixed_dictionaries({"rows": st.lists(
            st.lists(_ENTRY, min_size=m, max_size=m), min_size=n, max_size=n)}),
            min_size=k, max_size=k)))


_MATRIX = _matrices(1).map(lambda ms: ms[0])
_SIGNATURE = st.one_of(st.lists(st.integers(0, 2), min_size=3, max_size=3),
                       st.lists(_INT, min_size=3, max_size=3))
_CHAIN = st.fixed_dictionaries(
    {"type": st.sampled_from("AABCDE"), "n1": _INT,
     "repeat": st.lists(_SIGNATURE, min_size=1, max_size=2)},
    optional={"prefix": st.lists(_SIGNATURE, max_size=2)})
_GRAPH = st.fixed_dictionaries(
    {"vertices": st.lists(_LABEL, max_size=3, unique=True),
     "edges": st.lists(st.lists(_LABEL, min_size=2, max_size=2), max_size=4)})
_STEP = st.fixed_dictionaries(
    {"rule": st.sampled_from(["remove_edge", "remove_looped_vertex", "migrate_edge", "x"]),
     "edge": st.lists(_LABEL, min_size=2, max_size=2), "vertex": _LABEL, "looped": _LABEL})
_ON_CHAIN = st.fixed_dictionaries({"chain": _CHAIN, "matrix": _MATRIX}, optional={"level": _INT})
_MATRIX_VERBS = [["rank"], ["charpoly"], ["eig"], ["tuplerank"], ["classify-orbit"],
                 ["offdiag-check", "--k", "1", "--m", "1"], ["minor-vanishing", "--k", "1"]]
_VERB_DOCS = [(verb, _MATRIX) for verb in _MATRIX_VERBS] + [
    (["pencil"], st.builds(lambda ms: {"matrices": ms}, st.integers(0, 3).flatmap(_matrices))),
    (["raise-rank"], st.builds(lambda ms: {"matrices": ms}, st.integers(0, 3).flatmap(_matrices))),
    (["topleft"], st.builds(lambda ms: dict(zip("pq", ms)), _matrices(2))),
    (["degenerate"], st.builds(lambda ms: dict(zip("rwqv", ms)), _matrices(4))),
    (["lift-tuple-rank"], _ON_CHAIN),
    (["chain", "classify"], _CHAIN), (["chain", "normalize"], _CHAIN),
    (["chain", "project"], _ON_CHAIN), (["chain", "embed"], _ON_CHAIN),
    *[(["chain", op], st.fixed_dictionaries({"chain": _CHAIN, "levels": _matrices(2)}))
      for op in ("check-point", "trace")],
    (["graph", "reduce"], _GRAPH), (["graph", "incidence"], _GRAPH),
    (["graph", "replay"], st.fixed_dictionaries(
        {"graph": _GRAPH, "certificate": st.lists(_STEP, max_size=3)})),
    *[(["descriptor", op, "-"], st.fixed_dictionaries({"k": _INT, "exceptional": st.lists(
        st.fixed_dictionaries({"lambda": _ENTRY, "bound": _INT}), max_size=2)}))
      for op in ("union", "intersect", "contains", "canon")],
    # lemmas that pass at every small size they accept, so a run exits 0 or 2;
    # none of them reads "m"
    (["suite", "--config", "-"], st.lists(st.one_of(_SCALAR, st.fixed_dictionaries(
        {"lemma": st.one_of(st.sampled_from(["char2a", "char2b", "conj-2", "x"]), _SCALAR)},
        optional={"n": _INT, "trials": _INT, "field": st.sampled_from(["gf:3", "gf:5", 5]),
                  "m": _INT})),
        max_size=2)),
]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_VERB_DOCS), field=st.sampled_from(["gf:2", "gf:3", "qq", "qq_t"]),
       data=st.data())
def test_cli_fuzz_exits_0_or_2(tmp_path_factory, case, field, data):
    """Any small JSON document, sent to any verb that reads one, exits 0 or 2,
    and 2 with exactly one line on stderr."""
    verb, docs = case
    doc = data.draw(st.one_of(docs, docs, _JSON))
    reads_field = (verb[0] not in ("suite", "chain", "graph")
                   or verb[1] in ("project", "embed", "incidence"))
    argv = verb + (["--field", field] if reads_field else [])
    if verb[0] == "descriptor":  # the second operand is a fixed valid document
        other = tmp_path_factory.getbasetemp() / "fuzz-descriptor.json"
        other.write_text('{"k": 1, "exceptional": [{"lambda": "1", "bound": 0}]}')
        argv = verb + [str(other), "--field", field]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2), (argv, doc)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == (code == 2), (argv, doc, err.getvalue())
