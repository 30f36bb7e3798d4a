"""The benchmark's tracer finds conjlab's kernels and verifiers by name, so a
rename in src/ must turn this test red rather than silently empty a traced
run; and its cli workload calls the CLI with fixed argv, so a change to the
verbs or their options that the benchmark would refuse turns it red too.  The
tests read perfbench/ and change nothing there."""

import hashlib
import importlib.util
import json
from pathlib import Path

import conjlab.cli
import conjlab.matrix as matrix
import conjlab.pencil as pencil
import conjlab.verify as verify
from conjlab.chains import ChainSpec
from conjlab.fields import GF, QQ, QQT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_records_matrix_and_verify_spans():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        M = matrix.Matrix.from_rows(QQ(), [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
        assert matrix.rank(M) == 3
        assert matrix.rank_and_rref(M).rank == 3
        assert matrix.det(M) == 12
        assert matrix.inverse(M) @ M == matrix.Matrix.identity(QQ(), 3)
        assert matrix.char_poly(M).coeffs[0] == -12
        B = matrix.Matrix.from_rows(GF(2), [[0, 1, 1], [0, 0, 1], [1, 0, 0]])
        assert matrix.char_poly(B).coeffs == (1, 1, 0, 1)
        assert [m for _, m in matrix.eigen_data(M)] == [1, 1]
        chain = ChainSpec.make("A", 1, [], [(1, 1, 1)])
        assert verify.verify_equivariance(chain, trials=2, field=GF(7)).verdict == "pass"
    finally:
        restored = tracer.restore()
    recorded = {tracer.names[i] for i in tracer.span_name}
    for op in ("rank_and_rref", "det", "inverse", "char_poly", "eigen_data", "matmul"):
        assert f"matrix.{op}.qq" in recorded
    assert "matrix.char_poly.gf2" in recorded
    assert "verify.equivariance" in recorded
    assert restored


def test_tracer_records_a_span_per_lemma_family_through_run_one():
    """run_one calls each verifier by its module name at call time, so the
    tracer's rebinding reaches every lemma family of a traced suite run."""
    families = ("char2a", "char2b", "commutator", "conj", "equivariance", "rankbound")
    entries = {}
    for entry in verify.default_suite_config():
        entries.setdefault(next(f for f in families if entry["lemma"].startswith(f)), entry)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert all(verify.run_one(entries[f], seed=0).ok for f in families)
    finally:
        restored = tracer.restore()
    recorded = {tracer.names[i] for i in tracer.span_name}
    assert {f"verify.{f}" for f in families} <= recorded
    assert restored


def test_tracer_records_qqt_kernels_and_qq_eigenvalues():
    """The QQ(t) evaluation paths and the Sturm roots stay behind the traced
    public names."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        f = QQT()
        M = matrix.Matrix.from_rows(f, [[f.t, f.parse("(1)/(t+1)")], [f.one, f.t]])
        assert matrix.rank(M) == 2
        d = matrix.det(M)
        assert matrix.inverse(M) @ M == matrix.Matrix.identity(f, 2)
        assert d == f.parse("(t^3+t^2-1)/(t+1)")
        P = matrix.Matrix.from_rows(QQ(), [[5, 1, 0], [0, 5, 0], [0, 0, 7]])
        assert pencil.shift_rank(P).rank == 2
    finally:
        restored = tracer.restore()
    recorded = {tracer.names[i] for i in tracer.span_name}
    for name in ("matrix.det.qqt", "matrix.inverse.qqt", "matrix.eigen_data.qq"):
        assert name in recorded
    assert "matrix.rank_and_rref.qqt" not in recorded
    assert restored


def test_cli_workload_passes_in_process(tmp_path, monkeypatch):
    """Every task of the cli workload passes its check on seeds 0-9, run in
    process, and seed 0's canonical outputs hash to the digest that
    `perfbench/run.py --workload cli --seed 0` prints."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for seed in range(10):
        tasks = workloads.cli(seed, {"workdir": tmp_path, "inprocess": True,
                                     "cli_module": conjlab.cli})
        results = [task.call() for task in tasks]
        assert [task.check(r) for task, r in zip(tasks, results)] == [None] * len(tasks), seed
        if seed == 0:
            canon = [task.canon(r) for task, r in zip(tasks, results)]
            blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
            assert hashlib.sha256(blob).hexdigest() == \
                "585e24c3207e119b684ef976d6ba5a8aaec62a44b275e99d4e4aa96dd3acdce3"
