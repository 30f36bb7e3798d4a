"""The benchmark's tracer finds conjlab's kernels and verifiers by name, so a
rename in src/ must turn this test red rather than silently empty a traced
run.  The test reads perfbench/ and changes nothing there."""

import importlib.util
from pathlib import Path

import conjlab.matrix as matrix
import conjlab.pencil as pencil
import conjlab.verify as verify
from conjlab.chains import ChainSpec
from conjlab.fields import GF, QQ, QQT

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
        assert verify.verify_equivariance(chain, trials=2).verdict == "pass"
    finally:
        restored = tracer.restore()
    recorded = {tracer.names[i] for i in tracer.span_name}
    for op in ("rank_and_rref", "det", "inverse", "char_poly", "eigen_data", "matmul"):
        assert f"matrix.{op}.qq" in recorded
    assert "matrix.char_poly.gf2" in recorded
    assert "verify.equivariance" in recorded
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
