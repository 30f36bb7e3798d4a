"""The four workloads: seeded inputs, the calls into conjlab, and the checks.

Each workload function returns a list of tasks.  A task's ``call`` runs the
program on inputs made at set-up; the benchmark times it.  ``check`` looks at the output
afterwards with the reference arithmetic in ``refcheck`` and returns None,
or ("failed", why) for an operation that crashed, or ("wrong", why) for an
output that is not right.  ``canon`` gives the canonical form that goes into
the run's digest.  Calls go through module attributes (``pencil.shift_rank``
and so on) so that a traced run sees them.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refcheck as ref

# Why each workload is in the benchmark; BENCHMARK.json carries these lines.
WHY = {
    "suite": "the default verify suite: 87% is the brute-force coverage checks in verify; no pencil, "
             "little matrix; the digest drops the ms field that makes verify output vary",
    "conjugates": "all-conjugates criteria over GF(2), n=4: GL_4 scans in pencil and orbits with many "
                  "4x4 Matrix ops, 20% full-scan inputs; bypasses verify",
    "exact": "matrix kernels per field (GF(2), GF(7), QQ, QQ(t)) and size, and the exact constructions; "
             "QQ shift_rank inputs show the divisor scan of eigen_data",
    "cli": "one conjlab CLI process per cheap verb, 20% malformed input: interpreter start, imports, "
           "jsonio and output dominate",
}


@dataclass
class Task:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple | None]
    canon: Callable[[object], object]


def plain(x):
    """Canonical JSON-able form of a conjlab output."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if hasattr(x, "entries") and hasattr(x, "field"):  # Matrix
        f = x.field
        return {"field": f.name, "rows": [[f.format(x.entry(i, j)) for j in range(x.cols)]
                                          for i in range(x.rows)]}
    if hasattr(x, "coeffs") and hasattr(x, "field"):  # UniPoly
        return [x.field.format(c) for c in x.coeffs]
    return str(x)  # Fraction, RatFunc


def _wrong(ok: bool, why: str):
    return None if ok else ("wrong", why)


def _differ(a, b, p) -> bool:
    """a != b as reference values: mod p, or exactly over QQ."""
    return (a - b) % p != 0 if p else a != b


def _field_key(name: str) -> str:
    return {"gf:2": "gf2", "qq": "qq", "qq_t": "qqt"}.get(name, name.replace(":", ""))


# ---------------------------------------------------------------------------
# suite: the lab's standard "does everything still verify" run
# ---------------------------------------------------------------------------

def suite(seed: int, ctx) -> list[Task]:
    from conjlab import verify

    def check(report):
        if report.lemma.startswith("rankbound"):
            rate = report.witnesses[0]["witness_rate"] if report.witnesses else 0.0
            return _wrong(report.verdict == "statistical-pass" and rate >= 0.95,
                          f"{report.lemma}: {report.verdict}, witness rate {rate}")
        return _wrong(report.verdict == "pass", f"{report.lemma}: {report.verdict}")

    def canon(report):
        out = report.to_json()
        out.pop("ms", None)  # wall-clock milliseconds differ from run to run
        return out

    # run_suite(config, seed) is exactly run_one over the config, then a sort;
    # calling run_one per entry times each entry.  digest_order repeats the sort.
    return [Task(entry["lemma"], lambda e=entry: verify.run_one(e, seed), check, canon)
            for entry in verify.default_suite_config()]


def suite_digest_order(records):
    return sorted(records, key=lambda r: (r.get("lemma", ""),
                                          str(sorted(r.get("params", {}).items()))))


# ---------------------------------------------------------------------------
# conjugates: the all-conjugates criteria over GF(2), n = 4
# ---------------------------------------------------------------------------

N_CONJ = 50          # inputs per pass, as in acceptance criterion 2
SPR1_EVERY = 5       # every fifth input is scalar plus rank one: a full scan


def _tuple_rank_gf(rows, p):
    n = len(rows)
    return min([n] + [ref.rank(ref.shift(rows, lam, p), p) for lam in range(p)])


def conjugates(seed: int, ctx) -> list[Task]:
    from conjlab import fields, matrix, orbits, pencil

    rng = random.Random(f"conjugates:{seed}")
    g2, g3 = fields.GF(2), fields.GF(3)
    n = 4
    ident = matrix.Matrix.identity(g2, n)

    def rand_rows(p):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]

    def nonzero_vec():
        while True:
            v = [rng.randrange(2) for _ in range(n)]
            if any(v):
                return v

    # The minor test's early exit on a singular input takes anywhere from 0 to
    # 0.9 s, by input; on an invertible input with k = n it ends at once.  So
    # one input per pass (rank 1, k = 2) scans all of GL_4(F_2) with verdict
    # True, and every other input is invertible and gets k = n (verdict False).
    tasks = []
    for i in range(N_CONJ):
        if i == SPR1_EVERY - 1:
            u, v = nonzero_vec(), nonzero_vec()
            rows = [[u[r] * v[c] for c in range(n)] for r in range(n)]
        elif i % SPR1_EVERY == SPR1_EVERY - 1:
            while True:  # I + u v^T with v.u = 0: invertible, tuple rank 1
                u, v = nonzero_vec(), nonzero_vec()
                if sum(a * b for a, b in zip(u, v)) % 2 == 0:
                    break
            rows = [[((r == c) + u[r] * v[c]) % 2 for c in range(n)] for r in range(n)]
        else:
            while True:  # random invertible, never a full scan: the share stays fixed
                rows = rand_rows(2)
                if ref.rank(rows, 2) == n and _tuple_rank_gf(rows, 2) >= 2:
                    break
        rk = ref.rank(rows, 2)
        k = rk + 1 if rk < n else n
        triple = [rand_rows(3) for _ in range(3)]
        P = matrix.Matrix.from_rows(g2, rows)
        Ms = [matrix.Matrix.from_rows(g3, t) for t in triple]

        def call(P=P, k=k, Ms=Ms):
            holds, wit = pencil.offdiag_criterion_check(P, 1, 2, "exhaustive")
            vanishes = orbits.minor_vanishing_test(P, k)
            pi = pencil.pencil_rank_enumerate(pencil.PencilTuple.make([P, ident]))
            p3 = pencil.pencil_rank_enumerate(pencil.PencilTuple.make(Ms))
            return holds, wit, vanishes, pi, p3

        def check(out, rows=rows, rk=rk, k=k, triple=triple):
            holds, wit, vanishes, (r2, w2), (r3, w3) = out
            expect = _tuple_rank_gf(rows, 2) <= 1
            if holds != expect:
                return ("wrong", f"offdiag verdict {holds}, tuple rank says {expect}")
            if not holds:
                g, K, L = wit
                Q = ref.conjugate(ref.rows_of(g), rows, 2)
                if Q is None or ref.rank([[Q[a][b] for b in L] for a in K], 2) <= 1:
                    return ("wrong", "offdiag witness does not certify a rank-2 block")
            if vanishes != (rk < k):
                return ("wrong", f"minor test {vanishes} for rank {rk}, k={k}")
            for r, w, mats, p in ((r2, w2, [rows, ref.identity(n)], 2), (r3, w3, triple, 3)):
                best = min(ref.pencil_rank(mats, mu, p) for mu in ref.projective_points(p, len(mats)))
                if r != best or not ref.is_projective_point(w, p) or ref.pencil_rank(mats, w, p) != r:
                    return ("wrong", f"pencil rank {r} witness {w}, enumeration gives {best}")
            return None

        tasks.append(Task(f"input{i}", call, check, plain))
    ctx["extras"] = {"full_scan_share": sum(1 for i in range(N_CONJ)
                                            if i % SPR1_EVERY == SPR1_EVERY - 1) / N_CONJ,
                     "minor_full_scans": 1}
    return tasks


# ---------------------------------------------------------------------------
# exact: kernels per field and size, and the exact constructions
# ---------------------------------------------------------------------------

SIZES = {"gf:2": (8, 32), "gf:7": (6, 16), "qq": (6, 16), "qq_t": (3, 6)}
# shift_rank over QQ scans the divisors of the characteristic polynomial's
# constant, so its inputs are conjugates of fixed diagonals with many divisors;
# larger constants do not finish.
QQ_EIGEN_DIAG = {0: (720, 360, 120), 1: (5040, 2520, 720, 720)}
REPS = 3
T_SAMPLES = (Fraction(7, 3), Fraction(-5, 2), Fraction(11, 7))
KERNEL_OPS = ("rank", "det", "inverse", "char_poly", "matmul", "shift_rank")


def kernel_points() -> list[tuple[str, str, int, bool]]:
    """(op, field key, n, is the large size) of every point of the sweep."""
    pts = []
    for name, sizes in SIZES.items():
        for which, n in enumerate(sizes):
            for op in KERNEL_OPS:
                if op == "shift_rank" and name == "qq_t":
                    continue  # eigenvalues over QQ(t) are unsupported
                if op == "shift_rank" and name == "qq":
                    pts.append((op, "qq", len(QQ_EIGEN_DIAG[which]), which == 1))
                else:
                    pts.append((op, _field_key(name), n, which == 1))
    return pts


def _samples(field):
    """Sample points t0 for QQ(t), or the single None elsewhere."""
    return T_SAMPLES if field.name == "qq_t" else (None,)


def _at(M, t0):
    try:
        return ref.rows_of(M, t0)
    except ZeroDivisionError:
        return None


def exact(seed: int, ctx) -> list[Task]:
    from conjlab import fields, matrix, orbits, pencil

    rng = random.Random(f"exact:{seed}")

    def entry(field):
        if field.name == "qq":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if field.name == "qq_t":
            return fields.RatFunc.make((rng.randint(-9, 9), rng.randint(-9, 9)), (1,))
        return rng.randrange(field.p)

    def rand(field, r, c):
        return matrix.Matrix.from_rows(field, [[entry(field) for _ in range(c)] for _ in range(r)])

    def full_rank_at(M):
        p = ref.modulus(M.field)
        return max(ref.rank(ref.rows_of(M, t0), p) for t0 in _samples(M.field))

    tasks = []
    for name, sizes in SIZES.items():
        f = fields.field_from_name(name)
        p = ref.modulus(f)
        fk = _field_key(name)
        for which, n in enumerate(sizes):
            for _ in range(REPS):
                M, N = rand(f, n, n), rand(f, n, n)
                while True:
                    Minv = rand(f, n, n)
                    if full_rank_at(Minv) == n:
                        break
                tasks += _kernel_tasks(f, p, fk, n, M, N, Minv, matrix, pencil)
                if name != "qq_t":
                    E = M if p else _qq_eigen_input(f, QQ_EIGEN_DIAG[which], rng, matrix)
                    tasks.append(_shift_rank_task(f, p, fk, E, pencil,
                                                  QQ_EIGEN_DIAG[which] if not p else None))
    tasks += _construction_tasks(rng, fields, matrix, orbits)
    return tasks


def _kernel_tasks(f, p, fk, n, M, N, Minv, matrix, pencil):
    lab = lambda op: f"{op}.{fk}.n{n}"

    def check_rank(r):
        want = max(ref.rank(ref.rows_of(M, t0), p) for t0 in _samples(f))
        return _wrong(r == want, f"rank {r}, reference {want}")

    def check_det(d):
        for t0 in _samples(f):
            rows = ref.rows_of(M, t0)
            want = ref.det(rows, p)
            got = ref.scalar(f, d, t0)
            if got != want:
                return ("wrong", f"det {got}, reference {want} at t={t0}")
        full = max(ref.rank(ref.rows_of(M, t0), p) for t0 in _samples(f)) == n
        return _wrong((not f.is_zero(d)) == full, "det != 0 disagrees with rank == n")

    def check_inverse(X):
        for t0 in _samples(f):
            xi, m = _at(X, t0), _at(Minv, t0)
            if xi is not None and m is not None and ref.matmul(xi, m, p) != ref.identity(n):
                return ("wrong", f"inverse(M) @ M != I at t={t0}")
        return None

    def check_char_poly(cp):
        cs = cp.coeffs
        if len(cs) != n + 1 or cs[-1] != f.one:
            return ("wrong", "char_poly is not monic of degree n")
        xs = range(p) if p and p <= n + 1 else (0, 1, -1, 2, 3)
        for t0 in _samples(f):
            rows = ref.rows_of(M, t0)
            c = [ref.scalar(f, x, t0) for x in cs]
            for x in xs:
                got = sum(ci * x**i for i, ci in enumerate(c))
                want = ref.det(ref.shift([[-v for v in r] for r in rows], -x, p), p)
                if _differ(got, want, p):
                    return ("wrong", f"char_poly({x}) != det(xI - M) at t={t0}")
            if _differ(c[n - 1], -sum(rows[i][i] for i in range(n)), p):
                return ("wrong", "char_poly trace coefficient")
        return None

    def check_matmul(C):
        for t0 in _samples(f):
            if ref.rows_of(C, t0) != ref.matmul(ref.rows_of(M, t0), ref.rows_of(N, t0), p):
                return ("wrong", f"M @ N differs from the reference at t={t0}")
        return None

    return [
        Task(lab("rank"), lambda: matrix.rank(M), check_rank, plain),
        Task(lab("det"), lambda: matrix.det(M), check_det, plain),
        Task(lab("inverse"), lambda: matrix.inverse(Minv), check_inverse, plain),
        Task(lab("char_poly"), lambda: matrix.char_poly(M), check_char_poly, plain),
        Task(lab("matmul"), lambda: M @ N, check_matmul, plain),
    ]


def _qq_eigen_input(f, diag, rng, matrix):
    n = len(diag)
    while True:
        g = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if ref.rank(g) == n:
            break
    D = [[Fraction(diag[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return matrix.Matrix.from_rows(f, ref.conjugate(g, D))


def _shift_rank_task(f, p, fk, E, pencil, diag):
    n = E.rows
    rows = ref.rows_of(E)

    def check(res):
        if p:
            want = min([n] + [ref.rank(ref.shift(rows, lam, p), p) for lam in range(p)])
        else:
            want = n - max(diag.count(d) for d in diag)
        if res.rank != want:
            return ("wrong", f"shift rank {res.rank}, reference {want}")
        if res.lam is None:
            return _wrong(want == n, "no eigenvalue reported")
        lam = ref.scalar(f, res.lam)
        return _wrong(ref.rank(ref.shift(rows, lam, p), p) == want,
                      f"lambda {lam} does not attain the shift rank")

    return Task(f"shift_rank.{fk}.n{n}", lambda: pencil.shift_rank(E), check,
                lambda r: [plain(r.lam), r.rank])


def _rank_k_rows(rng, r, c, k):
    while True:
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(r)]
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(c)] for _ in range(k)]
        M = ref.matmul(A, B) if k else [[Fraction(0)] * c for _ in range(r)]
        if ref.rank(M) == k:
            return M


def _skew_rows(rng, n, r):
    """A skew-symmetric n x n matrix of rank r (r even)."""
    J = [[0] * r for _ in range(r)]
    for i in range(0, r, 2):
        J[i][i + 1], J[i + 1][i] = 1, -1
    while True:
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
        At = [list(col) for col in zip(*A)] if r else []
        S = ref.matmul(ref.matmul(A, J), At) if r else [[Fraction(0)] * n for _ in range(n)]
        if ref.rank(S) == r:
            return S


def _construction_tasks(rng, fields, matrix, orbits):
    qq = fields.field_from_name("qq")
    mk = lambda rows: matrix.Matrix.from_rows(qq, rows)
    tasks = []
    for _ in range(REPS):
        for n in (2, 3):
            k = rng.randint(1, n - 1)
            P = _rank_k_rows(rng, 2 * n, 2 * n, k)
            Q = _rank_k_rows(rng, n, n, rng.randint(0, k))

            def check_topleft(g, P=P, Q=Q, n=n):
                C = ref.conjugate(ref.rows_of(g), P)
                return _wrong(C is not None and [r[:n] for r in C[:n]] == Q,
                              "top-left block of g P g^-1 is not Q")

            tasks.append(Task(f"topleft_realization.qq.n{n}",
                              lambda Pm=mk(P), Qm=mk(Q): orbits.topleft_realization(Pm, Qm),
                              check_topleft, plain))
        mats = [_rank_k_rows(rng, 6, 6, 1) for _ in range(2)]

        def check_raise(gs, mats=mats):
            S = None
            for g, M in zip(gs, mats):
                C = ref.conjugate(ref.rows_of(g), M)
                if C is None:
                    return ("wrong", "singular conjugator")
                S = C if S is None else ref.add(S, C)
            r = ref.rank(S)
            return _wrong(len(gs) == len(mats) and 1 < r <= 3, f"sum rank {r} outside (1, 3]")

        tasks.append(Task("raise_sum_rank.qq.n6",
                          lambda ms=[mk(M) for M in mats]: orbits.raise_sum_rank(ms),
                          check_raise, plain))
        for k in (0, 1):
            n, rR = 4, 4
            R = _skew_rows(rng, n, rR)
            Q = _skew_rows(rng, n, rng.choice([r for r in (0, 2, 4) if r <= rR - 2 * k]))
            while True:
                W = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(n)]
                if k == 0 or ref.rank(W) == k:
                    break
            V = [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(n)]

            def check_degen(G, R=R, W=W, Q=Q, V=V, k=k):
                g = ref.rf_rows(G)
                gt = [list(col) for col in zip(*g)]
                limit = lambda rows: [[ref.rf_limit_at_zero(x) for x in r] for r in rows]
                try:
                    Rl = limit(ref.rf_matmul(ref.rf_matmul(g, ref.rf_lift(R)), gt))
                    Wl = limit(ref.rf_matmul(g, ref.rf_lift(W))) if k else V
                except ZeroDivisionError:
                    return ("wrong", "degeneration curve has a pole at t = 0")
                return _wrong(Rl == Q and Wl == V, "degeneration limits miss the target")

            flat = lambda rows: matrix.Matrix(qq, n, k, tuple(x for r in rows for x in r))
            args = (mk(R), flat(W), mk(Q), flat(V))  # W and V may have 0 columns
            tasks.append(Task(f"degeneration_witness.qq.n{n}k{k}",
                              lambda args=args: orbits.degeneration_witness(*args),
                              check_degen, plain))
    return tasks


# ---------------------------------------------------------------------------
# cli: one `python -m conjlab.cli` process per task, cold start included
# ---------------------------------------------------------------------------

# Malformed inputs must exit 2 with a one-line error.  The first two do not
# today (a traceback and exit 1); they stay in, and count as failed.
KNOWN_DEFECTS = (
    ("rank", ["--field", "gf:5"], '{"rows":[["1/0"]]}'),
    ("rank", [], "[1]"),
)


def _cli_call(ctx, argv, stdin_text):
    """Run one verb; returns (exit code, stdout, stderr)."""
    if ctx.get("inprocess"):
        return _cli_inprocess(ctx["cli_module"], argv, stdin_text)
    r = subprocess.run([sys.executable, "-m", "conjlab.cli", *argv], input=stdin_text,
                       capture_output=True, text=True, env=ctx["env"], cwd=ctx["workdir"],
                       timeout=60)
    return r.returncode, r.stdout, r.stderr


def _cli_inprocess(cli, argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()  # what the interpreter does, with exit 1
                code = 1
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _parse_scalar(s: str, p):
    return int(s) % p if p else Fraction(s)


def cli(seed: int, ctx) -> list[Task]:
    rng = random.Random(f"cli:{seed}")
    workdir = ctx["workdir"]
    specs = []  # (label, argv, stdin, checker(code, out) -> None | (kind, why))

    def rand_rows(n, p):
        if p:
            return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]

    def rows_json(rows):
        return json.dumps({"rows": [[str(x) for x in r] for r in rows]})

    def ok_json(code, out):
        if code != 0:
            return None, ("failed" if code == 1 else "wrong", f"exit {code}")
        try:
            return json.loads(out), None
        except json.JSONDecodeError:
            return None, ("wrong", "stdout is not JSON")

    def field_args(p):
        return ["--field", f"gf:{p}" if p else "qq"]

    for _ in range(3):
        p = rng.choice((7, None))
        rows = rand_rows(rng.randint(3, 4), p)

        def chk(code, out, rows=rows, p=p):
            obj, bad = ok_json(code, out)
            return bad or _wrong(obj == {"rank": ref.rank(rows, p)}, f"rank {obj}")
        specs.append(("rank", ["rank", *field_args(p)], rows_json(rows), chk))
    for _ in range(3):
        p = rng.choice((7, None))
        rows = rand_rows(rng.randint(3, 4), p)

        def chk(code, out, rows=rows, p=p):
            obj, bad = ok_json(code, out)
            if bad:
                return bad
            c = [_parse_scalar(s, p) for s in obj["coeffs"]]
            n = len(rows)
            for x in range(n + 1):
                got = sum(ci * x**i for i, ci in enumerate(c))
                want = ref.det(ref.shift([[-v for v in r] for r in rows], -x, p), p)
                if _differ(got, want, p):
                    return ("wrong", f"charpoly({x}) != det(xI - M)")
            return _wrong(len(c) == n + 1, "charpoly degree")
        specs.append(("charpoly", ["charpoly", *field_args(p)], rows_json(rows), chk))

    def triangular(n):
        diag = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        return [[diag[i] if i == j else (Fraction(rng.randint(-2, 2)) if j > i else Fraction(0))
                 for j in range(n)] for i in range(n)], diag

    for _ in range(3):
        rows, diag = triangular(rng.randint(2, 4))

        def chk(code, out, rows=rows, diag=diag):
            obj, bad = ok_json(code, out)
            if bad:
                return bad
            n = len(rows)
            want = [{"lambda": str(lam), "multiplicity": n - ref.rank(ref.shift(rows, lam))}
                    for lam in sorted(set(diag))]
            return _wrong(obj == {"eigenvalues": want}, f"eig {obj}")
        specs.append(("eig", ["eig"], rows_json(rows), chk))
    for _ in range(3):
        rows, diag = triangular(rng.randint(2, 4))

        def chk(code, out, rows=rows, diag=diag):
            obj, bad = ok_json(code, out)
            if bad:
                return bad
            n = len(rows)
            want = min([n] + [ref.rank(ref.shift(rows, lam)) for lam in set(diag)])
            lam = obj["lambda"]
            ok = obj["rank"] == want and lam is not None and \
                ref.rank(ref.shift(rows, Fraction(lam))) == want
            return _wrong(ok, f"tuplerank {obj}, reference {want}")
        specs.append(("tuplerank", ["tuplerank"], rows_json(rows), chk))
    for _ in range(3):
        k = rng.choice((2, 3))
        mats = [rand_rows(3, 3) for _ in range(k)]
        doc = json.dumps({"matrices": [{"rows": m} for m in mats]})

        def chk(code, out, mats=mats):
            obj, bad = ok_json(code, out)
            if bad:
                return bad
            best = min(ref.pencil_rank(mats, mu, 3) for mu in ref.projective_points(3, len(mats)))
            w = [int(s) for s in obj["witness"]]
            ok = obj["rank"] == best and ref.is_projective_point(w, 3) and \
                ref.pencil_rank(mats, w, 3) == best
            return _wrong(ok, f"pencil {obj}, enumeration gives {best}")
        specs.append(("pencil", ["pencil", "--field", "gf:3"], doc, chk))
    for i, op in enumerate(rng.sample(["union", "intersect", "contains", "canon"], 3)):
        ds = [_rand_descriptor(rng) for _ in range(2)]
        paths = []
        for j, d in enumerate(ds):
            path = os.path.join(workdir, f"descriptor{i}{j}.json")
            with open(path, "w") as fh:
                json.dump(d, fh)
            paths.append(path)

        def chk(code, out, ds=ds, op=op):
            obj, bad = ok_json(code, out)
            return bad or _wrong(obj == _descriptor_ref(op, *ds), f"descriptor {op} {obj}")
        specs.append(("descriptor", ["descriptor", op, *paths], "", chk))
    for _ in range(3):
        chain = {"type": "A", "n1": rng.randint(1, 3),
                 "prefix": [_rand_sig(rng) for _ in range(rng.randint(0, 3))],
                 "repeat": [_rand_sig(rng) for _ in range(rng.randint(1, 2))]}
        char = rng.choice((0, 2, 3))

        def chk(code, out, chain=chain):
            obj, bad = ok_json(code, out)
            return bad or _chain_ref_check(chain, obj)
        specs.append(("chain", ["chain", "classify", "--char", str(char)], json.dumps(chain), chk))
    for _ in range(2):
        graph = _rand_graph(rng)

        def chk(code, out, graph=graph):
            obj, bad = ok_json(code, out)
            return bad or _graph_ref_check(graph, obj)
        specs.append(("graph", ["graph", "reduce"], json.dumps(graph), chk))
    n = rng.randint(2, 5)

    def chk_verify(code, out, n=n):
        obj, bad = ok_json(code, out)
        return bad or _wrong(obj["lemma"] == "char2b" and obj["verdict"] == "pass"
                             and obj["params"]["n"] == n, f"verify {obj}")
    specs.append(("verify", ["verify", "char2b", "--n", str(n)], "", chk_verify))

    malformed = [
        ("malformed", ["rank"], '{"rows": [[1, %d]' % rng.randint(0, 9)),        # bad JSON
        ("malformed", ["rank"], json.dumps({"cols": [[rng.randint(0, 9)]]})),   # no rows
        ("malformed", ["rank", "--field", "gf:4"], rows_json(rand_rows(2, 5))),  # bad field
        ("malformed", ["charpoly"], json.dumps({"rows": [[1, 2], [rng.randint(0, 9)]]})),
    ] + [("known_defect", [verb, *args], doc) for verb, args, doc in KNOWN_DEFECTS]

    def chk_malformed(code, out, err=None):
        if code == 2:
            return None
        return ("failed" if code == 1 else "wrong", f"exit {code}, expected 2")
    specs += [(label, argv, doc, chk_malformed) for label, argv, doc in malformed]

    rng.shuffle(specs)
    ctx["extras"] = {"malformed_share": len(malformed) / len(specs),
                     "known_defect_share": len(KNOWN_DEFECTS) / len(specs)}
    tasks = []
    for label, argv, doc, chk in specs:
        tasks.append(Task(label, lambda a=argv, d=doc: _cli_call(ctx, a, d),
                          lambda r, chk=chk: chk(r[0], r[1]),
                          lambda r: {"exit": r[0], "stdout": _strip_ms(r[1])}))
    return tasks


_MS_FIELD = re.compile(r'("ms":\s*)-?\d+(\.\d+)?([eE][-+]?\d+)?')


def _strip_ms(stdout: str) -> str:
    """Blank the wall-clock `ms` field that verify reports carry.  The rest of
    stdout stays byte for byte, so a reformatted or reordered output changes
    the digest."""
    return _MS_FIELD.sub(r"\1null", stdout)


def _rand_descriptor(rng):
    k = rng.randint(-1, 2)
    lams = rng.sample(["0", "1", "-1", "1/2", "3", "-2/3"], rng.randint(0, 3))
    return {"k": k, "exceptional": [{"lambda": l, "bound": rng.randint(0, 4)} for l in lams]}


def _descriptor_ref(op, a, b):
    def norm(d):
        ex = {}
        for e in d["exceptional"]:
            lam = Fraction(e["lambda"])
            ex[lam] = max(ex.get(lam, e["bound"]), e["bound"])
        return d["k"], ex

    def out(k, ex):
        kept = sorted((l, v) for l, v in ex.items() if v > k)
        return {"k": k, "exceptional": [{"lambda": str(l), "bound": v} for l, v in kept]}

    (ka, ea), (kb, eb) = norm(a), norm(b)
    at = lambda k, ex, l: ex[l] if l in ex and ex[l] > k else k
    lams = set(ea) | set(eb)
    if op == "canon":
        return out(ka, ea)
    if op == "contains":
        return {"contains": ka >= kb and all(at(ka, ea, l) >= v for l, v in eb.items() if v > kb)}
    pick = max if op == "union" else min
    k = pick(ka, kb)
    return out(k, {l: pick(at(ka, ea, l), at(kb, eb, l)) for l in lams})


def _rand_sig(rng):
    while True:
        s = [rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1)]
        if s[0] + s[1] >= 1:
            return s


def _chain_ref_check(chain, obj):
    def count(i, pred):
        if any(pred(s[i]) for s in chain["repeat"]):
            return "inf"
        return sum(1 for s in chain["prefix"] if pred(s[i]))
    alpha, beta, gamma = count(0, lambda v: v > 1), count(1, lambda v: v > 0), count(2, lambda v: v > 0)
    if alpha != "inf" and beta != "inf":
        family = "1"
    elif gamma == "inf":
        family = "2"
    else:
        family = "3" if beta == "inf" else "4"
    ok = (obj["alpha"], obj["beta"], obj["gamma"]) == (alpha, beta, gamma) and \
        obj["case"].startswith(family)
    return _wrong(ok, f"chain classify {obj}, expected case {family} {alpha} {beta} {gamma}")


def _rand_graph(rng):
    verts = [f"v{i}" for i in range(rng.randint(2, 6))]
    edges = [[rng.choice(verts), rng.choice(verts)] for _ in range(rng.randint(1, 7))]
    return {"vertices": verts, "edges": edges}


def _graph_ref_check(graph, obj):
    verts = set(graph["vertices"])
    edges = [tuple(sorted(e)) for e in graph["edges"]]
    adj = {v: set() for v in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = [], set()
    for v in sorted(verts):
        if v not in seen:
            comp, stack = set(), [v]
            while stack:
                u = stack.pop()
                if u not in comp:
                    comp.add(u)
                    stack.extend(adj[u])
            seen |= comp
            comps.append(comp)
    looped = {a for a, b in edges if a == b}
    reducible = all(c & looped for c in comps)
    if obj["reducible"] != reducible:
        return ("wrong", f"graph reducible {obj['reducible']}, components say {reducible}")
    if not reducible:
        ob = set(obj["obstruction"])
        return _wrong(ob in comps and not ob & looped, "obstruction is not a loop-free component")
    for step in obj["certificate"]:  # replay the three rules
        rule = step["rule"]
        if rule == "remove_edge":
            e = tuple(sorted(step["edge"]))
            if e not in edges:
                return ("wrong", f"certificate removes a missing edge {e}")
            edges.remove(e)
        elif rule == "remove_looped_vertex":
            v = step["vertex"]
            if v not in verts or (v, v) not in edges:
                return ("wrong", f"certificate removes {v} without a loop")
            verts.discard(v)
            edges = [e for e in edges if v not in e]
        else:
            e, v = tuple(sorted(step["edge"])), step["looped"]
            if e not in edges or v not in e or e[0] == e[1] or (v, v) not in edges:
                return ("wrong", f"certificate migrates {e} illegally")
            w = e[1] if e[0] == v else e[0]
            edges.remove(e)
            edges.append((w, w))
    return _wrong(not verts and not edges, "certificate does not empty the graph")


TASK_LISTS = {"suite": suite, "conjugates": conjugates, "exact": exact, "cli": cli}
