"""Classical groups of types A/B/C/D, standard diagonal embeddings, dual
projections, and eventually-periodic chain classification.

Forms are the split ones with (anti-)identity blocks:

  type A: SL_n                      det g = 1,     algebra tr = 0
  type B: O_{2n+1} for J = [[0,0,I],[0,1,0],[I,0,0]]
  type C: Sp_{2n}  for J = [[0,I],[-I,0]]
  type D: O_{2n}   for J = [[0,I],[I,0]]

A dual projection is encoded as a list of signed entry moves
(sign, (src_row, src_col), (dst_row, dst_col)); the same instruction list
drives the matrix-level projection and the group embedding, whose block
layout it states once.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import QQT, FieldError, Record, _set, integral, is_prime
from .matrix import Matrix, MatrixError, det, inverse, random_invertible, random_matrix


class ChainError(ValueError):
    pass


class GroupType(Record):
    __slots__ = ("letter", "n")

    def __init__(self, letter, n):
        if letter not in "ABCD" or n < 1:
            raise ChainError(f"bad group type {letter}{n}")
        _set(self, "letter", letter)
        _set(self, "n", n)

    @property
    def ambient(self) -> int:
        if self.letter == "A":
            return self.n
        if self.letter == "B":
            return 2 * self.n + 1
        return 2 * self.n


@lru_cache(maxsize=32)
def form_matrix(field, gtype: GroupType) -> Matrix:
    n = gtype.n
    if gtype.letter == "A":
        raise ChainError("type A has no bilinear form")
    if gtype.letter == "B":
        N = 2 * n + 1
        ent = [[field.zero] * N for _ in range(N)]
        for i in range(n):
            ent[i][n + 1 + i] = field.one
            ent[n + 1 + i][i] = field.one
        ent[n][n] = field.one
        return Matrix.from_rows(field, ent)
    N = 2 * n
    ent = [[field.zero] * N for _ in range(N)]
    for i in range(n):
        ent[i][n + i] = field.one
        ent[n + i][i] = field.neg(field.one) if gtype.letter == "C" else field.one
    return Matrix.from_rows(field, ent)


def form_inverse(g: Matrix, J: Matrix) -> Matrix:
    """g^-1 for g in the group of the form J (g J g^T = J), with no
    elimination: J is a signed permutation (form_matrix and h_form_gram
    build no other), so J^-1 = J^T and g^-1 = J g^T J^T."""
    return J @ g.transpose() @ J.transpose()


def group_inverse(gtype: GroupType, g: Matrix) -> Matrix:
    """g^-1 for g in the group: by elimination in type A, by form_inverse
    in types B, C and D."""
    if gtype.letter == "A":
        return inverse(g)
    return form_inverse(g, form_matrix(g.field, gtype))


def algebra_membership(gtype: GroupType, M: Matrix) -> bool:
    if M.rows != gtype.ambient or not M.is_square:
        raise MatrixError(f"expected a {gtype.ambient}x{gtype.ambient} matrix")
    if gtype.letter == "A":
        return M.field.is_zero(M.trace())
    J = form_matrix(M.field, gtype)
    return (M @ J + J @ M.transpose()).is_zero()


def group_membership(gtype: GroupType, g: Matrix) -> bool:
    if g.rows != gtype.ambient or not g.is_square:
        raise MatrixError(f"expected a {gtype.ambient}x{gtype.ambient} matrix")
    if gtype.letter == "A":
        return det(g) == g.field.one
    J = form_matrix(g.field, gtype)
    return g @ J @ g.transpose() == J


def algebra_project(gtype: GroupType, M: Matrix) -> Matrix:
    """Project an arbitrary ambient matrix onto the Lie algebra (char != 2)."""
    f = M.field
    if gtype.letter == "A":
        n = M.rows
        tr = M.trace()
        shift = f.div(tr, f.coerce(n)) if f.characteristic == 0 or n % f.characteristic else None
        if shift is None:
            raise FieldError("cannot project onto sl_n when char divides n")
        return M - Matrix.scalar(f, n, shift)
    if f.characteristic == 2:
        raise FieldError("algebra projection needs characteristic != 2")
    J = form_matrix(f, gtype)
    half = f.inv(f.coerce(2))
    return (M - J @ M.transpose() @ J.transpose()).scale(half)


def random_algebra_element(gtype: GroupType, field, rng) -> Matrix:
    return algebra_project(gtype, random_matrix(gtype.ambient, gtype.ambient, field, rng))


def random_group_element(gtype: GroupType, field, rng, word_length: int) -> Matrix:
    """Product of word_length generators drawn from the standard families."""
    if isinstance(field, QQT):
        raise FieldError("group sampling is supported over finite fields and QQ")
    N = gtype.ambient
    g = Matrix.identity(field, N)
    for _ in range(word_length):
        g = g @ _random_generator(gtype, field, rng)
    assert group_membership(gtype, g)
    return g


def random_sym_or_skew(field, n, rng, skew: bool) -> Matrix:
    ent = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = field.random(rng)
            if i == j:
                ent[i][j] = field.zero if skew else v
            else:
                ent[i][j] = v
                ent[j][i] = field.neg(v) if skew else v
    return Matrix.from_rows(field, ent)


def _random_generator(gtype: GroupType, field, rng) -> Matrix:
    n = gtype.n
    if gtype.letter == "A":
        i, j = rng.randrange(n), rng.randrange(n)
        if n == 1:
            return Matrix.identity(field, 1)
        while j == i:
            j = rng.randrange(n)
        return Matrix.identity(field, n) + Matrix.basis(field, n, i, j).scale(field.random(rng))
    if gtype.letter in "CD":
        skew = gtype.letter == "D"
        kind = rng.randrange(4)
        I = Matrix.identity(field, n)
        Z = Matrix.zeros(field, n)
        if kind == 0:
            return Matrix.from_blocks([[I, random_sym_or_skew(field, n, rng, skew)], [Z, I]])
        if kind == 1:
            return Matrix.from_blocks([[I, Z], [random_sym_or_skew(field, n, rng, skew), I]])
        if kind == 2:
            h = random_invertible(n, field, rng)
            return Matrix.diag_blocks([h, inverse(h).transpose()])
        return form_matrix(field, gtype)
    # type B over char != 2
    if field.characteristic == 2:
        raise FieldError("type B generators need characteristic != 2")
    kind = rng.randrange(4)
    I = Matrix.identity(field, n)
    if kind == 0 or kind == 1:
        v = random_matrix(n, 1, field, rng)
        B0 = random_sym_or_skew(field, n, rng, skew=True)
        half = field.inv(field.coerce(2))
        B = B0 - (v @ v.transpose()).scale(half)
        one = Matrix.identity(field, 1)
        U = Matrix.from_blocks([
            [I, v, B],
            [Matrix.zeros(field, 1, n), one, (-v.transpose())],
            [Matrix.zeros(field, n), Matrix.zeros(field, n, 1), I],
        ])
        if kind == 1:
            J = form_matrix(field, gtype)
            U = J @ U @ J
        return U
    if kind == 2:
        h = random_invertible(n, field, rng)
        return Matrix.diag_blocks([h, Matrix.identity(field, 1), inverse(h).transpose()])
    return form_matrix(field, gtype)


# ---------------------------------------------------------------------------
# Chains of diagonal embeddings
# ---------------------------------------------------------------------------

class Signature(Record):
    __slots__ = ("l", "r", "z")

    def __init__(self, l, r, z):
        if l < 0 or r < 0 or z < 0 or l + r < 1:
            raise ChainError(f"bad signature {(l, r, z)}")
        super().__init__(l, r, z)

    def swapped(self) -> "Signature":
        return Signature(self.r, self.l, self.z)


class ChainSpec(Record):
    __slots__ = ("letter", "n1", "prefix", "repeat")

    @staticmethod
    def make(letter, n1, prefix, repeat) -> "ChainSpec":
        prefix = tuple(Signature(*s) if not isinstance(s, Signature) else s for s in prefix)
        repeat = tuple(Signature(*s) if not isinstance(s, Signature) else s for s in repeat)
        if letter not in "ABCD":
            raise ChainError(f"bad chain type {letter!r}")
        if not repeat:
            raise ChainError("chains are eventually periodic: repeat block must be nonempty")
        if n1 < 1:
            raise ChainError("n1 must be positive")
        for s in prefix + repeat:
            if letter != "A" and s.r != 0:
                raise ChainError("types B/C/D have r = 0")
            if letter == "B" and (s.l % 2 == 0 or s.z % 2 == 1):
                raise ChainError("type B signatures need l odd and z even")
        return ChainSpec(letter, n1, prefix, repeat)

    def signature_at(self, i: int) -> Signature:
        """Signature of the embedding from level i to level i+1 (1-based)."""
        if i < 1:
            raise ChainError("levels are 1-based")
        idx = i - 1
        if idx < len(self.prefix):
            return self.prefix[idx]
        return self.repeat[(idx - len(self.prefix)) % len(self.repeat)]

    def n_at(self, level: int, cap: int | None = None) -> int:
        """The rank n at a level.  No map shrinks n, and one keeps it exactly
        when l + r = 1 and z = 0, so a repeat block of such maps fixes n past
        the prefix and any other grows n with every period.  The walk skips
        a fixed repeat and, given ``cap``, stops at the first n above cap:
        that result only bounds the n of the level from below."""
        n = self.n1
        if all(s.l + s.r == 1 and s.z == 0 for s in self.repeat):
            level = min(level, len(self.prefix) + 1)
        for i in range(1, level):
            if cap is not None and n > cap:
                break
            s = self.signature_at(i)
            if self.letter == "A":
                n = (s.l + s.r) * n + s.z
            elif self.letter in "CD":
                n = s.l * n + s.z
            else:
                n = (s.l * (2 * n + 1) + s.z - 1) // 2
        return n

    def group_at(self, level: int) -> GroupType:
        return GroupType(self.letter, self.n_at(level))

    def ambient_at(self, level: int) -> int:
        return self.group_at(level).ambient

    def group_for(self, level: int, M: Matrix) -> GroupType:
        """The group at a level, after checking that M is square of the
        level's ambient size.  The size walk stops once it passes the size
        of M, so any level answers at once."""
        gt = GroupType(self.letter, self.n_at(level, cap=M.rows))
        if gt.ambient != M.rows or not M.is_square:
            N = gt.ambient
            want = f"{N}x{N} matrices" if N <= M.rows else f"matrices larger than {M.rows}x{M.rows}"
            raise MatrixError(f"level {level} has {want}, not {M.rows}x{M.cols}")
        return gt


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def _h_sigma(n: int, l: int) -> list[int]:
    """Index map from H-form coordinates to standard odd-form coordinates; the
    middle block J_l of the H-form needs l odd."""
    if l < 1 or l % 2 == 0:
        raise ChainError(f"the H-form needs an odd l >= 1, got {l}")
    k = (l - 1) // 2
    ln = l * n
    L = l * (2 * n + 1)
    mprime = ln + k
    sigma = [0] * L
    for i in range(ln):
        sigma[i] = i
    for j in range(k):
        sigma[ln + j] = ln + j
    sigma[ln + k] = mprime
    for j in range(k):
        sigma[ln + k + 1 + j] = mprime + 1 + ln + (k - 1 - j)
    for i in range(ln):
        sigma[ln + 2 * k + 1 + i] = mprime + 1 + i
    return sigma


@lru_cache(maxsize=32)
def h_form_gram(field, n: int, l: int) -> Matrix:
    """The H-form gram matrix [[0,0,I_ln],[0,J_l,0],[I_ln,0,0]] for odd l: the
    odd form of rank (L - 1)/2, L = l(2n + 1), read in H-form coordinates."""
    sigma = _h_sigma(n, l)
    return form_matrix(field, GroupType("B", (l * (2 * n + 1) - 1) // 2)).submatrix(sigma, sigma)


def h_group_membership(field, n: int, l: int, g: Matrix) -> bool:
    H = h_form_gram(field, n, l)
    return g @ H @ g.transpose() == H


def embed_group(chain: ChainSpec, i: int, g: Matrix) -> Matrix:
    """Embed a level-i group element into the level-(i+1) group; verified.

    The dual projection is the transpose of the embedding's differential,
    so the embedding is read off the projection's moves: a move
    (sign, (sr, sc), (dr, dc)) puts entry (dr, dc) of g at (sr, sc).  The
    sign -1 marks only type A's r blocks, which carry the contragredient
    g^{-T} with differential -X^T; those moves read from inverse(g).  The
    positions no move writes hold the identity on the z coordinates.
    """
    gt = chain.group_for(i, g)
    if not group_membership(gt, g):
        raise ChainError("element is not in the level-i group")
    f = g.field
    N = chain.ambient_at(i + 1)
    source = {1: g, -1: inverse(g) if chain.signature_at(i).r else None}
    ent = list(Matrix.identity(f, N).entries)
    for sg, (sr, sc), (dr, dc) in dual_projection_instructions(chain, i):
        ent[sr * N + sc] = source[sg].entry(dr, dc)
    out = Matrix(f, N, N, tuple(ent))
    assert group_membership(chain.group_at(i + 1), out)
    return out


# ---------------------------------------------------------------------------
# Dual projections as signed entry moves
# ---------------------------------------------------------------------------

def dual_projection_instructions(chain: ChainSpec, i: int):
    """Signed entry moves realizing the level-(i+1) -> level-i dual projection."""
    s = chain.signature_at(i)
    m = chain.n_at(i)
    if chain.letter == "A":
        out = []
        for a in range(m):
            for b in range(m):
                for kb in range(s.l):
                    out.append((1, (kb * m + a, kb * m + b), (a, b)))
                for rb in range(s.r):
                    off = (s.l + rb) * m
                    out.append((-1, (off + b, off + a), (a, b)))
        return tuple(out)
    if chain.letter in "CD":
        half = s.l * m + s.z
        out = []
        for a in range(m):
            for b in range(m):
                for kb in range(s.l):
                    ra, cb = kb * m + a, kb * m + b
                    out.append((1, (ra, cb), (a, b)))
                    out.append((1, (ra, half + cb), (a, m + b)))
                    out.append((1, (half + ra, cb), (m + a, b)))
                    out.append((1, (half + ra, half + cb), (m + a, m + b)))
        return tuple(out)
    # type B: optionally compose the (1, z) slice with the H-form block sums
    n = m
    if s.l == 1:
        zh = s.z // 2
        return tuple(
            (1, (_psi(a, n, zh), _psi(b, n, zh)), (a, b))
            for a in range(2 * n + 1)
            for b in range(2 * n + 1)
        )
    l = s.l
    inner = _h_projection_instructions(n, l)
    if s.z == 0:
        return inner
    n_mid = (l * (2 * n + 1) - 1) // 2
    zh = s.z // 2
    return tuple(
        (sg, (_psi(sr, n_mid, zh), _psi(sc, n_mid, zh)), dst)
        for sg, (sr, sc), dst in inner
    )


def _psi(i: int, n: int, zh: int) -> int:
    """Coordinate inclusion of the odd form of rank n into rank n + zh."""
    return i if i < n else i + zh


def _h_projection_instructions(n: int, l: int):
    """Block sums for the H-form projection of signature (l, 0), precomposed
    with the permutation back from the standard odd form."""
    sigma = _h_sigma(n, l)
    ln = l * n
    out = []

    def src(hr, hc):
        return (sigma[hr], sigma[hc])

    for a in range(l):
        anti = l - 1 - a
        for r in range(n):
            for c in range(n):
                out.append((1, src(a * n + r, a * n + c), (r, c)))
                out.append((1, src(a * n + r, ln + l + anti * n + c), (r, n + 1 + c)))
                out.append((1, src(ln + l + a * n + r, anti * n + c), (n + 1 + r, c)))
                out.append((1, src(ln + l + a * n + r, ln + l + a * n + c), (n + 1 + r, n + 1 + c)))
            out.append((1, src(a * n + r, ln + a), (r, n)))
            out.append((1, src(ln + l + a * n + r, ln + anti), (n + 1 + r, n)))
        for c in range(n):
            out.append((1, src(ln + a, a * n + c), (n, c)))
            out.append((1, src(ln + a, ln + l + anti * n + c), (n, n + 1 + c)))
        out.append((1, src(ln + a, ln + a), (n, n)))
    return tuple(out)


def project_dual(chain: ChainSpec, i: int, M: Matrix) -> Matrix:
    """Apply the dual projection to a level-(i+1) representative."""
    chain.group_for(i + 1, M)
    N_out = chain.ambient_at(i)
    f = M.field
    ent = [[f.zero] * N_out for _ in range(N_out)]
    for sg, (sr, sc), (dr, dc) in dual_projection_instructions(chain, i):
        v = M.entry(sr, sc)
        ent[dr][dc] = f.add(ent[dr][dc], v if sg == 1 else f.neg(v))
    return Matrix.from_rows(f, ent)


# ---------------------------------------------------------------------------
# Truncated inverse-limit points
# ---------------------------------------------------------------------------

class TruncatedPoint(Record):
    __slots__ = ("chain", "reps")  # reps: the representatives at levels 1..len(reps)

    @staticmethod
    def make(chain, reps) -> "TruncatedPoint":
        reps = tuple(reps)
        if not reps:
            raise ChainError("a truncated point needs at least one level")
        for lvl, rep in enumerate(reps, start=1):
            if rep.rows != chain.ambient_at(lvl) or not rep.is_square:
                raise MatrixError(f"level {lvl} representative has the wrong size")
            if rep.field != reps[0].field:
                raise ChainError(f"level {lvl} representative is over {rep.field.name}, "
                                 f"level 1 over {reps[0].field.name}")
        return TruncatedPoint(chain, reps)


def _is_scalar(M: Matrix) -> bool:
    f = M.field
    c = M.entry(0, 0)
    return M == Matrix.scalar(f, M.rows, c)


def check_point(point: TruncatedPoint) -> bool:
    """Consecutive projection compatibility; type A holds modulo scalars."""
    chain = point.chain
    if chain.letter != "A":
        for lvl, rep in enumerate(point.reps, start=1):
            if not algebra_membership(chain.group_at(lvl), rep):
                return False
    for i in range(1, len(point.reps)):
        proj = project_dual(chain, i, point.reps[i])
        diff = proj - point.reps[i - 1]
        if chain.letter == "A":
            if not _is_scalar(diff):
                return False
        elif not diff.is_zero():
            return False
    return True


def trace_invariant(point: TruncatedPoint):
    """Common trace of high-level representatives when the chain preserves it;
    zero in every other case."""
    chain = point.chain
    if chain.letter != "A":
        raise ChainError("the trace invariant applies to type A chains")
    f = point.reps[0].field
    char = f.characteristic
    if char == 0:
        return f.zero

    def good_tail(i0: int) -> bool:
        # signatures from i0 on: z = 0 and (char == 2 or r = 0); sizes divisible;
        # checking one full repeat cycle past the prefix covers all later levels
        end = max(len(chain.prefix) + 1, i0) + len(chain.repeat) - 1
        for i in range(i0, end + 1):
            s = chain.signature_at(i)
            if s.z != 0 or (char != 2 and s.r != 0):
                return False
        return chain.n_at(i0) % char == 0

    horizon = len(chain.prefix) + 2 * len(chain.repeat) + 1
    start = next((i0 for i0 in range(1, horizon + 1) if good_tail(i0)), None)
    if start is None:
        return f.zero
    available = [lvl for lvl in range(start, len(point.reps) + 1)]
    if not available:
        raise ChainError("point truncation too short to read the trace")
    traces = [point.reps[lvl - 1].trace() for lvl in available]
    if any(t != traces[0] for t in traces):
        raise ChainError("incompatible point: trace differs across high levels")
    return traces[0]


# ---------------------------------------------------------------------------
# Case classification of type A chains
# ---------------------------------------------------------------------------

class CaseTag(Record):
    __slots__ = ("tag", "alpha", "beta", "gamma")  # alpha, beta, gamma: an int or None for infinity


def _count(chain: ChainSpec, pred):
    fin = sum(1 for s in chain.prefix if pred(s))
    if any(pred(s) for s in chain.repeat):
        return None
    return fin


def _eventually_divisible(chain: ChainSpec, char: int) -> bool:
    """Whether char | n_i for all large i; valid when z_i = 0 eventually."""
    if char == 0:
        return False
    horizon = len(chain.prefix) + 2 * len(chain.repeat) + 1
    for lvl in range(1, horizon + 1):
        if chain.n_at(lvl) % char == 0:
            # once divisible it stays divisible: the tail has z = 0
            return True
    cycle = 1
    for s in chain.repeat:
        cycle *= s.l + s.r
    return cycle % char == 0


def classify_case(chain: ChainSpec, char: int) -> CaseTag:
    if chain.letter != "A":
        raise ChainError("case classification applies to type A chains")
    # the bound of GF keeps the trial division of is_prime short
    if not (char == 0 or (char < 2**31 and is_prime(char))):
        raise ChainError(f"char must be 0 or a prime below 2^31, got {char}")
    alpha = _count(chain, lambda s: s.l > 1)
    beta = _count(chain, lambda s: s.r > 0)
    gamma = _count(chain, lambda s: s.z > 0)
    if alpha is not None and beta is not None:
        tag = "1"
    elif gamma is None:
        tag = "2"
    elif beta is None:
        div = _eventually_divisible(chain, 2)
        tag = "3b" if (char == 2 and div) else "3a"
    else:
        tag = "4b" if _eventually_divisible(chain, char) else "4a"
    return CaseTag(tag, alpha, beta, gamma)


def normalize_signatures(chain: ChainSpec) -> ChainSpec:
    """Equivalent chain with l_i >= r_i, via the transpose-inverse flips.

    Choosing the flip parities recursively as k_{i+1} = k_i xor [l_i < r_i]
    turns the signature update into a per-level swap exactly where l < r.
    """
    if chain.letter != "A":
        return chain
    fix = lambda s: s.swapped() if s.l < s.r else s
    return ChainSpec.make(chain.letter, chain.n1,
                          [fix(s) for s in chain.prefix],
                          [fix(s) for s in chain.repeat])


def chain_to_json(chain: ChainSpec) -> dict:
    return {
        "type": chain.letter,
        "n1": chain.n1,
        "prefix": [[s.l, s.r, s.z] for s in chain.prefix],
        "repeat": [[s.l, s.r, s.z] for s in chain.repeat],
    }


def chain_from_json(obj) -> ChainSpec:
    """The chain of a JSON object with a string "type", an integer "n1" and
    arrays "prefix" (optional) and "repeat" of [l, r, z] integer triples."""
    if not isinstance(obj, dict):
        raise ChainError("chain JSON must be an object")
    letter, n1 = obj.get("type"), integral(obj.get("n1"))
    blocks = obj.get("prefix", []), obj.get("repeat")
    if not isinstance(letter, str) or n1 is None:
        raise ChainError("chain JSON needs 'type' as a string and 'n1' as an integer")
    if not all(isinstance(b, list) and all(_is_triple(s) for s in b) for b in blocks):
        raise ChainError("chain JSON needs 'prefix' and 'repeat' as arrays of integer "
                         "triples [l, r, z]")
    prefix, repeat = ([tuple(integral(x) for x in s) for s in b] for b in blocks)
    return ChainSpec.make(letter, n1, prefix, repeat)


def _is_triple(s) -> bool:
    return isinstance(s, list) and len(s) == 3 and all(
        isinstance(x, (int, float)) and integral(x) is not None for x in s)
