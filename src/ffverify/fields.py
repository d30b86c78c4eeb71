"""Deterministic finite field towers F_p < F_q < F_{q^2} < F_{q^4}.

Field models are reproducible without external tables: every level is
F_p[x]/(f) where f is the lexicographically least monic irreducible
polynomial of the right degree (coefficients compared low-degree-first).
An element is the integer encoding sum(c_i * p^i) of its coefficient
vector over F_p, low degree first.  Encodings are the interface of this
module: Level computes on them through its log and Zech tables, the
tower embeds F_q in F_{q^2} through a table, and the encoding order is
the total order used everywhere a "least" or "sorted" choice is needed,
such as the root of the modulus of F_q that defines that embedding.
The Artin-Schreier extension K encodes its elements the same way, so
that the encodings below q^2 are F_{q^2} itself.  Coefficient tuples
stay inside Level and varieties.count_points_naive.
"""

from __future__ import annotations

from functools import lru_cache


class FieldError(ValueError):
    """Invalid field construction or element usage."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(p: int, e: int, bound: int) -> int:
    """q = p^e for a prime p and e >= 1, if q <= bound.  p^e >= 2^e, so a
    large e is rejected before the power is built, and q is bounded
    before the trial division of p."""
    if e < 1:
        raise FieldError("exponent must be positive")
    if p > 1 and (e >= bound.bit_length() or p ** e > bound):
        raise FieldError(f"q = {p}^{e} exceeds the bound {bound}")
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    return p ** e


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Dense polynomials over F_p, coefficients low degree first.

def _trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def poly_mul(a, b, p):
    """The product, each coefficient summed over the integers and
    reduced mod p once."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def poly_mod(a, f, p):
    """Remainder of a modulo the monic polynomial f.  A coefficient is
    reduced mod p once: when it leads, or at the end."""
    a = list(a)
    d = len(f) - 1
    while len(a) > d:
        lead = a.pop() % p
        if lead:
            top = len(a) - d
            for i in range(d):
                a[top + i] -= lead * f[i]
    return _trim([c % p for c in a])


def poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = tuple(c * inv % p for c in b)
        a, b = b, poly_mod(a, bm, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def poly_powmod(a, n, f, p):
    return power(lambda x, y: poly_mod(poly_mul(x, y, p), f, p), (1,),
                 poly_mod(a, f, p), n)


def _is_irreducible(f, p):
    d = len(f) - 1
    if d == 1:
        return True
    x = (0, 1)
    if poly_powmod(x, p ** d, f, p) != poly_mod(x, f, p):
        return False
    for t in prime_factors(d):
        g = poly_powmod(x, p ** (d // t), f, p)
        if len(poly_gcd(poly_sub(g, x, p), f, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def least_irreducible(p: int, d: int):
    """Lex-least monic irreducible of degree d over F_p.

    Candidates are ordered by the base-p integer encoding of the
    low-degree coefficient vector (c_0, ..., c_{d-1}).  A process-wide
    cache is right: the result is an immutable tuple fixed by (p, d),
    and each Level of that degree, in any tower or the blind scan's
    model, would otherwise repeat the search.  A candidate of degree
    d > 1 with a root in F_p has a linear factor, so it is skipped
    before the Rabin test; the least irreducible is the same.
    """
    for k in range(p ** d):
        f = tuple(_digits(k, p, d)) + (1,)
        if d > 1 and any(sum(c * a ** i for i, c in enumerate(f)) % p == 0
                         for a in range(p)):
            continue
        if _is_irreducible(f, p):
            return f
    raise ArithmeticError(f"no irreducible polynomial of degree {d} over F_{p}")


# ---------------------------------------------------------------------------
# The one square-and-multiply, the one base conversion and the one
# Gauss-Jordan elimination of the package.

def power(mul, acc, a, n: int):
    """acc * a^n for n >= 0 by square and multiply: n.bit_length() - 1
    + popcount(n) calls of mul, as the square after the top bit is skipped."""
    while n:
        if n & 1:
            acc = mul(acc, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return acc


def _digits(k: int, base: int, n: int) -> list[int]:
    """The n lowest base-`base` digits of k, least significant first."""
    out = []
    for _ in range(n):
        k, r = divmod(k, base)
        out.append(r)
    return out


def _undigits(ds, base: int) -> int:
    """The integer with base-`base` digits ds, least significant first."""
    k = 0
    for d in reversed(ds):
        k = k * base + d
    return k


def row_reduce(rows, ncols, inverse, reduce):
    """Gauss-Jordan elimination in place on the first ncols columns.

    Later columns (right-hand sides) are carried along.  Entries support
    + - * and a zero entry is falsy; inverse(a) inverts a nonzero entry
    and reduce(a) returns its canonical form (a % p over F_p, a itself
    over Q).  Returns the pivot columns: row r of the result has a 1 in
    column pivots[r], and the rows past len(pivots) are zero in the
    first ncols columns.
    """
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        sel = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = inverse(rows[top][col])
        pivot = rows[top] = [reduce(v * inv) for v in rows[top]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != top:
                rows[r] = [reduce(v - f * w) for v, w in zip(row, pivot)]
        pivots.append(col)
    return pivots


def reduce_mod_p(p: int, cols, m: int):
    """One Gauss-Jordan reduction of the m x n matrix A with columns cols
    over F_p, kept for solve_reduced so that every right-hand side
    reuses it.

    Returns (ops, pivots).  ops[i] is column i of the m x m matrix T of
    row operations, T A in reduced form: it is read off the identity
    columns that row_reduce carries along.  pivots are the pivot columns.
    """
    n = len(cols)
    rows = [[c[i] % p for c in cols] + [int(i == j) for j in range(m)]
            for i in range(m)]
    pivots = row_reduce(rows, n, lambda a: pow(a, p - 2, p), lambda a: a % p)
    return [[row[n + i] for row in rows] for i in range(m)], pivots


def solve_reduced(p: int, reduction, rhs, n: int) -> list[int] | None:
    """The solution x in F_p^n of A x = rhs with every free variable 0,
    for the reduction of A by reduce_mod_p; None if the system is
    inconsistent."""
    ops, pivots = reduction
    b = [0] * len(ops)
    for op, bi in zip(ops, rhs):  # b = T rhs, over the nonzero entries
        if bi % p:
            b = [x + bi * t for x, t in zip(b, op)]
    if any(x % p for x in b[len(pivots):]):
        return None
    x = [0] * n
    for bi, col in zip(b, pivots):
        x[col] = bi % p
    return x


# ---------------------------------------------------------------------------
# A single level of the tower.

class Level:
    """F_p[x]/(modulus), elements are coefficient tuples of fixed length;
    their arithmetic is that of the poly_* kernels."""

    def __init__(self, p: int, degree: int):
        self.p = p
        self.degree = degree
        self.modulus = least_irreducible(p, degree)
        self.size = p ** degree
        self.zero = (0,) * degree
        self.one = self._pad((1,))
        self._log_tables = None  # built by log_tables

    def _pad(self, c):
        return tuple(c) + (0,) * (self.degree - len(c))

    def add(self, a, b):
        return self._pad(poly_add(a, b, self.p))

    def sub(self, a, b):
        return self._pad(poly_sub(a, b, self.p))

    def mul(self, a, b):
        p = self.p
        return self._pad(poly_mod(poly_mul(a, b, p), self.modulus, p))

    def log_tables(self):
        """(exp, log) for g, the primitive element of least encoding.

        exp[w] is the encoding of g^w for 0 <= w < size - 1, and log[k]
        is the exponent of the element with encoding k (None at k = 0).
        Built on first use and kept on the level, together with the
        Zech table zech[w] = log(1 + g^w) that add_enc reads: adding 1
        only raises the constant digit of an encoding mod p.
        """
        if self._log_tables is None:
            order = self.size - 1
            for k in range(1, self.size):
                g = self.decode(k)
                if all(self.pow(g, order // t) != self.one
                       for t in prime_factors(order)):
                    break
            exp = self._powers_of(g)
            log = [None] * self.size
            for w, k in enumerate(exp):
                log[k] = w
            p = self.p
            self._zech = [log[k - k % p + (k + 1) % p] for k in exp]
            self._log_tables = (exp, log)
        return self._log_tables

    def _powers_of(self, g):
        """The encodings of g^w for 0 <= w < size - 1, each a product by
        g on integers.

        The walk keeps an element as the integer sum c_i 2^(s i), its
        digits s bits apart with 2^(s-1) >= p, so that two reduced
        values add digit by digit with no carry and one subtraction of p
        per digit of at least p reduces the sum; that digit is read off
        bit s - 1 after adding 2^(s-1) - p to each digit.  The product by
        g is F_p-linear, so it is read from the rows g x^i through two
        tables, one per half of the digits: the table of a half maps each
        element supported there to its product with g and its encoding.
        """
        p, d = self.p, self.degree
        s = p.bit_length() + 1
        ones = sum(1 << (s * i) for i in range(d))
        bias = ones * ((1 << (s - 1)) - p)

        def add(a, b):
            t = a + b
            return t - (((t + bias) >> (s - 1)) & ones) * p

        rows, row = [], g
        for _ in range(d):  # g x^i
            rows.append(sum(c << (s * i) for i, c in enumerate(row)))
            row = self.mul(row, (0, 1))

        def half(lo, hi):
            table = {0: (0, 0)}
            for i in range(lo, hi):
                multiples = [0]
                for _ in range(p - 1):
                    multiples.append(add(multiples[-1], rows[i]))
                table = {key + (c << (s * i)): (add(gk, multiples[c]),
                                                enc + c * p ** i)
                         for c in range(p) for key, (gk, enc) in table.items()}
            return table

        h = d // 2
        low, high, mask = half(0, h), half(h, d), (1 << (s * h)) - 1
        exp, cur = [], 1
        for _ in range(self.size - 1):
            lo = cur & mask
            (g_lo, enc_lo), (g_hi, enc_hi) = low[lo], high[cur - lo]
            exp.append(enc_lo + enc_hi)
            cur = add(g_lo, g_hi)
        return exp

    def check_enc(self, k: int) -> int:
        """k, if it is an encoding of this level; FieldError otherwise.
        The arithmetic on encodings does not check its arguments."""
        if not 0 <= k < self.size:
            raise FieldError(f"{k} is not an encoding of F_{self.size}")
        return k

    # Arithmetic on integer encodings, through the log and Zech tables.

    def mul_enc(self, i: int, j: int) -> int:
        exp, log = self._log_tables or self.log_tables()
        return exp[(log[i] + log[j]) % (self.size - 1)] if i and j else 0

    def add_enc(self, i: int, j: int) -> int:
        """g^a + g^b = g^a (1 + g^(b - a))."""
        if not (i and j):
            return i or j
        exp, log = self._log_tables or self.log_tables()
        a, order = log[i], self.size - 1
        z = self._zech[(log[j] - a) % order]
        return 0 if z is None else exp[(a + z) % order]

    def neg_enc(self, i: int) -> int:
        return self.mul_enc(i, self.p - 1)  # -1 has encoding p - 1

    def eval_enc(self, f, x: int) -> int:
        """f(x) by Horner's rule, for f a polynomial over F_p, low degree
        first (a coefficient c < p is its own encoding), at the encoding x."""
        acc = 0
        for c in reversed(f):
            acc = self.add_enc(self.mul_enc(acc, x), c)
        return acc

    def power_map(self, n: int) -> list[int]:
        """The encodings of x^n (n >= 0), x in encoding order."""
        exp, log = self._log_tables or self.log_tables()
        return [0 if n else 1] + [exp[w * n % (self.size - 1)] for w in log[1:]]

    def pow(self, a, n):
        return power(self.mul, self.one, a, n)

    def encode(self, a) -> int:
        return _undigits(a, self.p)

    def decode(self, k: int):
        return tuple(_digits(k, self.p, self.degree))

    def elements(self):
        return (self.decode(k) for k in range(self.size))


# ---------------------------------------------------------------------------
# The tower: levels, and the embedding of F_q in F_{q^2} as a table.

def embedding_table(root: int, lo: Level, hi: Level) -> list[int]:
    """The encoding in hi of each lo encoding, in encoding order.

    root is the hi encoding of a root in hi of lo's modulus, so the
    embedding sends a to the value at root of the polynomial whose
    coefficients are the base-p digits of a.
    """
    return [hi.eval_enc(_digits(a, lo.p, lo.degree), root)
            for a in range(lo.size)]


class TowerContext:
    """The tower F_p < F_q < F_{q^2} < F_{q^4} and the embedding table of
    F_q in F_{q^2}.

    Immutable after construction apart from the tables that table()
    keeps; all operations are pure.  Level keys are the degree over F_q:
    1, 2 and 4, and every element is the integer encoding of its level.
    """

    KEYS = (1, 2, 4)
    MAX_Q = 16

    def __init__(self, p: int, e: int):
        self.q = prime_power(p, e, self.MAX_Q)
        self.p = p
        self.e = e
        self.levels = lv = {k: Level(p, e * k) for k in self.KEYS}
        self._embedding = embedding_table(
            self._find_root(lv[1].modulus, lv[2]), lv[1], lv[2])
        self._tables = {}

    def __repr__(self):
        return f"TowerContext(p={self.p}, e={self.e})"

    def table(self, key, build):
        """The table kept on this tower under key, made by build() the
        first time key is asked for; a build that raises keeps nothing.
        Every table derived from a tower lives here: K and its reduction,
        coset and coset pairs per zeta, the blind scan's model, the fixed
        point grids and the counting spectra.  The log and Zech tables
        stay on each Level, as the blind scan's model has no tower."""
        tables = self._tables
        if key not in tables:
            tables[key] = build()
        return tables[key]

    @staticmethod
    def _find_root(f, level: Level) -> int:
        """The encoding of the least root in level of f, a polynomial with
        coefficients in F_p: the first encoding, in encoding order, at
        which f vanishes."""
        for a in range(level.size):
            if not level.eval_enc(f, a):
                return a
        raise ArithmeticError("modulus has no root in the upper level")

    def embed(self, k: int) -> int:
        """The level-2 encoding of the level-1 encoding k."""
        return self._embedding[self.levels[1].check_enc(k)]

    # -- named operations -----------------------------------------------------

    def trace_to_prime(self, k: int, key: int) -> int:
        """Tr_{F_{q^key}/F_p} of the level-key encoding k, in range(p)."""
        lv = self.levels[key]
        lv.check_enc(k)
        frob = lv.power_map(self.p)
        acc = 0
        for _ in range(lv.degree):
            acc = lv.add_enc(acc, k)
            k = frob[k]
        if acc >= self.p:  # F_p is the encodings below p
            raise ArithmeticError("trace did not land in the prime field")
        return acc

    def enumerate_mu(self) -> list[int]:
        """mu_{q+1} as level-2 encodings, in encoding order: the powers of
        g^(q-1), g the primitive element read off log_tables."""
        exp, _ = self.levels[2].log_tables()
        return sorted(exp[::self.q - 1])

    def mu_index(self, zeta: int) -> int:
        """The k in range(q + 1) with zeta = (g^(q-1))^k, for zeta a
        level-2 encoding and g the primitive element of F_{q^2} read off
        log_tables; FieldError unless zeta is in mu_{q+1}.  mu_{q+1} is
        the subgroup of index q - 1 of F_{q^2}^*, the powers of g whose
        exponent is a multiple of q - 1, so g^(q-1) generates it."""
        _, log = self.levels[2].log_tables()
        w = log[self.levels[2].check_enc(zeta)]
        if w is None or w % (self.q - 1):
            raise FieldError("zeta must lie in mu_{q+1}")
        return w // (self.q - 1)

    def legendre(self, k: int) -> int:
        """(k | F_q) for the level-1 encoding k: the squares of F_q^* are
        the even powers of its primitive element."""
        if self.p == 2:
            raise FieldError("Legendre symbol undefined in characteristic 2")
        if k == 0:
            raise FieldError("Legendre symbol undefined at 0")
        _, log = self.levels[1].log_tables()
        return -1 if log[self.levels[1].check_enc(k)] % 2 else 1


@lru_cache(maxsize=None)
def build_tower(p: int, e: int) -> TowerContext:
    """Deterministic tower for q = p^e.

    A process-wide singleton, so that what the tower keeps is shared by
    every caller: the log tables of its levels, and the tables of
    TowerContext.table.  Apart from those the tower is immutable.
    """
    return TowerContext(p, e)


# ---------------------------------------------------------------------------
# Artin-Schreier extension K = F_{q^2}[t]/(t^p - t - c), used by the
# fixed-point solver: the twisted fixed points satisfy x^{q^2} = x - 2y
# and therefore live in F_{q^{2p}}, a degree-p extension of F_{q^2}.

class ArtinSchreierExtension:
    """Degree-p extension of the tower's F_{q^2} level, with c the level-2
    encoding of least nonzero absolute trace.

    The element sum_i a_i t^i is the integer sum_i a_i N^i, N = q^2 and
    a_i the level-2 encoding of its coefficient: the base-p encoding of
    its F_p-coordinates, as at every Level.  The encodings below N are
    F_{q^2} itself, with 0 and 1 the zero and one of K.  K is too large
    for tables (13^26 elements at q = 13), so mul and frob work on the p
    coefficients through the log and Zech tables of F_{q^2}, except on
    an operand below N.  That operand lies in F_{q^2}, and the shortcut
    is exact: K is an F_{q^2}-algebra, so a scalar multiplies each
    coefficient and needs no reduction, and on F_{q^2} the map x -> x^q
    is the level-2 table power_map(q).
    """

    def __init__(self, tower: TowerContext):
        self.tower = tower
        self.p = tower.p
        self.base = base = tower.levels[2]
        self.c = next((k for k in range(base.size) if tower.trace_to_prime(k, 2)),
                      None)
        if self.c is None:
            raise ArithmeticError("no element of nonzero absolute trace")
        self.dim = self.p * base.degree  # F_p-dimension
        exp, self._log = base.log_tables()
        self._exp = exp + exp  # exp[u + v] needs no reduction
        self._frob_base = base.power_map(tower.q)  # x^q on F_{q^2}
        # (t^q)^i for i < p as (j, log of the coefficient of t^j) pairs,
        # read by frob; t has the encoding N.
        tq, power = self.pow(base.size, tower.q), 1
        self._tq_powers = []
        for _ in range(self.p):
            self._tq_powers.append(self._log_form(power))
            power = self.mul(power, tq)

    def _log_form(self, a):
        log = self._log
        return [(i, log[x])
                for i, x in enumerate(_digits(a, self.base.size, self.p)) if x]

    def add(self, a, b):
        """Coefficient-wise through the Zech table of F_{q^2}.  An operand
        below N = q^2 changes only the constant coefficient, and at p = 2
        the encodings are bit vectors over F_2, added by a ^ b."""
        if self.p == 2:
            return a ^ b
        N, add = self.base.size, self.base.add_enc
        if a > b:
            a, b = b, a
        if a < N:
            low = b % N
            return b - low + add(low, a)
        out, scale = 0, 1
        while a or b:
            a, x = divmod(a, N)
            b, y = divmod(b, N)
            out += add(x, y) * scale
            scale *= N
        return out

    def neg(self, a):
        if self.p == 2:  # -1 = 1
            return a
        return self.mul(self.p - 1, a)  # -1 has encoding p - 1 < N

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        """Schoolbook product over F_{q^2} through its log table,
        skipping zero coefficients, reduced by t^p = t + c.

        If the smaller operand a is below N = q^2, it is a scalar of
        F_{q^2}: the product is b with each coefficient multiplied by a,
        of the same degree in t, so nothing is reduced."""
        if a > b:
            a, b = b, a
        N = self.base.size
        if a < N:
            if a < 2:  # 0 or 1
                return a and b
            exp, log = self._exp, self._log
            u = log[a]
            if b < N:
                return exp[u + log[b]]
            out, scale = 0, 1
            while b:
                b, y = divmod(b, N)
                if y:
                    out += exp[u + log[y]] * scale
                scale *= N
            return out
        exp, log, add, p = self._exp, self._log, self.base.add_enc, self.p
        la, lb = self._log_form(a), self._log_form(b)
        out = [0] * (la[-1][0] + lb[-1][0] + 1)
        for i, u in la:
            for j, v in lb:
                out[i + j] = add(out[i + j], exp[u + v])
        log_c = log[self.c]
        for k in range(len(out) - 1, p - 1, -1):  # t^k = t^(k-p+1) + c t^(k-p)
            x = out[k]
            if x:
                out[k - p + 1] = add(out[k - p + 1], x)
                out[k - p] = add(out[k - p], exp[log[x] + log_c])
        return _undigits(out[:p], N)

    def pow(self, a, n):
        return power(self.mul, 1, a, n)

    def frob(self, a):
        """a^q = sum_i a_i^q (t^q)^i, the coefficients raised to the q-th
        power through their logs.  Below N = q^2, a lies in F_{q^2}, and
        a^q is read from the table power_map(q) of that level."""
        if a < self.base.size:
            return self._frob_base[a]
        exp, add = self._exp, self.base.add_enc
        q, order = self.tower.q, self.base.size - 1
        out = [0] * self.p
        for i, u in self._log_form(a):
            u = u * q % order
            for j, v in self._tq_powers[i]:
                out[j] = add(out[j], exp[u + v])
        return _undigits(out, self.base.size)

    def coset(self, zeta):
        """The pairs (a, a^q) with a^q = zeta a, for zeta in mu_{q+1}, in
        the encoding order of a.  They are the kernel of x -> x^q - zeta x
        on K, which lies in F_{q^2} (a^{q^2} = zeta^{q+1} a = a), read
        off the table of x -> x^q on F_{q^2}; kept on the tower per zeta."""
        def build():
            self.tower.mu_index(zeta)
            mul = self.base.mul_enc
            return [(a, fa) for a, fa in enumerate(self._frob_base)
                    if fa == mul(zeta, a)]
        return self.tower.table(("coset", zeta), build)

    def coset_pairs(self, zeta):
        """{v: [(x, y), ...]}, the pairs x, y of coset(zeta) grouped by
        v = x y^q - x^q y, each group in the encoding order of (x, y);
        kept on the tower per zeta, so each value is computed once."""
        def build():
            coset, lv = self.coset(zeta), self.base
            groups = {}
            for x, x_q in coset:
                for y, y_q in coset:
                    v = lv.add_enc(lv.mul_enc(x, y_q), lv.neg_enc(lv.mul_enc(x_q, y)))
                    groups.setdefault(v, []).append((x, y))
            return groups
        return self.tower.table(("coset pairs", zeta), build)

    def solve_affine(self, zeta, rhs):
        """Every x in K with x^q - zeta x = rhs, for zeta in mu_{q+1} a
        level-2 encoding (empty if there are none): x0 + a for a in
        coset(zeta), in the order of a, with x0 the solution of
        solve_reduced.  The map is F_p-linear with kernel coset(zeta);
        the F_p-coordinates of an element are the base-p digits of its
        encoding, and p^i is the i-th basis vector.  The map of each zeta
        is reduced once and kept on the tower, at most q + 1 reductions
        per tower."""
        p, dim = self.p, self.dim
        if not 0 <= rhs < p ** dim:
            raise FieldError(f"{rhs} is not an encoding of F_{p ** dim}")

        def build():
            self.tower.mu_index(zeta)
            cols = [_digits(self.sub(self.frob(p ** i), self.mul(zeta, p ** i)),
                            p, dim) for i in range(dim)]
            return reduce_mod_p(p, cols, dim)
        reduction = self.tower.table(("reduction", zeta), build)
        x0 = solve_reduced(p, reduction, _digits(rhs, p, dim), dim)
        if x0 is None:
            return []
        x0 = _undigits(x0, p)
        return [self.add(x0, a) for a, _ in self.coset(zeta)]
