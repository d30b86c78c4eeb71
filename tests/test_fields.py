"""Field tower arithmetic on encodings: axioms, embeddings, traces and norms."""

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ffverify import (AdditiveCharacter, FieldError, blind_fixed_point_count,
                      build_tower, closed_form_fixed_count,
                      fixed_points_surface)
from ffverify.fixed_points import coordinate_extension
from ffverify.fields import (ArtinSchreierExtension, Level, TowerContext,
                             _digits, _is_irreducible, embedding_table,
                             is_prime, least_irreducible, poly_mod, poly_mul,
                             poly_powmod, power, prime_factors, prime_power,
                             reduce_mod_p, row_reduce, solve_reduced)

# (p, e) of every tower with q <= 16.
TOWERS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1),
          (11, 1), (13, 1)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_power_counts_its_multiplications():
    """acc * a^n with bit_length - 1 squares and popcount multiplies."""
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x * y % 101

    assert power(mul, 7, 3, 0) == 7 and calls == []
    for n in range(1, 201):
        calls.clear()
        assert power(mul, 7, 3, n) == 7 * pow(3, n, 101) % 101
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1")


def test_prime_factors():
    assert prime_factors(12) == [2, 3]
    assert prime_factors(1) == []
    assert prime_factors(30) == [2, 3, 5]


def _trim_reference(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return tuple(c)


def _poly_mul_every_step(a, b, p):
    """poly_mul as it was when it reduced mod p after every step, kept as
    the reference for the merged kernels."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim_reference(out)


def _poly_mod_every_step(a, f, p):
    """poly_mod as it was when it reduced mod p after every step."""
    a = list(a)
    d = len(f) - 1
    while len(a) > d:
        lead = a[-1] % p
        if lead:
            for i in range(d + 1):
                a[len(a) - 1 - d + i] = (a[len(a) - 1 - d + i] - lead * f[i]) % p
        a.pop()
    return _trim_reference(a)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_poly_mul_and_mod_match_the_reduce_every_step_route(data):
    """poly_mul then poly_mod, each reducing a coefficient mod p once,
    against the versions that reduced after every step, for random a, b
    and a random monic f."""
    p = data.draw(st.sampled_from([2, 3, 5, 13]))
    coeffs = st.lists(st.integers(0, p - 1), max_size=12).map(tuple)
    a, b = data.draw(coeffs), data.draw(coeffs)
    f = tuple(data.draw(st.lists(st.integers(0, p - 1), max_size=8))) + (1,)
    product = poly_mul(a, b, p)
    assert product == _poly_mul_every_step(a, b, p)
    assert poly_mod(product, f, p) == _poly_mod_every_step(product, f, p)
    assert poly_mod(a, f, p) == _poly_mod_every_step(a, f, p)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 4), (3, 2), (3, 3),
                                 (5, 2), (7, 2), (3, 6)])
def test_least_irreducible_is_irreducible(p, d):
    f = least_irreducible(p, d)
    assert len(f) == d + 1 and f[-1] == 1
    # x^(p^d) == x mod f, and x^(p^(d/t)) != x for prime divisors t
    x = (0, 1)
    assert poly_mod(poly_powmod(x, p ** d, f, p), f, p) == poly_mod(x, f, p)
    for t in prime_factors(d):
        sub = poly_powmod(x, p ** (d // t), f, p)
        assert sub != poly_mod(x, f, p)


def _least_irreducible_by_scan(p, d):
    """Every candidate through the Rabin test, in encoding order, with
    no root prefilter."""
    for k in range(p ** d):
        f = tuple(k // p ** i % p for i in range(d)) + (1,)
        if _is_irreducible(f, p):
            return f


# The degree of every level of those towers, and the blind scan's degree
# 2ep at q = 2, 3 and 4.
_MODULUS_DEGREES = sorted({(p, e * k) for p, e in TOWERS for k in (1, 2, 4)}
                          | {(2, 4), (3, 6), (2, 8)})


@pytest.mark.parametrize("p,d", _MODULUS_DEGREES)
def test_least_irreducible_is_the_first_irreducible(p, d):
    assert least_irreducible(p, d) == _least_irreducible_by_scan(p, d)


def test_tower_rejects_bad_parameters():
    with pytest.raises(FieldError):
        build_tower(4, 1)
    with pytest.raises(FieldError):
        build_tower(2, 0)
    with pytest.raises(FieldError):
        build_tower(5, 2)  # q = 25 > 16


@pytest.mark.parametrize("p,e", [(2, 10 ** 8), (10 ** 18 + 3, 1), (4, 3),
                                 (3, 5)])
def test_the_q_bound_comes_before_the_power_and_the_primality_test(p, e):
    """q = p^e is bounded before p^e is built (2^(10^8) has 30 million
    digits) and before the trial division of p (10^18 + 3 is prime)."""
    start = time.perf_counter()
    with pytest.raises(FieldError, match=rf"^q = {p}\^{e} exceeds"):
        TowerContext(p, e)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,e,bound,q", [(2, 4, 16, 16), (13, 1, 16, 13),
                                         (2, 12, 4096, 4096),
                                         (4093, 1, 4096, 4093)])
def test_prime_power_returns_q_up_to_its_bound(p, e, bound, q):
    assert prime_power(p, e, bound) == q


@pytest.mark.parametrize("p,e,bound,reason", [
    (10 ** 18 + 3, 0, 16, "exponent"),
    (10 ** 18 + 3, -1, 4096, "exponent"),
    (2, 10 ** 9, 4096, "exceeds"),
    (10 ** 18 + 3, 1, 4096, "exceeds"),
    (2, 13, 4096, "exceeds"),
    (4, 1, 16, "not prime"),
    (1, 10 ** 9, 16, "not prime"),
    (-7, 3, 16, "not prime")])
def test_prime_power_rejects_before_the_power_and_the_primality_test(
        p, e, bound, reason):
    """e < 1 and q > bound are rejected before p^e is built and before
    the trial division of p (10^18 + 3 is prime)."""
    start = time.perf_counter()
    with pytest.raises(FieldError, match=reason):
        prime_power(p, e, bound)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_field_axioms_exhaustive(p, e):
    ctx = build_tower(p, e)
    for key in (1, 2):
        lv = ctx.levels[key]
        add, mul = lv.add_enc, lv.mul_enc
        elems = range(lv.size)
        inverse = lv.power_map(lv.size - 2)  # a^(N-2) = 1/a for a != 0
        for a in elems:
            assert add(a, 0) == a and mul(a, 1) == a
            assert add(a, lv.neg_enc(a)) == 0
            if a:
                assert mul(a, inverse[a]) == 1
        for a in elems:
            for b in elems:
                assert add(a, b) == add(b, a)
                assert mul(a, b) == mul(b, a)
                for c in elems:
                    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_field_axioms_randomized_q9(i, j, k):
    lv = build_tower(3, 2).levels[2]
    add, mul = lv.add_enc, lv.mul_enc
    a, b, c = i % lv.size, j % lv.size, k % lv.size
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]), st.integers(0, 10 ** 6))
def test_encoding_roundtrip(pe, k):
    ctx = build_tower(*pe)
    for key in (1, 2, 4):
        lv = ctx.levels[key]
        n = k % lv.size
        assert lv.encode(lv.decode(n)) == n


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
def test_embedding_is_ring_homomorphism(p, e):
    ctx = build_tower(p, e)
    lv1, lv2 = ctx.levels[1], ctx.levels[2]
    for a in range(ctx.q):
        for b in range(ctx.q):
            ea, eb = ctx.embed(a), ctx.embed(b)
            assert ctx.embed(lv1.add_enc(a, b)) == lv2.add_enc(ea, eb)
            assert ctx.embed(lv1.mul_enc(a, b)) == lv2.mul_enc(ea, eb)
    # embed is injective: each a is the only preimage of its image
    assert len({ctx.embed(a) for a in range(ctx.q)}) == ctx.q


def _embedding_table_by_sums(root, lo, hi):
    """embedding_table as it was: the image of each lo element summed
    term by term, c_i root^i through hi's tuple arithmetic; root is an
    encoding."""
    root, pows = hi.decode(root), [hi.one]
    for _ in range(lo.degree - 1):
        pows.append(hi.mul(pows[-1], root))
    table = []
    for a in lo.elements():
        acc = hi.zero
        for c, rp in zip(a, pows):
            if c:
                acc = hi.add(acc, tuple(c * x % hi.p for x in rp))
        table.append(hi.encode(acc))
    return table


@pytest.mark.parametrize("p,e", TOWERS)
def test_embedding_tables_match_the_term_by_term_route(p, e):
    """The direct F_p-linear combination against the sum of scaled
    powers, and the tower's table against both, at every tower with
    q <= 16."""
    ctx = build_tower(p, e)
    a, b = ctx.levels[1], ctx.levels[2]
    root = TowerContext._find_root(a.modulus, b)
    table = embedding_table(root, a, b)
    assert table == _embedding_table_by_sums(root, a, b)
    assert table == [ctx.embed(k) for k in range(a.size)]


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_frobenius_properties(p, e):
    ctx = build_tower(p, e)
    lv = ctx.levels[2]
    frob = lv.power_map(ctx.q)
    for a in range(lv.size):
        fa = frob[a]
        # order 2 on the quadratic level
        assert frob[fa] == a
        for b in range(5):
            assert frob[lv.add_enc(a, b)] == lv.add_enc(fa, frob[b])
            assert frob[lv.mul_enc(a, b)] == lv.mul_enc(fa, frob[b])
    assert ctx.levels[1].power_map(ctx.q) == list(range(ctx.q))


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_norm_and_trace_of_f_q2_land_in_f_q(p, e):
    """a a^q and a + a^q, the norm and trace of F_{q^2}/F_q, lie in F_q."""
    ctx = build_tower(p, e)
    q, lv = ctx.q, ctx.levels[2]
    frob = lv.power_map(q)
    f_q = {ctx.embed(b): b for b in range(q)}  # the image of embed
    norm = {}
    for a in range(lv.size):
        n = lv.mul_enc(a, frob[a])
        assert n in f_q and lv.add_enc(a, frob[a]) in f_q
        norm[a] = f_q[n]
    # the norm is surjective onto F_q with fibers of size q + 1
    fibers = Counter(norm[a] for a in range(1, lv.size))
    assert all(v == q + 1 for v in fibers.values())
    assert len(fibers) == q - 1


def test_trace_to_prime_additive():
    ctx = build_tower(3, 1)
    lv = ctx.levels[2]
    for a in range(lv.size):
        for b in range(lv.size):
            ta, tb = ctx.trace_to_prime(a, 2), ctx.trace_to_prime(b, 2)
            assert ctx.trace_to_prime(lv.add_enc(a, b), 2) == (ta + tb) % 3


@pytest.mark.parametrize("p,e", TOWERS)
def test_mu_enumeration_and_discrete_log(p, e):
    """mu_index(zeta) is the k with zeta = h^k, h = g^(q-1) for g the
    primitive element of F_{q^2} of least encoding, found by a scan of
    the powers of h; every other element of F_{q^2} is rejected."""
    ctx = build_tower(p, e)
    q, lv = ctx.q, ctx.levels[2]
    mu = ctx.enumerate_mu()
    assert len(mu) == q + 1
    assert len(set(mu)) == q + 1
    norm = lv.power_map(q + 1)
    for z in mu:
        assert norm[z] == 1
    g = next(a for a in lv.elements() if a != lv.zero and all(
        lv.pow(a, (lv.size - 1) // t) != lv.one
        for t in prime_factors(lv.size - 1)))
    h = lv.pow(g, q - 1)
    for k in range(q + 1):
        assert ctx.mu_index(lv.encode(lv.pow(h, k))) == k
    for z in range(lv.size):
        if z not in mu:
            with pytest.raises(FieldError, match="mu_"):
                ctx.mu_index(z)


def _multiplicative_order(lv, a):
    cur, order = a, 1
    while cur != lv.one:
        cur = lv.mul(cur, a)
        order += 1
    return order


@pytest.mark.parametrize("field", [(2, 1, 1), (3, 1, 1), (3, 1, 2), (3, 1, 4),
                                   (5, 1, 2), (2, 2, 4), (3, 2, 2),
                                   (3, 6), (2, 8)],
                         ids=str)
def test_log_tables_against_a_brute_scan(field):
    """(p, e, key) names a tower level, (p, d) a standalone Level."""
    lv = build_tower(*field[:2]).levels[field[2]] if len(field) == 3 \
        else Level(*field)
    exp, log = lv.log_tables()
    assert lv.log_tables() is lv.log_tables()  # kept on the level
    order = lv.size - 1
    g = next(k for k in range(1, lv.size)
             if _multiplicative_order(lv, lv.decode(k)) == order)
    assert exp[0] == 1 and exp[1 % order] == g
    assert sorted(exp) == list(range(1, lv.size))
    assert log[0] is None
    for w, k in enumerate(exp):
        assert log[k] == w
        assert lv.decode(exp[(w + 1) % order]) == lv.mul(lv.decode(k), lv.decode(g))


def _tuple_log_tables(lv):
    """(exp, log, zech) from tuple products and sums alone: the route
    log_tables took before it walked exp on integers, kept here as the
    reference."""
    order = lv.size - 1
    g = next(a for a in lv.elements() if a != lv.zero and all(
        lv.pow(a, order // t) != lv.one for t in prime_factors(order)))
    exp, cur = [], lv.one
    for _ in range(order):
        exp.append(lv.encode(cur))
        cur = lv.mul(g, cur)
    log = [None] * lv.size
    for w, k in enumerate(exp):
        log[k] = w
    zech = [log[lv.encode(lv.add(lv.one, lv.decode(k)))] for k in exp]
    return exp, log, zech


@pytest.mark.parametrize("p,d", sorted({(p, e * k) for p, e in TOWERS
                                        for k in (1, 2, 4)}))
def test_log_tables_match_the_tuple_route(p, d):
    """exp, log and zech at every level of every tower with q <= 16."""
    lv = Level(p, d)  # fresh: no caller has built its tables
    exp, log = lv.log_tables()
    assert (exp, log, lv._zech) == _tuple_log_tables(lv)


def _check_encoding_arithmetic(lv, q, pairs):
    """add_enc, neg_enc, mul_enc and power_map against the tuple
    arithmetic of the level, on the given pairs of encodings."""
    els = [lv.decode(k) for k in range(lv.size)]
    pairs = list(pairs)
    for i, j in pairs:
        a, b = els[i], els[j]
        assert lv.add_enc(i, j) == lv.encode(lv.add(a, b)), (i, j)
        assert lv.mul_enc(i, j) == lv.encode(lv.mul(a, b)), (i, j)
    for k in {i for pair in pairs for i in pair}:
        assert lv.neg_enc(k) == lv.encode(lv.sub(lv.zero, els[k])), k
    for n in (0, 1, q, q + 1):
        assert lv.power_map(n) == [lv.encode(lv.pow(a, n)) for a in els], n


@pytest.mark.parametrize("p,e,key", [(p, e, key)
                                     for p, e in [(2, 1), (3, 1), (2, 2), (5, 1)]
                                     for key in (1, 2, 4)
                                     if (p ** e) ** key <= 256], ids=str)
def test_encoding_arithmetic_on_every_pair(p, e, key):
    lv = Level(p, e * key)  # fresh: no caller has built its tables
    assert lv.modulus == build_tower(p, e).levels[key].modulus
    _check_encoding_arithmetic(lv, p ** e,
                               itertools.product(range(lv.size), repeat=2))


@pytest.mark.parametrize("p,e,key", [(2, 4, 2), (7, 1, 4), (13, 1, 2)],
                         ids=str)
def test_encoding_arithmetic_on_a_sample(p, e, key):
    lv = build_tower(p, e).levels[key]
    N = lv.size
    rnd = random.Random(1)
    edges = [0, 1, p - 1, p, N - 1]
    pairs = list(itertools.product(edges, repeat=2))
    pairs += [(rnd.randrange(N), rnd.randrange(N)) for _ in range(400)]
    pairs += [(i, lv.neg_enc(i)) for i, _ in pairs[-50:]]  # sums that vanish
    _check_encoding_arithmetic(lv, p ** e, pairs)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_mu_helpers_match_their_scan_definitions(p, e):
    ctx = build_tower(p, e)
    lv = ctx.levels[2]
    mu = [a for a in (lv.decode(k) for k in range(1, lv.size))
          if lv.pow(a, ctx.q + 1) == lv.one]
    assert [lv.decode(z) for z in ctx.enumerate_mu()] == mu


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_epsilon_sets_partition_sizes(p, e):
    """{a in F_{q^2} : a + eps a^q = 0} has q elements for eps = +1, -1."""
    ctx = build_tower(p, e)
    q, lv = ctx.q, ctx.levels[2]
    frob = lv.power_map(q)

    def eps_set(eps):
        return {a for a in range(lv.size)
                if lv.add_enc(a, lv.mul_enc(eps % p, frob[a])) == 0}

    plus = eps_set(1)    # a + a^q = 0
    minus = eps_set(-1)  # a - a^q = 0, i.e. F_q itself
    assert len(plus) == q and len(minus) == q
    assert minus == {ctx.embed(a) for a in range(q)}
    for a in minus:
        assert frob[a] == a
    for a in plus:
        assert frob[a] == lv.neg_enc(a)
    # they meet exactly in zero for odd p
    assert plus & minus == {0}


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_legendre_symbol(p, e):
    ctx = build_tower(p, e)
    q, mul = ctx.q, ctx.levels[1].mul_enc
    elems = range(1, q)
    squares = {mul(a, a) for a in elems}
    count = {1: 0, -1: 0}
    for a in elems:
        s = ctx.legendre(a)
        assert s == (1 if a in squares else -1)
        count[s] += 1
        for b in elems:
            assert ctx.legendre(mul(a, b)) == s * ctx.legendre(b)
    assert count[1] == count[-1] == (q - 1) // 2
    with pytest.raises(FieldError):
        ctx.legendre(0)


def test_legendre_rejected_in_characteristic_two():
    ctx = build_tower(2, 1)
    with pytest.raises(FieldError):
        ctx.legendre(1)


# Each entry point that takes an element, with the level of that element.
_ENTRY_POINTS = {
    "embed-1-2": (1, lambda ctx, k: ctx.embed(k)),
    "legendre": (1, lambda ctx, k: ctx.legendre(k)),
    "mu_index": (2, lambda ctx, k: ctx.mu_index(k)),
    "trace_to_prime-1": (1, lambda ctx, k: ctx.trace_to_prime(k, 1)),
    "trace_to_prime-2": (2, lambda ctx, k: ctx.trace_to_prime(k, 2)),
    "AdditiveCharacter": (1, lambda ctx, k: AdditiveCharacter(ctx, 1)(k)),
    "fixed_points_surface-eta":
        (1, lambda ctx, k: fixed_points_surface(ctx, k, 1, False)),
    "fixed_points_surface-zeta":
        (2, lambda ctx, k: fixed_points_surface(ctx, 0, k, False)),
    "closed_form_fixed_count-eta":
        (1, lambda ctx, k: closed_form_fixed_count(ctx, k, 1, True)),
    "closed_form_fixed_count-zeta":
        (2, lambda ctx, k: closed_form_fixed_count(ctx, 0, k, True)),
    "solve_affine-zeta":
        (2, lambda ctx, k: coordinate_extension(ctx).solve_affine(k, 0)),
    "blind_fixed_point_count-eta":
        (1, lambda ctx, k: blind_fixed_point_count(ctx, k, 1, True)),
    "blind_fixed_point_count-zeta":
        (2, lambda ctx, k: blind_fixed_point_count(ctx, 0, k, True)),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_points_reject_values_outside_the_level(entry):
    """At q = 9, -1 and the size of the level are not encodings: a
    negative int must not wrap round a table, and neither may raise
    IndexError."""
    ctx = build_tower(3, 2)
    key, call = _ENTRY_POINTS[entry]
    for k in (-1, ctx.levels[key].size):
        with pytest.raises(FieldError, match="is not an encoding"):
            call(ctx, k)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1)])
def test_artin_schreier_extension_structure(p, e):
    ctx = build_tower(p, e)
    K = ArtinSchreierExtension(ctx)
    t = K.base.size  # the encoding of t
    # t^p - t = c by construction; c is an element of the base
    assert K.sub(K.pow(t, p), t) == K.c
    # ring sanity on a few elements
    a, b = t, K.mul(t, t)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.add(a, K.neg(a)) == 0
    assert K.mul(a, 1) == a


def _linear_system(p, case, rnd):
    """(cols, rhs) of a small system over F_p; entries are drawn from
    [-p, 2p) so that reduce_mod_p and solve_reduced have to reduce them."""
    def vec(m):
        return [rnd.randrange(-p, 2 * p) for _ in range(m)]

    if case == "full-rank":  # unipotent upper triangular, 4 x 4
        cols = [[rnd.randrange(p) if i < j else int(i == j) for i in range(4)]
                for j in range(4)]
        return cols, vec(4)
    if case == "rank-deficient":  # 4 x 4, columns 3 and 4 from the first two
        a, b = vec(4), vec(4)
        cols = [a, b, [x + 2 * y for x, y in zip(a, b)], a]
        return cols, [x - y for x, y in zip(a, b)]
    if case == "wide":  # 2 x 4, right-hand side in the image
        cols = [vec(2) for _ in range(4)]
        return cols, [x + 2 * y for x, y in zip(cols[0], cols[3])]
    if case == "tall":  # 4 x 2, right-hand side in the image
        a, b = vec(4), vec(4)
        return [a, b], [3 * x + y for x, y in zip(a, b)]
    # inconsistent: rows 0 and 1 agree, their right-hand sides do not
    cols = []
    for _ in range(3):
        x = rnd.randrange(p)
        cols.append([x, x + p, rnd.randrange(p)])
    return cols, [0, 1, rnd.randrange(p)]


def _image_rank(p, cols, m):
    image = {tuple(sum(x * c[i] for x, c in zip(xs, cols)) % p for i in range(m))
             for xs in itertools.product(range(p), repeat=len(cols))}
    rank = 0
    while p ** rank < len(image):
        rank += 1
    assert p ** rank == len(image)
    return rank


def _solve_mod_p(p, cols, rhs):
    """Every solution x of sum_j x_j cols[j] = rhs over F_p, [] if there
    is none: the kernel-offset solver the package used before its affine
    solves read their kernel off coset, kept as the reference.  The
    augmented matrix is row-reduced, the particular solution has every
    free variable 0, and each F_p-combination of the kernel basis is
    added to it, the free variables taken in column order by
    itertools.product(range(p))."""
    n = len(cols)
    rows = [[c[i] % p for c in cols] + [b % p] for i, b in enumerate(rhs)]
    pivots = row_reduce(rows, n, lambda a: pow(a, p - 2, p), lambda a: a % p)
    if any(row[n] for row in rows[len(pivots):]):
        return []
    particular = [0] * n
    for row, col in zip(rows, pivots):
        particular[col] = row[n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = 1
        for row, col in zip(rows, pivots):
            vec[col] = -row[fc] % p
        kernel.append(vec)
    sols = []
    for combo in itertools.product(range(p), repeat=len(kernel)):
        vec = particular
        for coeff, kv in zip(combo, kernel):
            vec = [(v + coeff * k) % p for v, k in zip(vec, kv)]
        sols.append(vec)
    return sols


@pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "wide",
                                  "tall", "inconsistent"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_mod_p_against_a_brute_scan(p, case):
    """reduce_mod_p, solve_reduced and the kernel-offset reference against
    every x in F_p^n: solve_reduced gives the solution whose free
    variables are 0, or None, and the pivots give the rank."""
    rnd = random.Random(f"{p}-{case}")
    for _ in range(5):
        cols, rhs = _linear_system(p, case, rnd)
        n, m = len(cols), len(rhs)
        brute = [list(xs) for xs in itertools.product(range(p), repeat=n)
                 if all(sum(x * c[i] for x, c in zip(xs, cols)) % p == b % p
                        for i, b in enumerate(rhs))]
        assert sorted(_solve_mod_p(p, cols, rhs)) == brute
        reduction = reduce_mod_p(p, cols, m)
        pivots = reduction[1]
        x = solve_reduced(p, reduction, rhs, n)
        rank = _image_rank(p, cols, m)
        assert len(pivots) == rank
        if case == "inconsistent":
            assert x is None and brute == []
        else:
            assert x in brute
            assert all(x[c] == 0 for c in range(n) if c not in pivots)
            assert len(brute) == p ** (n - rank)
        if case == "full-rank":
            assert rank == n
        if case == "rank-deficient":
            assert rank < n


def _is_root(f, level, k):
    """f(a) == 0 for the element a of encoding k, by Horner's rule
    through the tuple Level.add and Level.mul; a coefficient c < p
    decodes to the constant c."""
    a, acc = level.decode(k), level.zero
    for c in reversed(f):
        acc = level.add(level.mul(acc, a), level.decode(c))
    return acc == level.zero


def _first_root_by_scan(f, level):
    """The tuple Horner scan: the first encoding at which f vanishes."""
    return next(k for k in range(level.size) if _is_root(f, level, k))


@pytest.mark.parametrize("p,e", TOWERS)
def test_find_root_is_the_first_root_in_encoding_order(p, e):
    ctx = build_tower(p, e)
    f, level = ctx.levels[1].modulus, ctx.levels[2]
    assert TowerContext._find_root(f, level) == _first_root_by_scan(f, level)


@pytest.mark.parametrize("p,e", TOWERS)
def test_find_root_has_an_orbit_of_deg_f_roots(p, e):
    """The Frobenius-orbit route the root finder once took, kept as a
    second route to the least root: the p-power orbit of the root is
    deg f distinct roots of f, hence every root (f has at most deg f),
    and the root is its least encoding."""
    ctx = build_tower(p, e)
    f, level = ctx.levels[1].modulus, ctx.levels[2]
    frob = level.power_map(p)
    orbit = [TowerContext._find_root(f, level)]
    for _ in range(len(f) - 1):
        orbit.append(frob[orbit[-1]])
    assert orbit[-1] == orbit[0]
    assert len(set(orbit)) == len(f) - 1
    assert all(_is_root(f, level, k) for k in orbit)
    assert orbit[0] == min(orbit)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_find_root_in_the_blind_scan_model(p, e):
    ctx = build_tower(p, e)
    F = Level(p, 2 * e * p)
    f = ctx.levels[2].modulus
    assert TowerContext._find_root(f, F) == _first_root_by_scan(f, F)


def test_tower_build_does_not_scan_the_top_level(monkeypatch):
    """Building the q = 16 tower stays far below the ~152k Level.mul
    calls of a tuple root scan over F_{16^4}: the root of the level-1
    modulus is scanned for on the encodings of F_{16^2}, through its
    log tables."""
    calls = 0
    mul = Level.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(Level, "mul", counted)
    TowerContext(2, 4)
    assert calls < 1_000


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2), (5, 1)])
def test_artin_schreier_solve_affine(p, e):
    ctx = build_tower(p, e)
    K = ArtinSchreierExtension(ctx)
    q = ctx.q

    def art(x):
        return K.sub(K.pow(x, q), x)

    # the map x -> x^q - x is F_p-linear with kernel F_q
    sols = K.solve_affine(1, 0)
    assert len(sols) == q
    probe = 3  # an element of F_{q^2}
    rhs = art(probe)
    sols = K.solve_affine(1, rhs)
    assert probe in sols
    assert len(sols) == q
    for s in sols:
        assert art(s) == rhs


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_solve_affine_matches_solve_mod_p_on_the_map_columns(p, e, kept):
    """For every zeta in mu_{q+1} at q <= 9, one solution plus coset(zeta)
    against the kernel-offset reference _solve_mod_p on the columns of
    x -> x^q - zeta x, built here from K.pow: the same solutions, for
    right-hand sides in the image and outside it.  Each solution is
    substituted back."""
    ctx = build_tower(p, e)
    K = ArtinSchreierExtension(ctx)
    q, dim = ctx.q, K.dim
    rnd = random.Random(q)

    def digits(a):
        return [a // p ** i % p for i in range(dim)]

    inconsistent = 0
    for zeta in ctx.enumerate_mu():
        def f(x):
            return K.sub(K.pow(x, q), K.mul(zeta, x))

        cols = [digits(f(p ** i)) for i in range(dim)]
        rhss = [0, f(K.base.size), f(rnd.randrange(p ** dim)),
                rnd.randrange(p ** dim), rnd.randrange(p ** dim),
                K.add(f(rnd.randrange(p ** dim)), 1)]
        for rhs in rhss:
            expected = [sum(x * p ** i for i, x in enumerate(vec))
                        for vec in _solve_mod_p(p, cols, digits(rhs))]
            sols = K.solve_affine(zeta, rhs)
            assert sorted(sols) == sorted(expected)
            assert len(sols) in (0, q)
            inconsistent += not sols
            for x in sols:
                assert f(x) == rhs
    assert inconsistent > 0
    assert all(kept(ctx, ("reduction", zeta))
               for zeta in ctx.enumerate_mu())


def test_solve_affine_rejects_zeta_outside_mu(kept):
    ctx = build_tower(3, 1)
    K = ArtinSchreierExtension(ctx)
    fourth = ctx.levels[2].power_map(4)
    for zeta in range(ctx.levels[2].size):
        if fourth[zeta] != 1:
            with pytest.raises(FieldError, match="mu_"):
                K.solve_affine(zeta, 0)
            with pytest.raises(FieldError, match="mu_"):
                K.coset(zeta)
            assert not kept(ctx, ("reduction", zeta))
            assert not kept(ctx, ("coset", zeta))


def test_solve_affine_rejects_rhs_outside_k():
    """rhs = 3^6, one past the last encoding of K at q = 3, would read
    as 0 from its low digits, and a negative rhs as digits p - 1."""
    K = ArtinSchreierExtension(build_tower(3, 1))
    assert K.solve_affine(1, 3 ** 6 - 1) is not None  # the last encoding
    for rhs in (3 ** 6, -1):
        with pytest.raises(FieldError, match="is not an encoding"):
            K.solve_affine(1, rhs)


@pytest.mark.parametrize("p,e", TOWERS)
def test_coset_is_the_kernel_of_the_map(p, e):
    """coset(zeta) lists the a of F_{q^2} with a^q = zeta a in encoding
    order, with a^q; as a set it is solve_affine(zeta, 0)."""
    ctx = build_tower(p, e)
    K = ArtinSchreierExtension(ctx)
    base, q = K.base, ctx.q
    for zeta in ctx.enumerate_mu():
        pairs = K.coset(zeta)
        assert [a for a, _ in pairs] == sorted(
            a for a in range(base.size)
            if base.encode(base.pow(base.decode(a), q)) == base.mul_enc(zeta, a))
        assert all(fa == K.pow(a, q) for a, fa in pairs)
        assert sorted(K.solve_affine(zeta, 0)) == [a for a, _ in pairs]


def _every_element(K):
    return range(K.base.size ** K.p)


def _sample_elements(K, count, seed=0):
    """A fixed sample: zero, one, t, an element of the base, then
    pseudo-random dense elements."""
    rnd = random.Random(seed)
    sample = [0, 1, K.base.size, 3]
    sample += [rnd.randrange(K.base.size ** K.p) for _ in range(count)]
    return sample


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_frobenius_matrix_is_the_q_power_everywhere(p, e):
    K = ArtinSchreierExtension(build_tower(p, e))
    q = K.tower.q
    for a in _every_element(K):
        assert K.frob(a) == K.pow(a, q)


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_frobenius_matrix_is_the_q_power_on_a_sample(p, e):
    K = ArtinSchreierExtension(build_tower(p, e))
    q = K.tower.q
    for a in _sample_elements(K, 60):
        assert K.frob(a) == K.pow(a, q)


def _schoolbook_mul(K, a, b):
    """Product in K from the tuple Level.mul and Level.add alone: the
    independent route.  Coefficient i of a is the level-2 encoding
    a // N^i % N, N = q^2."""
    base, p, N = K.base, K.p, K.base.size
    xs = [base.decode(a // N ** i % N) for i in range(p)]
    ys = [base.decode(b // N ** i % N) for i in range(p)]
    c = base.decode(K.c)
    out = [base.zero] * (2 * p - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i + j] = base.add(out[i + j], base.mul(x, y))
    for k in range(2 * p - 2, p - 1, -1):  # t^k = t^(k-p+1) + c t^(k-p)
        out[k - p + 1] = base.add(out[k - p + 1], out[k])
        out[k - p] = base.add(out[k - p], base.mul(out[k], c))
    return sum(base.encode(x) * N ** i for i, x in enumerate(out[:p]))


def test_mul_matches_schoolbook_on_every_pair():
    K = ArtinSchreierExtension(build_tower(2, 1))
    elements = _every_element(K)
    for a in elements:
        for b in elements:
            assert K.mul(a, b) == _schoolbook_mul(K, a, b)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (2, 2), (3, 2), (2, 3),
                                 (13, 1)])
def test_mul_matches_schoolbook_on_a_sample(p, e):
    K = ArtinSchreierExtension(build_tower(p, e))
    sample = _sample_elements(K, 12, seed=p * 10 + e)
    for a in sample:
        for b in sample:
            assert K.mul(a, b) == _schoolbook_mul(K, a, b)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_encodings_below_q2_are_the_base_field(p, e):
    """K restricted to the encodings below q^2 is F_{q^2}: mul and add
    agree with the level-2 arithmetic on every pair."""
    K = ArtinSchreierExtension(build_tower(p, e))
    base = K.base
    for a in range(base.size):
        for b in range(base.size):
            assert K.mul(a, b) == base.mul_enc(a, b)
            assert K.add(a, b) == base.add_enc(a, b)


@pytest.mark.parametrize("p,e", [(3, 2), (2, 3), (13, 1)])
def test_mul_by_a_base_scalar_matches_schoolbook(p, e):
    """The shortcut for an operand below q^2, in either position, against
    the tuple route; a = q^2 (the element t) is the first operand past
    it.  K.neg, the product by the scalar p - 1, against negating each
    coefficient."""
    K = ArtinSchreierExtension(build_tower(p, e))
    N = K.base.size
    dense = _sample_elements(K, 3, seed=p * 10 + e)[4:]
    for a in list(range(N)) + [N]:
        for b in dense:
            assert K.mul(a, b) == _schoolbook_mul(K, a, b)
            assert K.mul(b, a) == _schoolbook_mul(K, b, a)
    for b in list(range(N)) + dense:
        assert K.neg(b) == sum(K.base.neg_enc(x) * N ** i
                               for i, x in enumerate(_digits(b, N, K.p)))


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1),
                                 (3, 2), (13, 1)])
def test_add_and_neg_match_the_coefficient_route(p, e):
    """K.add and K.neg against adding and negating each coefficient
    through the level-2 tables, on operands below q^2 and dense ones:
    covers the XOR sum and the identity negation at p = 2, and the sum
    with an operand below q^2 at odd p."""
    K = ArtinSchreierExtension(build_tower(p, e))
    N, base = K.base.size, K.base

    def coeffs(a):
        return [a // N ** i % N for i in range(p)]

    sample = _sample_elements(K, 6, seed=p * 10 + e) + [N - 1, N, N + 1]
    sample += random.Random(e).sample(range(N), min(N, 8))
    for a in sample:
        assert K.neg(a) == sum(base.neg_enc(x) * N ** i
                               for i, x in enumerate(coeffs(a)))
        for b in sample:
            assert K.add(a, b) == sum(
                base.add_enc(x, y) * N ** i
                for i, (x, y) in enumerate(zip(coeffs(a), coeffs(b))))


@pytest.mark.parametrize("p,e", [(3, 2), (2, 3), (13, 1)])
def test_frob_on_the_base_field_is_the_tuple_q_power(p, e):
    K = ArtinSchreierExtension(build_tower(p, e))
    base, q = K.base, K.tower.q
    for a in range(base.size):
        assert K.frob(a) == base.encode(base.pow(base.decode(a), q))
