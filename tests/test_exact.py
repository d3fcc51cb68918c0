"""Number-table tests: frozen values, independent oracles, invariants."""

import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcmellin import (
    DomainError,
    bernoulli,
    binomial,
    euler_number,
    eulerian,
    harmonic,
    root_product_tables,
)
from arcmellin import exact, series
from arcmellin.exact import _signed_tangent
from _series_oracles import cosh_series


def bernoulli_oracle(n_max):
    """Independent recurrence: sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1."""
    table = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = sum(Fraction(math.comb(m + 1, k)) * table[k] for k in range(m))
        table.append(-acc / (m + 1))
    return table


class TestBernoulli:
    def test_b0(self):
        assert bernoulli(0) == 1

    def test_convention_b1(self):
        assert bernoulli(1) == Fraction(-1, 2)

    @pytest.mark.parametrize(
        "n, expected",
        [(2, Fraction(1, 6)), (12, Fraction(-691, 2730)), (4, Fraction(-1, 30))],
    )
    def test_frozen_values(self, n, expected):
        assert bernoulli(n) == expected

    def test_odd_vanish(self):
        assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 20))

    def test_recurrence_oracle_to_200(self):
        oracle = bernoulli_oracle(200)
        for n in range(201):
            assert bernoulli(n) == oracle[n]
        for n in range(1, 201):
            assert sum(Fraction(math.comb(n + 1, k)) * bernoulli(k) for k in range(n + 1)) == 0


class TestEulerNumbers:
    def test_e0(self):
        assert euler_number(0) == 1

    @pytest.mark.parametrize("n, expected", [(2, -1), (4, 5), (6, -61), (10, -50521)])
    def test_frozen_values(self, n, expected):
        assert euler_number(n) == expected

    def test_odd_vanish(self):
        assert all(euler_number(2 * k + 1) == 0 for k in range(25))

    def test_alternating_sign(self):
        for k in range(1, 20):
            assert euler_number(2 * k) * euler_number(2 * k + 2) < 0

    def test_cosh_sech_recurrence_to_200(self):
        # cosh * sech = 1: sum_{k=0}^{j} C(2j, 2k) E_{2k} = 0 for j >= 1
        assert euler_number(0) == 1
        for j in range(1, 101):
            assert sum(math.comb(2 * j, 2 * k) * euler_number(2 * k) for k in range(j + 1)) == 0

    def test_sech_series_oracle_to_60(self):
        # cross-module: Taylor coefficients of 1/cosh reproduce E_n / n!
        sech = cosh_series(60).reciprocal()
        for n in range(61):
            assert sech.coefficient(n) == Fraction(euler_number(n), math.factorial(n))


class TestSignedTangent:
    def test_sin_tan_cos_recurrence_to_200(self):
        # sin = tan * cos: sum_{i=0}^{j} C(2j+1, 2i+1) t_i = 1, t_i = (-1)^i T_{2i+1}
        for j in range(201):
            assert sum(math.comb(2 * j + 1, 2 * i + 1) * _signed_tangent(i) for i in range(j + 1)) == 1


class TestBinomial:
    def test_pascal(self):
        assert binomial(5, 2) == 10

    def test_central(self):
        assert binomial(6, 3) == 20

    def test_out_of_range(self):
        assert binomial(7, 9) == 0
        assert binomial(7, -1) == 0

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_pascal_rule(self, n, k):
        assert binomial(n + 1, k) == binomial(n, k) + binomial(n, k - 1)


class TestHarmonic:
    def test_h0_is_zero(self):
        assert harmonic(0) == 0

    def test_h1(self):
        assert harmonic(1) == 1

    def test_h4(self):
        # direct-summation oracle
        assert harmonic(4) == sum(Fraction(1, k) for k in range(1, 5)) == Fraction(25, 12)


def descents_a(perm):
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def descents_b(signed):
    padded = (0,) + signed
    return sum(1 for i in range(len(padded) - 1) if padded[i] > padded[i + 1])


class TestEulerian:
    def test_a_3_1_by_permutation_count(self):
        import itertools

        count = sum(
            1 for p in itertools.permutations(range(1, 4)) if descents_a(p) == 1
        )
        assert count == 4
        assert eulerian("A", 3, 1) == 4

    def test_a_leading_column(self):
        assert all(eulerian("A", n, 0) == 1 for n in range(0, 16))

    def test_b_2_1_by_signed_permutation_count(self):
        import itertools

        count = 0
        for p in itertools.permutations((1, 2)):
            for signs in itertools.product((1, -1), repeat=2):
                w = tuple(s * v for s, v in zip(signs, p))
                if descents_b(w) == 1:
                    count += 1
        assert count == 6
        assert eulerian("B", 2, 1) == 6

    @pytest.mark.parametrize("n", range(1, 5))
    def test_b_rows_by_signed_permutation_count(self, n):
        import itertools

        tally = {}
        for p in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                w = tuple(s * v for s, v in zip(signs, p))
                tally[descents_b(w)] = tally.get(descents_b(w), 0) + 1
        for k in range(n + 1):
            assert eulerian("B", n, k) == tally.get(k, 0)

    def test_a_row_sums(self):
        for n in range(1, 16):
            assert sum(eulerian("A", n, k) for k in range(n)) == math.factorial(n)

    def test_b_row_sums(self):
        for n in range(1, 13):
            assert sum(eulerian("B", n, k) for k in range(n + 1)) == 2**n * math.factorial(n)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            eulerian("C", 1, 0)

    @pytest.mark.parametrize("kind", [1, None, b"A", ["A"], "AB", ""])
    def test_kind_that_names_no_triangle(self, kind):
        with pytest.raises(DomainError, match="eulerian kind"):
            eulerian(kind, 3, 1)

    def test_kind_in_either_case(self):
        assert eulerian("a", 3, 1) == eulerian("A", 3, 1) == 4
        assert eulerian("b", 2, 1) == eulerian("B", 2, 1) == 6


def test_rational_addition_against_manual_gcd():
    # 10^4 random pairs: Fraction arithmetic vs an independent gcd reduction
    rng = random.Random(20260808)
    for _ in range(10_000):
        a, b = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        c, d = rng.randint(-10**9, 10**9), rng.randint(1, 10**9)
        num, den = a * d + c * b, b * d
        g = math.gcd(num, den)
        assert Fraction(a, b) + Fraction(c, d) == Fraction(num // g, den // g)


def _table_reads(offset):
    """Every table of the exact layer, and the root-product rows, read at
    the indices offset, offset + 7, ... below 90."""
    out = []
    for n in range(offset, 90, 7):
        tables = root_product_tables(n)
        out.append((
            bernoulli(n), euler_number(n), _signed_tangent(n), harmonic(n),
            eulerian("A", min(n, 20), 3), eulerian("B", n, n // 2),
            tables.integer_root(n // 2, n), tables.odd_root(n // 3, n),
        ))
    return out


def test_concurrent_table_growth(monkeypatch):
    # eight threads grow every table from its first entries at interleaved
    # indices, switching every 10 microseconds; each must read what a
    # serial run reads
    serial = [_table_reads(offset) for offset in range(8)]
    monkeypatch.setattr(exact, "_zigzag", [1])
    monkeypatch.setattr(exact, "_seidel_row", [1])
    monkeypatch.setattr(exact, "_harmonic", exact._harmonic[:1])
    for kind, (rows, rule) in exact._EULERIAN.items():
        monkeypatch.setitem(exact._EULERIAN, kind, (rows[:2], rule))
    monkeypatch.setattr(series, "_int_root_rows", [[1]])
    monkeypatch.setattr(series, "_odd_root_rows", [[1]])
    barrier = threading.Barrier(8, timeout=60)
    results, errors = [None] * 8, []

    def worker(offset):
        try:
            barrier.wait()
            results[offset] = _table_reads(offset)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == serial
    # the threads grew the cold table to A_179, which t_89 reads
    assert len(exact._zigzag) == 180
    assert bernoulli(88) == bernoulli_oracle(88)[88]
