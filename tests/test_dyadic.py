"""The Dyadic number type and the fixed-point functions, against mpmath.

mpmath is the oracle: a Dyadic converts to mpmath exactly through its
_mpf_/_mpc_ tuples.  Rendering must equal mp.nstr byte for byte, the
arithmetic must round each part as mpmath rounds an mpc at the same
precision, and pi, ln 2, exp and cos/sin must be within 2 ulp of mpmath
at 64 bits more.  Each check has a fault control that shows it can fail.
"""

import inspect
import random

import mpmath as mp
import pytest

from cmk2 import cli, dyadic
from cmk2.dyadic import Dyadic, cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed

WIDTHS = (64, 65, 100, 127, 256, 326, 512, 584, 640, 1024, 1100)


def _value(re, re_e, im, im_e, prec, is_complex):
    """A Dyadic of exactly these parts, each within prec bits."""
    return Dyadic(re, 0, re_e, prec, False) + Dyadic(0, im, im_e, prec, is_complex)


def _battery():
    """Seeded values: mantissas of 1 to 1100 bits at binary exponents -1200
    to 60, both signs, zero, decimal strings of nines that round up to a
    power of ten, and complex values with a zero part."""
    rng = random.Random(20240801)
    out = [Dyadic(0, 0, 0, 64, False), Dyadic(0, 0, 0, 64, True)]
    for _ in range(1500):
        bits = rng.randint(1, 1100)
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        if rng.random() < 0.5:
            man = -man
        e = rng.randint(-1200, 60)
        out.append(Dyadic(man, 0, e, 1100, False))
        kind = rng.randrange(3)  # zero real part, zero imaginary part, neither
        other = rng.getrandbits(rng.randint(1, 1100)) * rng.choice((1, -1))
        re, im = (0, man) if kind == 0 else (man, 0) if kind == 1 else (man, other)
        out.append(_value(re, e, im, rng.randint(-1200, 60), 1100, True))
    for k in range(1, 300, 7):
        # 10^k (1 - 10^-40) and its reciprocal render as a rounded-up power of ten
        nines = 10 ** (k + 40) - 10 ** k
        out.append(Dyadic.ratio(nines, 10 ** 40, 400))
        out.append(Dyadic.ratio(10 ** 40, nines, 400))
        out.append(-Dyadic.ratio(nines, 10 ** (k + 40), 400))
    return out


BATTERY = _battery()


def _render_mismatches(render) -> int:
    """How many battery values `render` writes other than mp.nstr(x, 30)."""
    return sum(render(v) != mp.nstr(mp.mpmathify(v), 30) for v in BATTERY)


def test_rendering_is_mpmath_nstr():
    assert _render_mismatches(lambda v: v.nstr(30)) == 0
    assert _render_mismatches(cli._render) == 0
    # complex values render both parts, a zero part as 0.0
    assert Dyadic(0, 0, 0, 64, True).nstr(30) == "(0.0 + 0.0j)"
    assert Dyadic(-3, 0, -1, 64, True).nstr(30) == "(-1.5 + 0.0j)"
    assert Dyadic(0, -3, -1, 64, True).nstr(30) == "(0.0 - 1.5j)"


def test_rendering_fault_control():
    # one digit short is caught
    assert _render_mismatches(lambda v: v.nstr(29)) > 0


def _arithmetic_cases(count=3000):
    rng = random.Random(7)

    def number(prec, is_complex):
        def part():
            if rng.random() < 0.1:
                return 0, 0
            man = rng.getrandbits(rng.randint(1, prec)) | 1
            return man * rng.choice((1, -1)), rng.randint(-400, 50)
        (re, re_e), (im, im_e) = part(), part() if is_complex else (0, 0)
        return _value(re, re_e, im, im_e, prec, is_complex)

    for _ in range(count):
        prec = rng.choice((64, 100, 304, 560))
        yield prec, number(prec, rng.random() < 0.7), number(prec, rng.random() < 0.5)


def test_arithmetic_rounds_each_part_as_mpmath():
    m = mp.mpmathify
    for prec, a, b in _arithmetic_cases():
        with mp.workprec(prec):
            assert m(a + b) == m(a) + m(b)
            assert m(a - b) == m(a) - m(b)
            assert m(a * b) == m(a) * m(b)
            assert m(3 * a - 7) == 3 * m(a) - 7
            if b and not b.is_complex:
                assert m(a / b) == m(a) / m(b)
            if not (a.is_complex or b.is_complex):
                assert (a < b, a <= b, a == b) == (m(a) < m(b), m(a) <= m(b), m(a) == m(b))


def test_quotients_roots_and_moduli_correctly_rounded():
    # correctly rounded against mpmath at four times the precision, except
    # the complex square root, which rounds more than once
    m = mp.mpmathify
    for prec, a, b in _arithmetic_cases(1000):
        checks = [(abs(a), lambda: abs(m(a)), 0), (a.sqrt(), lambda: mp.sqrt(m(a)), 2)]
        if b:
            checks.append((a / b, lambda: m(a) / m(b), 0))
        for got, exact, ulps in checks:
            with mp.workprec(4 * prec):
                want = exact()
            with mp.workprec(prec + 64):
                for g, w in ((m(got).real, want.real), (m(got).imag, want.imag)):
                    assert abs(g - w) <= max(ulps, 0.5) * abs(w) * mp.mpf(2) ** (1 - prec), \
                        (prec, a, b)


def _ulps(got, want, bits):
    """|got - want 2^bits| for an integer got over 2^bits, at bits + 64."""
    with mp.workprec(bits + 64):
        return abs(got - want * mp.mpf(2) ** bits)


def _arguments(bits, rng):
    """Fixed-point arguments over 2^bits for exp (in [0, 1)) and for cos/sin
    (any real): random ones, tiny ones and ones near pi/2."""
    one = 1 << bits
    exp_args = [0, 1, one - 1] + [rng.randrange(one) for _ in range(12)]
    exp_args += [rng.randrange(1 << rng.randrange(1, bits)) for _ in range(6)]
    half_pi = pi_fixed(bits - 1)
    trig = [1, 7, -5, half_pi, half_pi - 1, half_pi + 1, half_pi + 3, 2 * half_pi,
            3 * half_pi - 2, -half_pi]
    trig += [rng.randrange(1 << rng.randrange(1, bits)) for _ in range(8)]
    trig += [rng.randrange(-8 * one, 8 * one) for _ in range(8)]
    return exp_args, trig


def _worst_errors(exp=exp_fixed, cos_sin=cos_sin_fixed) -> dict:
    """The largest error in ulp of each function over WIDTHS."""
    rng = random.Random(11)
    worst = dict.fromkeys(("pi", "ln2", "exp", "cos", "sin"), 0)
    for bits in WIDTHS:
        with mp.workprec(bits + 64):
            worst["pi"] = max(worst["pi"], _ulps(pi_fixed(bits), mp.pi, bits))
            worst["ln2"] = max(worst["ln2"], _ulps(ln2_fixed(bits), mp.ln2, bits))
            exp_args, trig = _arguments(bits, rng)
            for x in exp_args:
                want = mp.exp(mp.mpf(x) / 2 ** bits)
                worst["exp"] = max(worst["exp"], _ulps(exp(x, bits), want, bits))
            for x in trig:
                c, s = cos_sin(x, bits)
                t = mp.mpf(x) / 2 ** bits
                worst["cos"] = max(worst["cos"], _ulps(c, mp.cos(t), bits))
                worst["sin"] = max(worst["sin"], _ulps(s, mp.sin(t), bits))
    return worst


def test_fixed_point_functions_within_two_ulp():
    worst = _worst_errors()
    assert all(err <= 2 for err in worst.values()), worst


def test_tiny_sine_keeps_its_precision_near_zero():
    # below the halving threshold the sine comes from its own series, not
    # from sqrt(1 - cos^2), which would lose the bits near 0
    for bits in (64, 640, 1100):
        for shift in (1, bits // 2, bits - 8):
            x = 3 << (bits - shift - 2)
            with mp.workprec(bits + 64):
                assert _ulps(cos_sin_fixed(x, bits)[1], mp.sin(mp.mpf(x) / 2 ** bits), bits) <= 1


def _mutant(fn, old: str, new: str):
    """fn with one piece of its source replaced, compiled in its module's
    namespace: a fault put into the implementation itself."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    namespace = dict(vars(dyadic))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


# (function, source, mutated source): one series term short drops the last
# term the loop adds, one halving dropped undoes one halving less
FAULTS = {
    "exp series one term short": (
        "exp", "        odd += a\n", "        odd += a if a * y2 >> w else 0\n"),
    "exp one halving dropped": (
        "exp", "    for _ in range(r):\n        s = s * s", "    for _ in range(r - 1):\n        s = s * s"),
    "cos series one term short": (
        "cos_sin", "        c1 += a\n", "        c1 += a if a * y4 >> w else 0\n"),
    "sin series one term short": (
        "cos_sin", "            s1 += a // (k + 1)\n",
        "            s1 += a // (k + 1) if a * y4 >> w else 0\n"),
    "cos/sin one halving dropped": (
        "cos_sin", "        for _ in range(r):\n", "        for _ in range(r - 1):\n"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fixed_point_fault_controls(fault):
    name, old, new = FAULTS[fault]
    fixed = {"exp": exp_fixed, "cos_sin": cos_sin_fixed}[name]
    worst = _worst_errors(**{name: _mutant(fixed, old, new)})
    assert any(err > 2 for err in worst.values()), worst


def test_rendering_digits_fault_control(monkeypatch):
    monkeypatch.setattr(cli, "DIGITS", 29)
    assert _render_mismatches(cli._render) > 0
