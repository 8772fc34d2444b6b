"""Dyadic numbers, the one number type from the theta kernel to the
rendered certificate, and the fixed-point functions the kernel takes.

A Dyadic is re 2^re_e + i im 2^im_e: two integer mantissas, each over
its own power of two, a precision `prec` in bits and a flag,
`is_complex`.  Every operation computes each part of its result exactly
in integers and rounds it once, to nearest with ties to even, at `prec`
bits, as mpmath rounds each part of an mpc (a quotient and a square
root by a sticky bit below prec + 1 bits; the complex square root
alone rounds more than once).  A result takes the larger precision of
its operands; an int operand is exact.  So a value carries
its own precision and no context is set anywhere: a lattice makes its
values at prec + GUARD_BITS, and whatever is computed from them stays
there.  A real value (an abs, a deviation, the tolerance) has im = 0
and stays real under real operations; a complex value stays complex,
zero imaginary part or not, and renders as one.  Comparisons are exact
and take real values only.

`_mpf_` and `_mpc_` expose a real and a complex value as mpmath's raw
tuples, read-only, so mpmath, where the tests use it as an oracle,
converts a Dyadic as one of its own numbers (mp.mpmathify); nothing here
imports it.

Rendering: `nstr(digits)` is mpmath's nstr(x, digits), byte for byte.
Each part takes the same binary-to-decimal conversion: the value as a
fixed-point integer with about digits + 3 decimal digits' worth of bits,
its decimal digits truncated, and the last kept digit rounded half up
from the next one.  That holds while the binary exponent stays within
+-3500; beyond, mpmath divides by a rounded power of ten first, while
here the digits stay the exact value's, truncated the same way.

Fixed-point functions take and return integers over 2^bits.  pi is
Machin's 16 atan(1/5) - 4 atan(1/239) and ln 2 is
4 atanh(1/7) + 2 atanh(1/17), each summed at bits + 16 and cached per
bit count.  exp_fixed and cos_sin_fixed take their argument down by
halving, sum a Taylor series at the reduced argument and undo the
halving by squaring or by the double angle (Brent and Zimmermann,
Modern Computer Arithmetic, ch. 4).

Error budget, in ulp of the result (2^-bits):
- pi_fixed, ln2_fixed: one truncation per series term at bits + 16,
  fewer than 2^14 terms, then one rounding: within 1 ulp.
- exp_fixed(x), 0 <= x < 1: r = isqrt(bits) halvings by rescaling x, at
  w = bits + r + 8 bits.  The series costs 1 ulp_w per term, K terms
  (K < 48 up to 4096 bits), and each of the r squarings doubles the
  relative error and adds 1 ulp_w, so the result is within
  (K + 2) 2^r ulp_w = (K + 2) 2^-8 ulp before its rounding: within 1 ulp.
- cos_sin_fixed(x): x is reduced mod pi/2 with pi at
  w0 = bits + 10 + log2|x| bits, which costs under 2^-8 ulp.  With
  r0 = isqrt(bits) // 2, a reduced t < 2^-r0 takes no halving: the cosine
  and the sine come from their own series at w = bits + r0 + 10, within
  K ulp_w.  A larger t is halved r = r0 + log2(t) + 1 times, the cosine
  series is summed at w = bits + 2r + r0 + 10 and the double angle
  c' = 2c^2 - 1 taken r times, each step multiplying the error by up to
  4 and adding 1 ulp_w: the cosine is within (K + 1) 4^r ulp_w =
  (K + 1) 2^-(r0 + 10) ulp.  Its sine is sqrt(1 - c^2), whose error is
  the cosine's over sin t, and sin t >= 2^-(r0 + 1) there: within
  (K + 1) 2^-9 ulp.  Both are then rounded: within 1 ulp.
"""

from __future__ import annotations

import math
from functools import lru_cache

_LOG2_10 = math.log(10, 2)  # the float mpmath's conversion sizes its digits by


# --- fixed point ----------------------------------------------------------------


def _round_shift(x: int, s: int) -> int:
    """x / 2^s rounded to nearest, ties to even; x 2^-s for s < 0."""
    if s <= 0:
        return x << -s
    q = x >> s
    r = x - (q << s)
    half = 1 << (s - 1)
    return q + 1 if r > half or (r == half and q & 1) else q


def _atan_inv(n: int, bits: int, hyperbolic: bool) -> int:
    """atan(1/n), or atanh(1/n), times 2^bits, one truncation per term."""
    n2 = n * n
    power = (1 << bits) // n
    total, k = power, 3
    while power:
        power //= n2
        term = power // k
        total += term if hyperbolic or k & 2 == 0 else -term
        k += 2
    return total


@lru_cache(maxsize=None)
def pi_fixed(bits: int) -> int:
    """pi over 2^bits, within one ulp."""
    w = bits + 16
    return _round_shift(16 * _atan_inv(5, w, False) - 4 * _atan_inv(239, w, False), 16)


@lru_cache(maxsize=None)
def ln2_fixed(bits: int) -> int:
    """ln 2 over 2^bits, within one ulp."""
    w = bits + 16
    return _round_shift(4 * _atan_inv(7, w, True) + 2 * _atan_inv(17, w, True), 16)


def exp_fixed(x: int, bits: int) -> int:
    """exp(x) over 2^bits for x over 2^bits, 0 <= x < 2^bits; within one ulp."""
    r = math.isqrt(bits)
    w = bits + r + 8
    y = x << 8  # x / 2^r over 2^w
    y2 = a = y * y >> w
    even = odd = 1 << w
    k = 2
    while a:  # a = y^k / k!, the odd terms summed over y
        a //= k
        even += a
        k += 1
        a //= k
        odd += a
        k += 1
        a = a * y2 >> w
    s = even + (odd * y >> w)
    for _ in range(r):
        s = s * s >> w
    return _round_shift(s, w - bits)


def cos_sin_fixed(x: int, bits: int) -> tuple:
    """(cos, sin)(x) over 2^bits for any x over 2^bits, each within one ulp."""
    extra = max(0, x.bit_length() - bits)
    w0 = bits + 10 + extra
    q, t = divmod(x << (10 + extra), pi_fixed(w0 - 1))  # t in [0, pi/2) over 2^w0
    r0 = math.isqrt(bits) // 2
    r = max(0, r0 + t.bit_length() - w0)
    w = bits + 2 * r + r0 + 10
    y = _round_shift(t, w0 + r - w)  # t / 2^r over 2^w
    one = 1 << w
    y2 = a = y * y >> w
    y4 = y2 * y2 >> w
    c0 = c1 = s0 = s1 = 0
    k = 2
    # a = y^k / k! for even k; c0 and c1 collect the terms k = 2 and 0
    # mod 4, the latter without its y^2, and s0 and s1 the sine's,
    # y^(k+1) / (k+1)!, without its y
    while a:
        a //= (k - 1) * k
        c0 += a
        if not r:
            s0 += a // (k + 1)
        k += 2
        a //= (k - 1) * k
        c1 += a
        if not r:
            s1 += a // (k + 1)
        k += 2
        a = a * y4 >> w
    c = one - c0 + (c1 * y2 >> w)
    if r:
        for _ in range(r):
            c = (c * c >> (w - 1)) - one
        s = math.isqrt((one << w) - c * c)
    else:
        s = y - (s0 * y >> w) + ((s1 * y2 >> w) * y >> w)
    c, s = _round_shift(c, w - bits), _round_shift(s, w - bits)
    for _ in range(q % 4):
        c, s = -s, c
    return c, s


# --- the value type -------------------------------------------------------------


def _new(re: int, re_e: int, im: int, im_e: int, prec: int, is_complex: bool) -> "Dyadic":
    """A Dyadic of exactly these fields, unrounded."""
    v = object.__new__(Dyadic)
    v.re, v.re_e, v.im, v.im_e, v.prec, v.is_complex = re, re_e, im, im_e, prec, is_complex
    return v


def _fit(man: int, e: int, prec: int) -> tuple:
    """man 2^e rounded to nearest at prec bits, as (man, e)."""
    s = man.bit_length() - prec
    return (_round_shift(man, s), e + s) if s > 0 else (man, e)


def _rounded(re: int, re_e: int, im: int, im_e: int, prec: int,
             is_complex: bool) -> "Dyadic":
    """re 2^re_e + i im 2^im_e with each part rounded to prec bits."""
    return _new(*_fit(re, re_e, prec), *_fit(im, im_e, prec), prec, is_complex)


def _sum(a: int, ae: int, b: int, be: int) -> tuple:
    """a 2^ae + b 2^be exactly, as (man, e)."""
    if not b:
        return a, ae
    if not a:
        return b, be
    if ae > be:
        return (a << (ae - be)) + b, be
    return a + (b << (be - ae)), ae


def _quotient(n: int, ne: int, d: int, de: int, prec: int) -> tuple:
    """n 2^ne / (d 2^de), d != 0, rounded to nearest at prec bits: the
    quotient to prec + 1 bits or more, its remainder as a sticky bit below
    them, so the one rounding is exact."""
    if d < 0:
        n, d = -n, -d
    if not n:
        return 0, 0
    k = max(0, prec + 2 + d.bit_length() - abs(n).bit_length())
    q, r = divmod(n << k, d)
    return _fit(2 * q + (r > 0), ne - de - k - 1, prec)


def _root(n: int, e: int, prec: int) -> tuple:
    """sqrt(n 2^e), n >= 0, rounded to nearest at prec bits, the root first
    taken to prec + 4 bits or more with a sticky last bit."""
    if e & 1:
        n, e = n << 1, e - 1
    k = max(0, prec + 4 - n.bit_length() // 2)
    root = math.isqrt(n << 2 * k)
    return _fit(2 * root + (root * root != n << 2 * k), e // 2 - k - 1, prec)


def _parts(x):
    """(re, re_e, im, im_e, prec, is_complex) of a Dyadic or an int, else None."""
    if type(x) is Dyadic:
        return x.re, x.re_e, x.im, x.im_e, x.prec, x.is_complex
    if isinstance(x, int):
        return int(x), 0, 0, 0, 0, False
    return None


def _mpf_tuple(man: int, e: int) -> tuple:
    """man 2^e as mpmath's normalized (sign, man, exp, bc)."""
    if not man:
        return (0, 0, 0, 0)
    sign, man = (1, -man) if man < 0 else (0, man)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (sign, man, e + zeros, man.bit_length())


class Dyadic:
    """re 2^re_e + i im 2^im_e at precision `prec`, real or complex; immutable."""

    __slots__ = ("re", "re_e", "im", "im_e", "prec", "is_complex")

    def __init__(self, re: int, im: int, e: int, prec: int, is_complex: bool):
        """(re + i im) 2^e with each part rounded to prec bits."""
        v = _rounded(re, e, im, e, prec, is_complex)
        self.re, self.re_e, self.im, self.im_e = v.re, v.re_e, v.im, v.im_e
        self.prec, self.is_complex = prec, is_complex

    @staticmethod
    def ratio(num: int, den: int, prec: int) -> "Dyadic":
        """The real num/den, den != 0, rounded to nearest at prec bits."""
        return _new(*_quotient(num, 0, den, 0, prec), 0, 0, prec, False)

    # --- views ---

    @property
    def real(self) -> "Dyadic":
        return _new(self.re, self.re_e, 0, 0, self.prec, False)

    @property
    def imag(self) -> "Dyadic":
        return _new(self.im, self.im_e, 0, 0, self.prec, False)

    def mantissas(self) -> tuple:
        """(re, im, e), the value exactly (re + i im) 2^e."""
        if not self.im:
            return self.re, 0, self.re_e
        if not self.re:
            return 0, self.im, self.im_e
        e = min(self.re_e, self.im_e)
        return self.re << (self.re_e - e), self.im << (self.im_e - e), e

    @property
    def _mpf_(self) -> tuple:
        if self.is_complex:
            raise AttributeError("a complex Dyadic has no _mpf_")
        return _mpf_tuple(self.re, self.re_e)

    @property
    def _mpc_(self) -> tuple:
        if not self.is_complex:
            raise AttributeError("a real Dyadic has no _mpc_")
        return _mpf_tuple(self.re, self.re_e), _mpf_tuple(self.im, self.im_e)

    def __float__(self) -> float:
        if self.is_complex:
            raise TypeError("a complex Dyadic has no float value")
        e = self.re_e
        return float(self.re << e) if e >= 0 else self.re / (1 << -e)

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __repr__(self) -> str:
        return f"Dyadic({self.nstr(max(1, self.prec * 3 // 10))})"

    # --- arithmetic, each part computed exactly and rounded once ---

    def __neg__(self) -> "Dyadic":
        return _new(-self.re, self.re_e, -self.im, self.im_e, self.prec, self.is_complex)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        br, bre, bi, bie, bp, bc = o
        return _rounded(*_sum(self.re, self.re_e, br, bre), *_sum(self.im, self.im_e, bi, bie),
                        max(self.prec, bp), self.is_complex or bc)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        br, bre, bi, bie, bp, bc = o
        return _rounded(*_sum(self.re, self.re_e, -br, bre), *_sum(self.im, self.im_e, -bi, bie),
                        max(self.prec, bp), self.is_complex or bc)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        br, bre, bi, bie, bp, bc = o
        ar, are, ai, aie = self.re, self.re_e, self.im, self.im_e
        re = _sum(ar * br, are + bre, -ai * bi, aie + bie)
        im = _sum(ar * bi, are + bie, ai * br, aie + bre)
        return _rounded(*re, *im, max(self.prec, bp), self.is_complex or bc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(self.re, self.re_e, self.im, self.im_e, self.prec, self.is_complex, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(*o, self.re, self.re_e, self.im, self.im_e, self.prec, self.is_complex)

    def __pow__(self, k):
        """self^k for an int k, by square-and-multiply, each product rounded."""
        if not isinstance(k, int):
            return NotImplemented
        out = _new(1, 0, 0, 0, self.prec, self.is_complex)
        for bit in bin(abs(k))[2:]:
            out = out * out
            if bit == "1":
                out = out * self
        return 1 / out if k < 0 else out

    def __abs__(self) -> "Dyadic":
        if not self.im:
            return _new(abs(self.re), self.re_e, 0, 0, self.prec, False)
        n2 = _sum(self.re * self.re, 2 * self.re_e, self.im * self.im, 2 * self.im_e)
        return _new(*_root(*n2, self.prec), 0, 0, self.prec, False)

    def sqrt(self) -> "Dyadic":
        """The principal square root; complex for a complex value or a
        negative real one."""
        if not self.is_complex and self.re >= 0:
            return _new(*_root(self.re, self.re_e, self.prec), 0, 0, self.prec, False)
        # t = sqrt((|z| + |Re z|) / 2); the root is t + i Im z/(2t) for
        # Re z >= 0 and |Im z|/(2t) + i sign(Im z) t for Re z < 0
        z = _new(self.re, self.re_e, self.im, self.im_e, self.prec + 8, True)
        t = ((abs(z) + abs(z.real)) / 2).sqrt()
        if not t:
            return _new(0, 0, 0, 0, self.prec, True)
        other = z.imag / (2 * t)
        if self.re >= 0:
            re, im = t, other
        elif self.im < 0:
            re, im = -other, -t
        else:
            re, im = other, t
        return _rounded(re.re, re.re_e, im.re, im.re_e, self.prec, True)

    # --- exact comparisons, real values only ---

    def _sign_of_difference(self, other):
        o = _parts(other)
        if o is None:
            return None
        br, bre, _bi, _bie, _bp, bc = o
        if self.is_complex or bc:
            raise TypeError("no ordering relation is defined for complex numbers")
        diff = _sum(self.re, self.re_e, -br, bre)[0]
        return (diff > 0) - (diff < 0)

    def __lt__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s >= 0

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        br, bre, bi, bie, _bp, _bc = o
        return not (_sum(self.re, self.re_e, -br, bre)[0]
                    or _sum(self.im, self.im_e, -bi, bie)[0])

    __hash__ = None

    # --- rendering ---

    def nstr(self, digits: int) -> str:
        """The value at `digits` significant digits, as mpmath's nstr."""
        re = _to_str(self.re, self.re_e, digits)
        if not self.is_complex:
            return re
        if self.im < 0:
            return f"({re} - {_to_str(-self.im, self.im_e, digits)}j)"
        return f"({re} + {_to_str(self.im, self.im_e, digits)}j)"


I = _new(0, 0, 1, 0, 0, True)  # the exact imaginary unit


def _divide(ar, are, ai, aie, ap, ac, br, bre, bi, bie, bp, bc) -> Dyadic:
    """a / b, each part of a conj(b) / |b|^2 exact and its quotient
    rounded once."""
    prec = max(ap, bp)
    if not (br or bi):
        raise ZeroDivisionError("division by a zero Dyadic")
    if bi:
        n2 = _sum(br * br, 2 * bre, bi * bi, 2 * bie)
        re = _sum(ar * br, are + bre, ai * bi, aie + bie)
        im = _sum(ai * br, aie + bre, -ar * bi, are + bie)
    else:
        n2, re, im = (br, bre), (ar, are), (ai, aie)
    return _new(*_quotient(*re, *n2, prec), *_quotient(*im, *n2, prec), prec, ac or bc)


def _to_str(man: int, e: int, dps: int) -> str:
    """man 2^e at dps significant digits, as mpmath's to_str."""
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    bc = man.bit_length()
    bitprec = int((dps + 3) * _LOG2_10) + 10
    fixprec = max(bitprec - e - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = e + fixprec
    sf = man << shift if shift >= 0 else man >> -shift
    digits = str(sf * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > dps and digits[dps] in "56789":
        digits = digits[:dps]
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
