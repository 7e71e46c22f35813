"""Kazhdan-Lusztig polynomials and parabolic Verma multiplicities.

Two independent routes are implemented:

* :func:`kl_polynomial` runs the classical recursion on left descents:
  with ``s`` a left descent of ``w``, either ``P(x, w) = P(sx, w)`` when
  ``sx > x``, or ::

      P(x, w) = P(sx, sw) + q P(x, sw)
                - sum_z mu(z, sw) q^{(len(w) - len(z)) / 2} P(x, z)

  over ``x <= z <= sw`` with ``sz < z``, where ``mu(z, v)`` is the
  coefficient of degree ``(len(v) - len(z) - 1) / 2`` in ``P(z, v)``.

* :func:`kl_by_inversion` determines the whole column ``P(-, w)`` from the
  R-polynomials alone, using the inversion identity ::

      q^{len(w) - len(x)} P(x, w)(1/q) = sum_{x <= z <= w} R(x, z) P(z, w)

  by descending length: the low-degree half of the right side determines
  ``P(x, w)``, and the identity is then re-checked exactly.  The
  R-polynomials follow their own recursion on *right* descents, so this
  route shares no Bruhat-order or descent code path with the first.

``verma_multiplicity(u, v)`` is ``P(u, v)(1)``, which equals the value for
the pair conjugated by the longest element: the multiplicity of the simple
quotient indexed by ``u`` inside the (dual) standard object indexed by
``v`` in the dominant block convention used throughout.

Every polynomial here has integer coefficients and is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from .weyl import WeylElement, WeylGroup

__all__ = [
    "KLPolynomial",
    "kl_polynomial",
    "mu_coefficient",
    "verma_multiplicity",
    "r_polynomial",
    "kl_by_inversion",
]


@dataclass(frozen=True)
class KLPolynomial:
    """An integer polynomial in ``q``; coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(values: list[int] | tuple[int, ...]) -> KLPolynomial:
        trimmed = list(values)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return KLPolynomial(tuple(trimmed))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __add__(self, other: KLPolynomial) -> KLPolynomial:
        size = max(len(self.coeffs), len(other.coeffs))
        return KLPolynomial.from_coeffs(
            [self.coefficient(k) + other.coefficient(k) for k in range(size)]
        )

    def __sub__(self, other: KLPolynomial) -> KLPolynomial:
        size = max(len(self.coeffs), len(other.coeffs))
        return KLPolynomial.from_coeffs(
            [self.coefficient(k) - other.coefficient(k) for k in range(size)]
        )

    def __mul__(self, other: KLPolynomial | int) -> KLPolynomial:
        if isinstance(other, int):
            return KLPolynomial.from_coeffs([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return KLPolynomial.from_coeffs(out)

    __rmul__ = __mul__

    def shifted(self, power: int) -> KLPolynomial:
        """Multiply by ``q**power``."""
        if self.is_zero:
            return ZERO
        return KLPolynomial((0,) * power + self.coeffs)

    def truncated(self, max_degree: int) -> KLPolynomial:
        """Keep only the terms of degree ``<= max_degree``."""
        if max_degree < 0:
            return ZERO
        return KLPolynomial.from_coeffs(self.coeffs[: max_degree + 1])

    def reversed_in_degree(self, window: int) -> KLPolynomial:
        """``q**window * p(1/q)`` for a polynomial of degree ``<= window``."""
        if self.degree > window:
            raise ValueError(f"degree {self.degree} exceeds window {window}")
        padded = list(self.coeffs) + [0] * (window + 1 - len(self.coeffs))
        return KLPolynomial.from_coeffs(padded[::-1])

    def __call__(self, value: int) -> int:
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power, c in enumerate(self.coeffs):
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                term = str(magnitude)
            elif power == 1:
                term = "q" if magnitude == 1 else f"{magnitude}*q"
            else:
                term = f"q^{power}" if magnitude == 1 else f"{magnitude}*q^{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ZERO = KLPolynomial(())
ONE = KLPolynomial((1,))

_KL_MEMOS: WeakKeyDictionary[WeylGroup, dict[tuple[int, int], KLPolynomial]] = (
    WeakKeyDictionary()
)
_R_MEMOS: WeakKeyDictionary[WeylGroup, dict[tuple[int, int], KLPolynomial]] = (
    WeakKeyDictionary()
)


def _memo_for(
    store: WeakKeyDictionary[WeylGroup, dict], group: WeylGroup
) -> dict[tuple[int, int], KLPolynomial]:
    memo = store.get(group)
    if memo is None:
        memo = {}
        store[group] = memo
    return memo


def kl_polynomial(group: WeylGroup, x: WeylElement, w: WeylElement) -> KLPolynomial:
    """The Kazhdan-Lusztig polynomial ``P(x, w)``, by the descent recursion."""
    memo = _memo_for(_KL_MEMOS, group)
    return _kl(group, memo, x, w)


def _kl(
    group: WeylGroup,
    memo: dict[tuple[int, int], KLPolynomial],
    x: WeylElement,
    w: WeylElement,
) -> KLPolynomial:
    if x is w:
        return ONE
    if not group.bruhat_leq(x, w):
        return ZERO
    key = (x._serial, w._serial)
    found = memo.get(key)
    if found is not None:
        return found
    i = min(group.left_descents(w))
    s = group.simple_reflection(i)
    sw = group.multiply(s, w)
    sx = group.multiply(s, x)
    if sx.length > x.length:
        result = _kl(group, memo, sx, w)
    else:
        result = _kl(group, memo, sx, sw) + _kl(group, memo, x, sw).shifted(1)
        for z in group.bruhat_interval(x, sw):
            if i not in group.left_descents(z):
                continue
            correction = mu_coefficient(group, z, sw)
            if correction:
                power = (w.length - z.length) // 2
                result = result - correction * _kl(group, memo, x, z).shifted(power)
    # Invariants of the finite Weyl group case: constant term one, strict
    # degree bound, nonnegative coefficients.
    assert result.coefficient(0) == 1
    assert 2 * result.degree <= w.length - x.length - 1
    assert all(c >= 0 for c in result.coeffs)
    memo[key] = result
    return result


def mu_coefficient(group: WeylGroup, z: WeylElement, w: WeylElement) -> int:
    """Coefficient of ``q^{(len(w) - len(z) - 1)/2}`` in ``P(z, w)``; often zero."""
    gap = w.length - z.length - 1
    if gap < 0 or gap % 2 != 0:
        return 0
    return kl_polynomial(group, z, w).coefficient(gap // 2)


def verma_multiplicity(group: WeylGroup, u: WeylElement, v: WeylElement) -> int:
    """Multiplicity of the simple indexed by ``u`` in the standard indexed by ``v``.

    Defined as the value at ``q = 1`` of the polynomial of the pair
    ``(w0 u w0, w0 v w0)`` conjugated by the longest element ``w0``.
    Conjugation by ``w0`` is an automorphism of the diagram, so this is
    ``kl_polynomial(u, v)(1)``, which is what is evaluated (the invariance
    is asserted in the test-suite, not here).  Positive exactly when
    ``u <= v`` in Bruhat order.
    """
    return kl_polynomial(group, u, v)(1)


def r_polynomial(group: WeylGroup, x: WeylElement, w: WeylElement) -> KLPolynomial:
    """The R-polynomial ``R(x, w)``, by the recursion on right descents.

    ``R(x, w)`` is nonzero exactly when ``x <= w``; this route never calls
    the Bruhat-order or left-descent code.
    """
    memo = _memo_for(_R_MEMOS, group)
    return _r(group, memo, x, w)


def _r(
    group: WeylGroup,
    memo: dict[tuple[int, int], KLPolynomial],
    x: WeylElement,
    w: WeylElement,
) -> KLPolynomial:
    if x is w:
        return ONE
    if x.length >= w.length:
        return ZERO
    key = (x._serial, w._serial)
    found = memo.get(key)
    if found is not None:
        return found
    i = min(group.right_descents(w))
    s = group.simple_reflection(i)
    ws = group.multiply(w, s)
    xs = group.multiply(x, s)
    if xs.length < x.length:
        result = _r(group, memo, xs, ws)
    else:
        tail = _r(group, memo, x, ws)
        result = tail.shifted(1) - tail + _r(group, memo, xs, ws).shifted(1)
    memo[key] = result
    return result


def kl_by_inversion(
    group: WeylGroup, w: WeylElement
) -> dict[WeylElement, KLPolynomial]:
    """The whole column ``x -> P(x, w)`` from R-polynomials alone.

    Works down from ``w`` by length.  For each ``x`` the inversion identity
    determines the low-degree half of ``P(x, w)`` from already-known longer
    rows, and the full identity is then re-checked exactly; elements not
    below ``w`` come out as zero automatically.  Returns a dict over all
    ``x`` with ``length(x) <= length(w)``.
    """
    column: dict[WeylElement, KLPolynomial] = {w: ONE}
    pool = [x for x in group.enumerate_group() if x.length <= w.length]
    pool.sort(key=lambda x: (-x.length, x._serial))
    for x in pool:
        if x is w:
            continue
        window = w.length - x.length
        tail = ZERO
        for z in pool:
            if z.length <= x.length:
                continue
            known = column[z]
            if known.is_zero:
                continue
            r_part = r_polynomial(group, x, z)
            if not r_part.is_zero:
                tail = tail + r_part * known
        head = tail.truncated((window - 1) // 2)
        candidate = head * -1
        assert candidate.reversed_in_degree(window) == candidate + tail, (
            "inversion identity failed; R- and P-recursions disagree"
        )
        column[x] = candidate
    return column
