"""Polynomials over GF(p): interpolation and Reed-Solomon decoding.

The MPC substrate relies on three operations here:

* :func:`lagrange_interpolate` — exact interpolation through clean points
  (used by honest dealers and by reconstruction when no faults occurred).
* :func:`berlekamp_welch` — decode a degree-``d`` polynomial from points of
  which up to ``e`` may be corrupted (``len(points) >= d + 1 + 2e``). This is
  what makes openings *robust*: a Byzantine party sending a wrong share is
  simply corrected away.
* :func:`robust_interpolate` — the online-error-correction wrapper used by
  asynchronous openings: given the points received so far, either return the
  unique degree-``d`` polynomial consistent with all-but-``e`` of them or
  report that more points are needed.

Openings decode on every received share, so these functions convert their
points to plain ints mod p once, do all interpolation, elimination and
division on ints, and build :class:`GFElement` coefficients only for the
returned :class:`Polynomial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import DecodingError, FieldError
from repro.field.gf import GF, GFElement


@dataclass(frozen=True)
class Polynomial:
    """A polynomial over GF(p), stored as a coefficient tuple (low first)."""

    field: GF
    coeffs: tuple[GFElement, ...]

    @staticmethod
    def from_ints(field: GF, coeffs: Sequence[int]) -> "Polynomial":
        return Polynomial(field, tuple(field(c) for c in coeffs)).normalized()

    @staticmethod
    def zero(field: GF) -> "Polynomial":
        return Polynomial(field, ())

    @staticmethod
    def random(field: GF, degree: int, rng, constant: Optional[GFElement] = None) -> "Polynomial":
        """Random polynomial of exactly the given degree bound.

        If ``constant`` is supplied it becomes the constant term (the secret,
        in Shamir terms); remaining coefficients are uniform.
        """
        coeffs = [field.random(rng) for _ in range(degree + 1)]
        if constant is not None:
            coeffs[0] = field(constant)
        return Polynomial(field, tuple(coeffs)).normalized()

    # -- structural --------------------------------------------------------

    def normalized(self) -> "Polynomial":
        """Strip trailing zero coefficients."""
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1].value == 0:
            coeffs.pop()
        return Polynomial(self.field, tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- evaluation --------------------------------------------------------

    def __call__(self, x) -> GFElement:
        field = self.field
        values = [c.value for c in self.coeffs]
        return GFElement(field, _evaluate(values, field(x).value, field.p))

    def evaluate_many(self, xs: Sequence) -> list[GFElement]:
        return [self(x) for x in xs]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if other.field is not self.field:
            raise FieldError("mixed-field polynomial operation")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        coeffs = tuple(
            (self.coeffs[i] if i < len(self.coeffs) else zero)
            + (other.coeffs[i] if i < len(other.coeffs) else zero)
            for i in range(n)
        )
        return Polynomial(self.field, coeffs).normalized()

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (GFElement, int)):
            scalar = self.field(other)
            return Polynomial(
                self.field, tuple(c * scalar for c in self.coeffs)
            ).normalized()
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.value == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, tuple(out)).normalized()

    __rmul__ = __mul__

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Polynomial long division; returns (quotient, remainder)."""
        self._check(divisor)
        divisor = divisor.normalized()
        if divisor.is_zero():
            raise FieldError("polynomial division by zero")
        quotient, remainder = _divmod(
            [c.value for c in self.coeffs],
            [c.value for c in divisor.coeffs],
            self.field.p,
        )
        return (
            _to_polynomial(self.field, quotient),
            _to_polynomial(self.field, remainder),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field is other.field
            and self.normalized().coeffs == other.normalized().coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.normalized().coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({[c.value for c in self.coeffs]} over GF({self.field.p}))"


# -- plain-int kernels (coefficient lists, low first, trailing zeros stripped) --


def _residues(field: GF, values) -> list[int]:
    """``values`` (ints or elements of ``field``) as canonical ints mod p."""
    p = field.p
    out = []
    for value in values:
        if isinstance(value, GFElement):
            if value.field is not field:
                raise FieldError("cannot coerce element across fields")
            out.append(value.value)
        else:
            out.append(value % p)
    return out


def _to_polynomial(field: GF, coeffs: Sequence[int]) -> Polynomial:
    return Polynomial(field, tuple(GFElement(field, c) for c in coeffs))


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _evaluate(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for coeff in reversed(coeffs):
        acc = (acc * x + coeff) % p
    return acc


def _interpolate(xs: Sequence[int], ys: Sequence[int], p: int) -> list[int]:
    """Lagrange interpolation through distinct ``xs``.

    Each basis numerator prod_{j != i} (x - x_j) is the master polynomial
    prod_j (x - x_j) divided by (x - x_i) (synthetic division), so the
    whole interpolation costs O(len(xs)^2) multiplications.
    """
    master = [1]
    for xj in xs:
        shifted = [0] + master
        for k, coeff in enumerate(master):
            shifted[k] = (shifted[k] - xj * coeff) % p
        master = shifted
    size = len(xs)
    result = [0] * size
    for xi, yi in zip(xs, ys):
        if yi == 0:
            continue
        numerator = [0] * size
        numerator[size - 1] = carry = master[size]
        for k in range(size - 1, 0, -1):
            carry = numerator[k - 1] = (master[k] + xi * carry) % p
        scale = yi * pow(_evaluate(numerator, xi, p), p - 2, p) % p
        for k, coeff in enumerate(numerator):
            result[k] = (result[k] + coeff * scale) % p
    return _strip(result)


def _divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Long division of stripped coefficient lists (``den`` non-zero)."""
    remainder = list(num)
    quotient = [0] * max(0, len(remainder) - len(den) + 1)
    inv_lead = pow(den[-1], p - 2, p)
    for shift in range(len(remainder) - len(den), -1, -1):
        factor = remainder[shift + len(den) - 1] * inv_lead % p
        if factor == 0:
            continue
        quotient[shift] = factor
        for i, dcoeff in enumerate(den):
            remainder[shift + i] = (remainder[shift + i] - factor * dcoeff) % p
    return _strip(quotient), _strip(remainder)


def _solve(aug: list[list[int]], n_cols: int, p: int) -> Optional[list[int]]:
    """Gaussian elimination on augmented rows over GF(p), in place.

    Returns one solution (free variables set to zero) or None when the
    system is inconsistent.
    """
    n_rows = len(aug)
    if n_rows == 0:
        return []
    pivot_cols: list[int] = []
    row_idx = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row_idx, n_rows):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        aug[row_idx], aug[pivot] = aug[pivot], aug[row_idx]
        inv = pow(aug[row_idx][col], p - 2, p)
        pivot_row = aug[row_idx] = [v * inv % p for v in aug[row_idx]]
        for r in range(n_rows):
            factor = aug[r][col]
            if r != row_idx and factor != 0:
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], pivot_row)]
        pivot_cols.append(col)
        row_idx += 1
        if row_idx == n_rows:
            break
    # Check consistency of zero rows.
    for r in range(row_idx, n_rows):
        if aug[r][n_cols] != 0:
            return None
    solution = [0] * n_cols
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n_cols]
    return solution


def _berlekamp_welch_fixed_e(
    xs: Sequence[int], ys: Sequence[int], degree: int, e: int, p: int
) -> Optional[list[int]]:
    """Solve the BW linear system for exactly ``e`` errors; None on failure."""
    q_len = degree + e + 1  # unknown coefficients of Q
    # Unknowns: q_0..q_{degree+e}, e_0..e_{e-1}  (E is monic of degree e).
    n_unknowns = q_len + e
    aug = []
    for x, y in zip(xs, ys):
        row = [0] * (n_unknowns + 1)
        xp = 1
        for j in range(q_len):
            row[j] = xp
            xp = xp * x % p
        xp = 1
        for j in range(e):
            row[q_len + j] = -(y * xp) % p
            xp = xp * x % p
        # Monic term of E contributes y * x^e to the RHS.
        row[n_unknowns] = y * pow(x, e, p) % p
        aug.append(row)
    solution = _solve(aug, n_unknowns, p)
    if solution is None:
        return None
    q_poly = _strip(solution[:q_len])
    e_poly = _strip(solution[q_len:] + [1])
    quotient, remainder = _divmod(q_poly, e_poly, p)
    if remainder:
        return None
    return quotient


def _agreement(coeffs: Sequence[int], xs, ys, p: int) -> int:
    return sum(1 for x, y in zip(xs, ys) if _evaluate(coeffs, x, p) == y)


def _decode(
    xs: Sequence[int], ys: Sequence[int], degree: int, max_errors: int, p: int
) -> Optional[list[int]]:
    """Berlekamp-Welch on validated int points; None if no polynomial fits."""
    # Fast path: the points may already be consistent.
    exact = _interpolate(xs[: degree + 1], ys[: degree + 1], p)
    if len(exact) - 1 <= degree and _agreement(exact, xs, ys, p) == len(xs):
        return exact
    for e in range(1, max_errors + 1):
        poly = _berlekamp_welch_fixed_e(xs, ys, degree, e, p)
        if poly is not None:
            if (
                _agreement(poly, xs, ys, p) >= len(xs) - max_errors
                and len(poly) - 1 <= degree
            ):
                return poly
    return None


def _distinct_points(field: GF, points: Sequence[tuple], what: str):
    xs = _residues(field, [x for x, _ in points])
    ys = _residues(field, [y for _, y in points])
    if len(set(xs)) != len(xs):
        raise FieldError(f"{what} points must have distinct x values")
    return xs, ys


# -- public API ------------------------------------------------------------


def lagrange_interpolate(field: GF, points: Sequence[tuple], ) -> Polynomial:
    """Interpolate the unique polynomial of degree < len(points).

    ``points`` is a sequence of (x, y) pairs with distinct x values.
    """
    xs, ys = _distinct_points(field, points, "interpolation")
    return _to_polynomial(field, _interpolate(xs, ys, field.p))


def lagrange_coefficients_at_zero(field: GF, xs: Sequence) -> list[GFElement]:
    """Coefficients lambda_i with p(0) = sum_i lambda_i * p(x_i).

    These are the recombination weights used everywhere in Shamir-based MPC.
    """
    p = field.p
    xs = _residues(field, xs)
    coeffs = []
    for i, xi in enumerate(xs):
        num = 1
        den = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * -xj % p
            den = den * (xi - xj) % p
        if den == 0:
            raise FieldError("zero has no multiplicative inverse")
        coeffs.append(GFElement(field, num * pow(den, p - 2, p)))
    return coeffs


def berlekamp_welch(
    field: GF,
    points: Sequence[tuple],
    degree: int,
    max_errors: int,
) -> Polynomial:
    """Decode a degree-``degree`` polynomial from noisy evaluations.

    Requires ``len(points) >= degree + 1 + 2 * max_errors``. Returns the
    unique polynomial agreeing with at least ``len(points) - max_errors`` of
    the given points, or raises :class:`DecodingError` if none exists.

    Implementation: classic Berlekamp-Welch. Find polynomials E (monic,
    deg <= e) and Q (deg <= degree + e) with Q(x_i) = y_i * E(x_i) for all i;
    then P = Q / E.
    """
    xs, ys = _distinct_points(field, points, "decoding")
    if degree < 0:
        raise FieldError("degree must be >= 0 for decoding")
    if len(xs) < degree + 1 + 2 * max_errors:
        raise DecodingError(
            f"need >= {degree + 1 + 2 * max_errors} points to correct "
            f"{max_errors} errors at degree {degree}, got {len(xs)}"
        )
    coeffs = _decode(xs, ys, degree, max_errors, field.p)
    if coeffs is None:
        raise DecodingError(
            f"no degree-{degree} polynomial within {max_errors} errors of "
            f"the points"
        )
    return _to_polynomial(field, coeffs)


def robust_interpolate(
    field: GF,
    points: Sequence[tuple],
    degree: int,
    total_parties: int,
    max_faulty: int,
) -> Optional[Polynomial]:
    """Online-error-correction step for asynchronous robust openings.

    Given the points received *so far* (of which up to ``max_faulty`` may be
    corrupted — but we do not know which), return the unique degree-``degree``
    polynomial that is guaranteed correct, or ``None`` if more points must be
    awaited.

    The guarantee: a returned polynomial agrees with at least
    ``degree + max_faulty + 1`` of the received points, hence with at least
    ``degree + 1`` honest points, hence equals the honest polynomial.
    """
    received = len(points)
    needed = degree + max_faulty + 1
    if received < needed:
        return None  # no candidate can agree with enough points yet
    xs, ys = _distinct_points(field, points, "decoding")
    if degree < 0:
        raise FieldError("degree must be >= 0 for decoding")
    p = field.p
    # Try every error budget e supportable by the current point count.
    best_e = min(max_faulty, (received - degree - 1) // 2)
    for e in range(0, best_e + 1):
        coeffs = _decode(xs, ys, degree, e, p)
        if coeffs is not None and _agreement(coeffs, xs, ys, p) >= needed:
            return _to_polynomial(field, coeffs)
    return None
