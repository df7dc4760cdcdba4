"""Qualifying primes and the explicit 4-by-6 biclique they carry in P(p,4).

A prime qualifies when p = 1 mod 3, x^3 - 2 and x^3 - 3 stay irreducible
mod p, x^3 - 6 splits into three distinct linear factors, and p divides
neither of the two discriminant constants below.  Each qualifying prime
yields ten explicit vertices of P(p,4) forming a complete bipartite 4x6
subgraph, verified both as graph adjacencies and as closed-form identities.
"""

from __future__ import annotations

from array import array
from math import isqrt
from typing import NamedTuple

from .ff import ExtElement, ExtField, fp_inv
# make_graph and poly_pow_mod are unused here; perfbench/layers.py rebinds
# k46.make_graph and k46.poly_pow_mod
from .graph import NormGraph, Vertex, WitnessReport, make_graph  # noqa: F401
from .parallel import run_tasks, worker_count
from .polys import (
    discriminant,
    int_poly_mul,
    is_irreducible,
    poly_eval,
    poly_pow_mod,  # noqa: F401
    power_residue,
    primitive_nth_root,
    roots_in_base,
)
from .primes import is_prime, primes_up_to

X3_MINUS_2 = [-2, 0, 0, 1]
X3_MINUS_3 = [-3, 0, 0, 1]

# the cubic whose roots supply the second half of the witness
WITNESS_CUBIC = [7, 3, 21, 1]

# guard against transcription slips: both constants are recomputed from the
# integer polynomials at import and must land on the published values
PRODUCT_DISC = discriminant(int_poly_mul(X3_MINUS_2, X3_MINUS_3))
WITNESS_CUBIC_DISC = discriminant(WITNESS_CUBIC)
if PRODUCT_DISC != 26244:
    raise AssertionError(f"discriminant of (x^3-2)(x^3-3) came out as {PRODUCT_DISC}")
if WITNESS_CUBIC_DISC != -248832:
    raise AssertionError(f"discriminant of the witness cubic came out as {WITNESS_CUBIC_DISC}")

DENSITY_TARGET = 1 / 9

# the rejection reasons, in the order the conditions are tested (perfbench
# parses these texts): the discriminants, p = 1 mod 3, and then the three
# cube conditions, that 2 and 3 are no cubes mod p and 6 is one
REASONS = (
    f"{{p}} divides both discriminants {PRODUCT_DISC} and {WITNESS_CUBIC_DISC}",
    "{p} is not 1 mod 3 (no primitive cube root of unity)",
    "2 is a cube mod {p} (x^3 - 2 is not irreducible)",
    "3 is a cube mod {p} (x^3 - 3 is not irreducible)",
    "6 is not a cube mod {p} (x^3 - 6 does not split)",
)


class QualifyingCertificate(NamedTuple):
    p: int
    zeta: int  # smallest primitive cube root of unity
    cubic_roots: tuple[int, int, int]  # roots of the witness cubic, ascending


class Rejection(NamedTuple):
    p: int
    reason: str


class DegeneracyError(ValueError):
    """Witness vertices collided or a second coordinate vanished."""


def _reciprocity_formulation(p: int, r: int) -> int | None:
    """Index of the first cube condition that fails, by cubic reciprocity,
    or None: 2 and 3 not cubes mod p, and 6 one (Ireland and Rosen, A
    Classical Introduction to Modern Number Theory, ch. 9).  r is a square
    root of -3 mod p.

    p = 1 mod 3 splits in Z[w] as p = a^2 - ab + b^2 = N(a + bw), and
    Z[w]/(pi) = F_p for pi = a + bw, so c is a cube mod p exactly when the
    cubic residue character chi_pi(c) is 1.  (a, b) comes from Cornacchia's
    algorithm on x^2 + 3y^2 = p: Euclid on (p, r mod p) down to the first
    remainder x below sqrt(p), then y^2 = (p - x^2)/3 and (a, b) =
    (x + y, 2y).  a^2 - ab + b^2 == p certifies the pair, so the verdict
    rests on (a, b) alone and not on r, and a wrong r raises.  Of pi's six
    associates one is primary, a = 2 and b = 0 mod 3; for it, with b = 3n,
    reciprocity gives chi_pi(2) = chi_2(pi), the cube root of unity = pi
    mod 2, and the supplementary law chi_pi(3) = w^(2n).  6 is a cube when
    the two exponents sum to 0 mod 3.  ValueError unless p = 1 mod 3 and
    p > 3."""
    if p % 3 != 1 or p <= 3:
        raise ValueError(f"the cube conditions are decided only for primes p = 1 mod 3, got {p}")
    u, x = p, r % p
    while x * x > p:
        u, x = x, u % x
    y = isqrt((p - x * x) // 3)
    a, b = x + y, 2 * y
    if a * a - a * b + b * b != p:
        raise AssertionError(f"Cornacchia's algorithm found no a^2 - ab + b^2 = {p}")
    while b % 3:  # times w: (a + bw)w = -b + (a - b)w
        a, b = -b, a - b
    if a % 3 == 1:
        a, b = -a, -b
    # pi mod 2 is 1, w or 1 + w = w^2 as b, a or neither is even
    two = 0 if b % 2 == 0 else 1 if a % 2 == 0 else 2
    three = 2 * (b // 3) % 3
    if not two:
        return 0
    if not three:
        return 1
    return None if (two + three) % 3 == 0 else 2


def _residue_formulation(two: int, three: int, p: int) -> int | None:
    """The same index by Euler's criterion, from two = 2^e and three = 3^e
    mod p, e = (p - 1)/3: c is a cube mod p exactly when c^e = 1, and
    6^e = two * three."""
    if two == 1:
        return 0
    if three == 1:
        return 1
    return None if two * three % p == 1 else 2


def qualifying_verdict(p: int) -> tuple[bool, str]:
    """(qualifies, reason); reason is empty on success.  Both formulations
    are evaluated and must agree on the first failed cube condition."""
    if not is_prime(p):
        return False, f"{p} is not prime"
    v = _prime_verdict(p)
    return not v, _reason(p, v)


def _prime_verdict(p: int) -> int:
    # the verdict byte of a p already known to be prime: 0 if it qualifies,
    # else 1 + the failed REASONS index.  26244 = 2^2 3^8 and 248832 =
    # 2^10 3^5, so a prime divides one exactly when it divides the other;
    # that and p mod 3 are tested once, before either formulation.  Both
    # read the powers 2^e and 3^e: the residue route as Euler's criterion,
    # the reciprocity route through r = 2w + 1, a square root of -3 as
    # (2w + 1)^2 = 4(w^2 + w + 1) - 3, for w the first of 2^e, 3^e, 4^e, ...
    # that is not 1, a primitive cube root of unity
    if not (PRODUCT_DISC % p or WITNESS_CUBIC_DISC % p):
        return 1
    if p % 3 != 1:
        return 2
    e = (p - 1) // 3
    two, three = pow(2, e, p), pow(3, e, p)
    if two != 1:
        w = two
    elif three != 1:
        w = three
    else:
        g = 4
        while (w := pow(g, e, p)) == 1:
            g += 1
    cube = _reciprocity_formulation(p, 2 * w + 1)
    residue_cube = _residue_formulation(two, three, p)
    if cube != residue_cube:
        raise AssertionError(
            f"reciprocity and residue formulations disagree at p = {p}: "
            f"first failed cube condition {cube} vs {residue_cube}"
        )
    return 0 if cube is None else 3 + cube


def _reason(p: int, v: int) -> str:
    """The reason text of verdict byte v at p, empty when p qualifies."""
    return REASONS[v - 1].format(p=p) if v else ""


def is_qualifying_prime(p: int) -> QualifyingCertificate | Rejection:
    """Certificate with the splitting data, or a first-failure rejection."""
    ok, reason = qualifying_verdict(p)
    if not ok:
        return Rejection(p, reason)
    # the verdict decided the cube conditions by reciprocity and from shared
    # powers; the certificate confirms all three by Euler's criterion, the
    # first two by factoring, and the third by the cube roots of 6 below
    if power_residue(2, 3, p) or power_residue(3, 3, p) or not power_residue(6, 3, p):
        raise AssertionError(f"Euler's criterion fails a cube condition at qualifying p = {p}")
    if not (is_irreducible(X3_MINUS_2, p) and is_irreducible(X3_MINUS_3, p)):
        raise AssertionError(f"x^3 - 2 or x^3 - 3 is reducible at qualifying p = {p}")
    # Cardano: x = y - 7 turns the cubic into y^3 - 144y + 672, whose roots
    # are u + v with u^3 + v^3 = -672 and uv = 48, that is u = -2c^2 and
    # v = -4c over the cube roots c of 6, which the last condition provides
    roots = {(-7 - 4 * c - 2 * c * c) % p for c in roots_in_base(3, 6, p)}
    if len(roots) != 3 or any(poly_eval(WITNESS_CUBIC, r, p) for r in roots):
        raise AssertionError(
            f"witness cubic failed to split into distinct roots at qualifying p = {p}"
        )
    return QualifyingCertificate(p, primitive_nth_root(3, p), tuple(sorted(roots)))


# -- the sieve ---------------------------------------------------------------


class SieveRow(NamedTuple):
    p: int
    qualifying: bool
    reason: str


class SieveResult(NamedTuple):
    limit: int
    primes: array  # array('I') of the primes <= limit, ascending
    # one byte per prime: 0 if it qualifies, else 1 + its REASONS index
    verdicts: bytes

    @property
    def rows(self) -> list[SieveRow]:
        """One row per prime, its reason text formatted on demand."""
        return [SieveRow(p, not v, _reason(p, v)) for p, v in zip(self.primes, self.verdicts)]

    @property
    def qualifying(self) -> list[int]:
        return [p for p, v in zip(self.primes, self.verdicts) if not v]

    @property
    def count(self) -> int:
        return self.verdicts.count(0)

    @property
    def pi(self) -> int:
        return len(self.primes)

    @property
    def ratio(self) -> float:
        return self.count / self.pi if self.pi else 0.0


def sieve_qualifying(limit: int, jobs: int = 1) -> SieveResult:
    """Verdict for every prime <= limit, both formulations cross-checked."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    # primes_up_to's Eratosthenes table certifies each p that _prime_verdict
    # takes.  The pool gets contiguous slices of it, four per worker so that
    # uneven slices keep each one busy, and one slice when there is no pool
    primes = primes_up_to(limit)
    workers = worker_count(jobs, len(primes))
    pieces = 4 * workers if workers > 1 else 1
    bounds = [len(primes) * i // pieces for i in range(pieces + 1)]
    slices = [primes[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return SieveResult(limit, primes, b"".join(run_tasks(_slice_verdicts, slices, jobs)))


def _slice_verdicts(primes: array) -> bytes:
    """The verdict bytes of a slice of the prime table, in its order."""
    return bytes(map(_prime_verdict, primes))


def sieve_csv_lines(res: SieveResult):
    """The sieve as CSV lines, the header first: each line is formatted from
    its prime and verdict byte as it is read, and no row is built."""
    yield "p,qualifying,reason"
    for p, v in zip(res.primes, res.verdicts):
        yield f"{p},{0 if v else 1},{_reason(p, v)}"


def sieve_summary(res: SieveResult) -> dict:
    return {
        "limit": res.limit,
        "count": res.count,
        "pi": res.pi,
        "ratio": res.ratio,
        "target": DENSITY_TARGET,
    }


# -- witness construction ------------------------------------------------------


class WitnessK46(NamedTuple):
    certificate: QualifyingCertificate
    field: ExtField
    A: list[Vertex]
    B: list[Vertex]


def left_side(field: ExtField, theta: ExtElement) -> list[Vertex]:
    """The witness's left side {0, 1, 2, theta + 1} with second coordinates
    3, 4, 5, 6, theta a cube root of 2 in `field`."""
    alphas = (field.zero, field.from_base(1), field.from_base(2),
              field.add(theta, field.one))
    return [Vertex(alpha, a) for alpha, a in zip(alphas, range(3, 7))]


def build_witness(
    cert: QualifyingCertificate, root_order: tuple[int, int, int] = (0, 1, 2)
) -> WitnessK46:
    """Materialize the ten witness vertices over F_p[x]/(x^3 - 2).

    root_order permutes the three cubic roots feeding the last three B
    vertices; every permutation yields the same vertex set, so the option
    exists to demonstrate exactly that.  Vertex collisions or vanishing
    second coordinates raise DegeneracyError rather than passing silently;
    no qualifying prime is known to trigger it.
    """
    if sorted(root_order) != [0, 1, 2]:
        raise ValueError(f"root_order must permute (0, 1, 2), got {root_order!r}")
    p = cert.p
    field = ExtField(p, 3, X3_MINUS_2)
    inv2 = fp_inv(2, p)
    inv4 = fp_inv(4, p)
    A = left_side(field, field.gen)
    B = []
    zk = 1
    for _ in range(3):
        B.append(Vertex((p - 1, 0, zk), 1))
        zk = zk * cert.zeta % p
    for idx in root_order:
        eta = cert.cubic_roots[idx]
        c2 = -(1 - eta) * inv4 % p
        c1 = -(1 + eta) * inv2 % p
        v = (1 + 3 * eta * eta) * inv4 % p
        B.append(Vertex((p - 1, c1, c2), v))
    w = WitnessK46(certificate=cert, field=field, A=A, B=B)
    _check_degeneracy(w)
    return w


def _check_degeneracy(w: WitnessK46) -> None:
    p = w.certificate.p
    where = f"degenerate witness at p = {p}"
    seen: dict[Vertex, str] = {}
    for label, vertices in (("A", w.A), ("B", w.B)):
        for i, v in enumerate(vertices):
            key = f"{label}[{i}]"
            if v.a % p == 0:
                raise DegeneracyError(f"{where}: second coordinate of {key} vanishes")
            if v in seen:
                raise DegeneracyError(f"{where}: vertices {seen[v]} and {key} collide")
            seen[v] = key


# -- witness verification -------------------------------------------------------


def verify_witness(w: WitnessK46) -> WitnessReport:
    """Both layers, each sufficient to falsify a bad witness.

    Graph layer: all 24 cross pairs adjacent in P(p,4) over x^3 - 2.
    Identity layer: for each B vertex (a*theta^2 + b*theta - 1, v), the four
    closed-form equations obtained by expanding norm(alpha_B + alpha_A)
    against each A vertex:
        4a^3 + 2b^3 + 6ab - 1 = 3v
        4a^3 + 2b^3           = 4v
        4a^3 + 2b^3 - 6ab + 1 = 5v
        4a^3 + 2b^3 + 6b^2 + 6b + 2 = 6v
    """
    p = w.certificate.p
    biclique = witness_graph(w).verify_biclique(w.A, w.B)

    checked, identity_failures = 0, []
    for i, vert in enumerate(w.B):
        const, b, a = vert.alpha
        v = vert.a
        base = (4 * a**3 + 2 * b**3) % p
        checks = [
            ((base + 6 * a * b - 1) % p, 3 * v % p),
            (base, 4 * v % p),
            ((base - 6 * a * b + 1) % p, 5 * v % p),
            ((base + 6 * b * b + 6 * b + 2) % p, 6 * v % p),
        ]
        for j, (lhs, rhs) in enumerate(checks):
            checked += 1
            # each equation assumes the constant term -1
            if const != p - 1 or lhs != rhs:
                identity_failures.append(
                    f"B[{i}] identity against A[{j}] fails: {lhs} vs {rhs}, "
                    f"constant term {const} vs {p - 1}"
                )
    return WitnessReport(
        biclique=biclique,
        identity_checked=checked,
        identity_failures=identity_failures,
    )


def witness_graph(w: WitnessK46) -> NormGraph:
    """P(p,4) over the witness's own field, which must be F_p[x]/(x^3 - 2);
    ValueError otherwise."""
    p, field = w.certificate.p, w.field
    if field.modulus != tuple(c % p for c in X3_MINUS_2):
        raise ValueError(f"witness field {field!r} is not F_{p}[x]/(x^3 - 2)")
    return NormGraph(p, 4, field)


def canonical_witness(G: NormGraph, L: list[Vertex], R: list[Vertex]) -> WitnessK46 | None:
    """L and R as the canonical witness when they are one: a 4x6 pair in
    P(p,4) over x^3 - 2, p qualifying, L the canonical left side.  Else
    None, and only the graph layer applies."""
    F = G.field
    if (
        G.t != 4
        or len(L) != 4
        or len(R) != 6
        or F.modulus != tuple(c % G.p for c in X3_MINUS_2)
        or set(L) != set(left_side(F, F.gen))
    ):
        return None
    cert = is_qualifying_prime(G.p)
    if isinstance(cert, Rejection):
        return None
    return WitnessK46(certificate=cert, field=F, A=L, B=R)
