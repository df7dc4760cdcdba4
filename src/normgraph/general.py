"""Effective search for K_{t-1,m} witnesses in P(p,t).

The construction needs a prime p carrying a primitive (t-2)-root of unity
and all m roots of x^m - 2, plus a shift r making every polynomial
x^(t-1) - x + theta_i - r irreducible mod p.  Candidates are found by a
direct scan (a value-set prefilter over r, then full irreducibility tests),
so every returned parameter set is verified rather than promised.
"""

from __future__ import annotations

from typing import NamedTuple

from . import polys
from .ff import ExtField
from .graph import (
    GENERAL_KEYS,
    MAX_T,
    NormGraph,
    Vertex,
    WitnessReport,
    encode_witness,
    make_graph,
    pair_cap,
    parse_witness,
)
from .parallel import run_tasks
from .polys import (
    eval_in_ext,
    find_root_in_ext,
    is_irreducible,
    poly_eval,
    power_residue,
    primitive_nth_root,
    roots_in_base,
)
from .primes import primes_up_to


class GeneralParams(NamedTuple):
    t: int
    m: int
    p: int
    r: int
    thetas: tuple[int, ...]  # the m roots of x^m - 2 mod p, ascending
    zeta: int  # primitive (t-2)-root of unity mod p


class GeneralWitness(NamedTuple):
    params: GeneralParams
    field: ExtField
    A: list[Vertex]  # t-1 vertices (zeta^k, 1) for k = 1..t-2, plus (0, 1)
    B: list[Vertex]  # m vertices (-alpha_i, theta_i - r)


def shifted_poly(t: int, theta: int, r: int, p: int) -> list[int]:
    """x^(t-1) - x + theta - r over F_p, little-endian."""
    coeffs = [(theta - r) % p, (-1) % p] + [0] * (t - 3)
    coeffs.append(1)
    return coeffs


def _prime_preconditions(t: int, m: int, p: int):
    """(thetas, zeta) when p satisfies the congruence/residue conditions,
    else None."""
    if (p - 1) % (t - 2) or (p - 1) % m or not power_residue(2, m, p):
        return None
    return roots_in_base(m, 2, p), primitive_nth_root(t - 2, p)


def _scan_prime(task) -> list[GeneralParams]:
    t, m, p = task
    pre = _prime_preconditions(t, m, p)
    if pre is None:
        return []
    thetas, zeta = pre
    # value-set prefilter: x^(t-1) - x + theta - r has a root at x0 exactly
    # when x0^(t-1) - x0 = r - theta, so r must dodge the value set for
    # every theta; survivors still get the full irreducibility test
    in_values = bytearray(p)
    for x in range(p):
        in_values[(pow(x, t - 1, p) - x) % p] = 1
    out = []
    for r in range(p):
        if any(in_values[(r - th) % p] for th in thetas):
            continue
        if all(is_irreducible(shifted_poly(t, th, r, p), p) for th in thetas):
            out.append(GeneralParams(t=t, m=m, p=p, r=r, thetas=thetas, zeta=zeta))
    return out


def find_parameters(
    t: int,
    m: int,
    prime_limit: int,
    max_results: int | None = None,
    jobs: int = 1,
) -> list[GeneralParams]:
    """All (p, r) with p <= prime_limit admitting the construction, ascending
    by (p, r), or the first max_results; empty is a legitimate outcome."""
    if not 4 <= t <= MAX_T:
        raise ValueError(f"t must be between 4 and {MAX_T}, got {t}")
    # so that every witness written passes parse_witness's pair cap
    m_max = pair_cap(t) // (t - 1)
    if not 1 <= m <= m_max:
        raise ValueError(f"m must be between 1 and {m_max} at t = {t}, got {m}")
    tasks = [(t, m, p) for p in primes_up_to(prime_limit)]
    if max_results is None:
        return [params for found in run_tasks(_scan_prime, tasks, jobs) for params in found]
    # one prime per map: a bounded search stops at its quota and starts no pool
    found: list[GeneralParams] = []
    for task in tasks:
        if len(found) >= max_results:
            break
        found.extend(run_tasks(_scan_prime, [task], jobs)[0])
    return found[:max_results]


def build_general_witness(params: GeneralParams, seed: int = 0) -> GeneralWitness:
    """Assemble the witness: the extension is F_p[x]/(f_1 - r) so the first
    root is the class of x; the others come out of equal-degree splitting."""
    t, m, p, r = params.t, params.m, params.p, params.r
    for i, th in enumerate(params.thetas):
        if (th - r) % p == 0:
            raise ValueError(
                f"theta_{i + 1} - r vanishes mod {p}; the shifted polynomial has root 0"
            )
    field = ExtField(p, t - 1, shifted_poly(t, params.thetas[0], r, p))
    alphas = [field.gen]
    for th in params.thetas[1:]:
        alphas.append(find_root_in_ext(shifted_poly(t, th, r, p), field, seed))
    if len(set(alphas)) != m:
        raise AssertionError("extracted roots are not pairwise distinct")

    A = [Vertex(field.from_base(pow(params.zeta, k, p)), 1) for k in range(1, t - 1)]
    A.append(Vertex(field.zero, 1))
    B = [
        Vertex(field.neg(alpha), (th - r) % p)
        for alpha, th in zip(alphas, params.thetas)
    ]
    ids = {(v.alpha, v.a) for v in A + B}
    if len(ids) != len(A) + len(B):
        raise AssertionError("witness vertices are not pairwise distinct")
    return GeneralWitness(params=params, field=field, A=A, B=B)


def verify_general_witness(w: GeneralWitness) -> WitnessReport:
    """Graph layer: every A-B pair adjacent in P(p,t) over the witness's own
    field, which must be F_p[x]/(h_1), else ValueError.  Identity layer, with
    no norm: the theta_i distinct roots of x^m - 2, else ValueError; per B
    vertex (-alpha_i, a_i), h_i = f_i - r irreducible with h_i(alpha_i) = 0,
    which makes N(c - alpha_i) = h_i(c) a theorem, and for each c in
    {0, zeta^k} one identity h_i(c) = theta_i - r = a_i, counted in
    identity_checked.  These hold at c = 0 and 1 for any zeta, so zeta must be
    the least element of order t-2 and each A vertex a (c, 1), else
    ValueError; with the graph layer's distinctness check, A is then the
    construction's set."""
    params, field = w.params, w.field
    t, m, p, r, thetas = params.t, params.m, params.p, params.r, params.thetas
    if (field.p, field.k, field.modulus) != (p, t - 1, tuple(shifted_poly(t, thetas[0], r, p))):
        raise ValueError(f"the witness's field is not F_{p}[x]/(x^{t - 1} - x + theta_1 - r)")
    if params.zeta != primitive_nth_root(t - 2, p):
        raise ValueError(f"zeta = {params.zeta} is not the least element of order {t - 2} mod {p}")
    if any(pow(th, m, p) != 2 % p for th in thetas):
        raise ValueError(f"thetas {list(thetas)} are not all roots of x^{m} - 2 mod {p}")
    if len({th % p for th in thetas}) != len(thetas):
        raise ValueError(f"thetas {list(thetas)} are not distinct mod {p}")
    biclique = NormGraph(p, t, field).verify_biclique(w.A, w.B)

    cs = [0] + [pow(params.zeta, k, p) for k in range(1, t - 1)]
    if not set(w.A) <= {Vertex(field.from_base(c), 1) for c in cs}:
        raise ValueError("A is not the construction's {(zeta^k, 1)} with (0, 1)")
    checked, identity_failures = 0, []
    for i, vert in enumerate(w.B):
        h = shifted_poly(t, thetas[i], r, p)
        target = (thetas[i] - r) % p
        # via polys, as perfbench/layers.py counts general.is_irreducible as search tests
        irreducible = polys.is_irreducible(h, p)
        # vert.alpha stores -alpha_i
        root = eval_in_ext(h, field.neg(vert.alpha), field) == field.zero
        for c in cs:
            checked += 1
            rhs = poly_eval(h, c, p)
            if not irreducible or not root or rhs != target or vert.a != target:
                identity_failures.append(
                    f"identity fails for B[{i}] at c = {c}: h irreducible {irreducible}, "
                    f"h(alpha) = 0 {root}, evaluation {rhs}, second coordinate {vert.a}, "
                    f"expected {target}"
                )
    return WitnessReport(
        biclique=biclique,
        identity_checked=checked,
        identity_failures=identity_failures,
    )


# -- serialization ------------------------------------------------------------


def general_witness_to_json(w: GeneralWitness, verified: bool) -> dict:
    params = w.params._replace(thetas=list(w.params.thetas))
    return encode_witness(GENERAL_KEYS, params, w.A, w.B, verified)


def general_witness_from_json(data: dict) -> GeneralWitness:
    """Rebuild a witness from its JSON form.  Schema problems raise from
    parse_witness; mathematical problems (reducible modulus and the like)
    surface from the field construction."""
    kind, A, B = parse_witness(data)
    if kind != "general":
        raise ValueError("not a general witness")
    return witness_from_sides(data, A, B)


def witness_from_sides(data: dict, A: list[Vertex], B: list[Vertex]) -> GeneralWitness:
    """The witness of a general JSON object whose A and B sides parse_witness
    has read."""
    params = GeneralParams(*(data[key] for key in GeneralParams._fields))
    params = params._replace(thetas=tuple(params.thetas))
    t, p = params.t, params.p
    field = make_graph(p, t, shifted_poly(t, params.thetas[0], params.r, p)).field
    return GeneralWitness(params=params, field=field, A=A, B=B)
