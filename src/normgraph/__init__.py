"""Projective norm graphs over prime fields: exact finite-field arithmetic,
qualifying-prime sieves, explicit biclique witnesses, and desk-scale
common-neighborhood censuses."""

from .ff import ExtField, fp_inv, fp_pow
from .general import (
    GeneralParams,
    GeneralWitness,
    build_general_witness,
    find_parameters,
    general_witness_from_json,
    general_witness_to_json,
    verify_general_witness,
)
from .graph import (
    BicliqueReport,
    BicliqueWitness,
    NormGraph,
    Vertex,
    make_graph,
    witness_to_json,
)
from .k46 import (
    QualifyingCertificate,
    Rejection,
    WitnessK46,
    build_witness,
    is_qualifying_prime,
    qualifying_verdict,
    sieve_qualifying,
    verify_witness,
)
from .polys import discriminant, find_root_in_ext, is_irreducible, poly_gcd
from .primes import is_prime, primes_up_to

__version__ = "0.1.0"

__all__ = [
    "BicliqueReport",
    "BicliqueWitness",
    "ExtField",
    "GeneralParams",
    "GeneralWitness",
    "NormGraph",
    "QualifyingCertificate",
    "Rejection",
    "Vertex",
    "WitnessK46",
    "build_general_witness",
    "build_witness",
    "discriminant",
    "find_parameters",
    "find_root_in_ext",
    "fp_inv",
    "fp_pow",
    "general_witness_from_json",
    "general_witness_to_json",
    "is_irreducible",
    "is_prime",
    "is_qualifying_prime",
    "make_graph",
    "poly_gcd",
    "primes_up_to",
    "qualifying_verdict",
    "sieve_qualifying",
    "verify_general_witness",
    "verify_witness",
    "witness_to_json",
    "__version__",
]
