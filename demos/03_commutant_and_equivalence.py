"""Commutants, irreducibility, and unitary equivalence.

Two commutants, one solver: the structured one is the star commutant on C^n
of U and the level operator H = Σ (i/d)·P_i, whose spectral projections are
the P_i; the truncated oracle counts the star commutant of the pair on the
full model space, with no interior filter. This pair's W1 is 1 ⊗ S and its W2
is Σ_k A_k ⊗ S^k, so that space is T0 ⊗ 1 with T0 commuting with every A_k
and A_k*, solved on C^n. Their dimensions must agree, and dimension one means
irreducible.

Equivalence of two reflection families reduces to the *-intertwiners on C^n
of their unitaries and H; an empty space settles inequivalence, and a space
containing a unitary settles equivalence with an explicit witness.
"""
import numpy as np

from isorep import (
    TruncationParams,
    are_unitarily_equivalent,
    build_reflection_rep,
    is_irreducible,
    reflection_family,
    structured_commutant_dim,
    truncated_commutant_oracle,
)

a = np.array([0.5, 0.5, 0.5, 0.5])
fam = reflection_family(a)
print("structured commutant dim:", structured_commutant_dim(fam))
rep16 = build_reflection_rep(a, TruncationParams(4, 16, 8))
print("truncated oracle at L=16:", truncated_commutant_oracle(rep16))
print("irreducible:", is_irreducible(fam))

# same family twice: equivalent, and the witness is (a multiple of) the identity
verdict = are_unitarily_equivalent(fam, fam)
print("\nself-comparison:", verdict.status)
print("witness deviation from scalar:",
      float(np.max(np.abs(verdict.witness - verdict.witness[0, 0] * np.eye(4)))))

# different coordinate moduli force an empty intertwiner space
b = np.array([0.8, 0.1, 0.1, 0.1])
verdict = are_unitarily_equivalent(fam, reflection_family(b / np.linalg.norm(b)))
print("\nmoduli-mismatched vector:", verdict.status, verdict.diagnostics)

# a unimodular phase on the vector leaves the family untouched
verdict = are_unitarily_equivalent(fam, reflection_family(np.exp(0.9j) * a))
print("phase-twisted vector:", verdict.status)
