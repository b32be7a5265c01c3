"""The finite-field machinery behind the specialization oracle.

Tame splitting-field invariants reduce to residue-field arithmetic: the
cyclotomic layer degree is the order of p mod d, and the Kummer layer is the
order of the class of u = p^v * w in the pairing group, read off from the
multiplicative order of a power of the unit residue.  Nothing p-adic is ever
approximated.

Run:  python demos/05_finite_field_oracle.py
"""

from tamegal import build_field, kummer_local_invariants, multiplicative_order

# -- fields with deterministic moduli ----------------------------------------

f25 = build_field(5, 2)
print(f"{f25!r} with modulus coefficients {f25.modulus} (lowest degree first)")
g = f25.generator()
print(f"a multiplicative generator: {g!r}, order {multiplicative_order(g)}")

# -- splitting fields of X^d - u over the p-adics ----------------------------

print()
print("splitting-field invariants of X^d - u over Q_p (u = p^v * w):")
cases = [
    (7, 3, 1, 1),   # totally ramified cubic: 7 = 1 mod 3
    (7, 3, 0, 2),   # unramified cubic: 2 is not a cube mod 7
    (5, 3, 1, 1),   # ramified with cyclotomic layer: ord_3(5) = 2
    (11, 9, 1, 1),  # large cyclotomic layer: ord_9(11) = 6
    (7, 12, 2, 3),  # mixed valuation
]
for p, d, v, w in cases:
    inv = kummer_local_invariants(p, d, v, w)
    print(
        f"  p={p:>2}, d={d:>2}, v={v}, w={w}: e={inv.e:>2}, f={inv.f}, "
        f"cyclotomic layer f0={inv.f0}, total degree {inv.total_degree}"
    )

# -- the twisted-constant route ----------------------------------------------

print()
f9 = build_field(3, 2)
zeta8 = f9.generator()  # order 8: a primitive 8th root of unity in F_9
inv = kummer_local_invariants(3, 8, 1, zeta8)
print("a constant that only exists upstairs: X^8 - zeta_8 * 3 over the")
print(f"unramified quadratic extension of Q_3 gives e={inv.e}, f={inv.f} "
      f"(relative to that base)")
print()
print("Cardinalities above 2^63 are never materialized: exponents are")
print("reduced into the field the unit representative lives in, so even")
print("p near 10^5 with an 18-dimensional cyclotomic layer is instant:")
inv = kummer_local_invariants(99991, 27, 1, 1)
print(f"  p=99991, d=27: e={inv.e}, f={inv.f}, f0={inv.f0}")
