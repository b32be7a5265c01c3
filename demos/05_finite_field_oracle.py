"""The residue-field arithmetic behind the specialization oracle.

Tame splitting-field invariants reduce to arithmetic mod p: the cyclotomic
layer degree is the order of p mod d, and the Kummer layer is the order of
the class of u = p^v * w in the pairing group, read off from the
multiplicative order of a power of the unit residue w mod p.  Nothing p-adic
is ever approximated and no finite field is built.

Run:  python demos/05_finite_field_oracle.py
"""

from tamegal import kummer_local_invariants

# -- splitting fields of X^d - u over the p-adics ----------------------------

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

print()
print("The residue field of p^f0 elements is never materialized: the exponent")
print("that maps w into the pairing group is reduced mod d(p - 1), so even")
print("p near 10^5 with an 18-dimensional cyclotomic layer is instant:")
inv = kummer_local_invariants(99991, 27, 1, 1)
print(f"  p=99991, d=27: e={inv.e}, f={inv.f}, f0={inv.f0}")
