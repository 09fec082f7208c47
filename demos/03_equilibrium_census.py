"""Exhaustively enumerate equilibrium outcomes as the prior moves.

At k=2 the full-sequence game has 64 deterministic admission policies; at
k=3 it has 16384. The census shows the unique first-score outcome on the
low interior band and the extra trailing-run outcomes that appear above
one half (and, at k=3, how they coexist everywhere).
"""

from fractions import Fraction

from retesting import ModelParams, all_sequences, enumerate_outcomes, seq_str

for k in (2, 3):
    print(f"\n=== k = {k} (alpha=0.8, phi=0.5) ===")
    for num in (10, 25, 45, 55, 70, 90):
        p = Fraction(num, 100)
        params = ModelParams(p=p, alpha=Fraction(4, 5), phi=Fraction(1, 2), k=k)
        enumeration = enumerate_outcomes(params, "report-all")
        tags = []
        for cls in enumeration.classes:
            accepted = sorted(seq_str(s) for s in all_sequences(k) if cls.witness.policy.accepts(s))
            b_side = [s for s in accepted if s.startswith("B")]
            tag = cls.label + (f"(+{','.join(b_side)})" if b_side else "")
            tags.append(tag)
        flag = " [boundary]" if enumeration.boundary else ""
        print(f"  p={float(p):4.2f}: {len(enumeration.classes)} outcome(s): "
              f"{'; '.join(tags) or 'none'}{flag}")

print("\nBest-score reporting for comparison (k=2): the reject-all outcome")
print("coexists with screening on a narrow band above the lower threshold.")
for num in (20, 25, 27, 30):
    p = Fraction(num, 100)
    params = ModelParams(p=p, alpha=Fraction(4, 5), phi=Fraction(1, 2), k=2)
    enumeration = enumerate_outcomes(params, "report-max")
    print(f"  p={float(p):4.2f}: {[c.label for c in enumeration.classes]}")
