#!/usr/bin/env python3
"""Generate family members, inspect their records, and build a catalog.

Each generator returns a fully verified record: curve, marked points,
elements with per-point tame certificates, and integrality flags for
the published sufficient hypotheses.  Records serialize to exact JSON
and survive a parse -> re-verify round trip.
"""

import json
import tempfile
from fractions import Fraction as F

from k2forge import gen_hyp_odd, gen_nekovar_genus2
from k2forge.cli import main
from k2forge.records import record_from_json, record_to_json
from k2forge.symbols import SymbolEngine, verify_k2t

print("=" * 72)
print("1. the reference hyperelliptic member")
print("=" * 72)
rec = gen_hyp_odd(2, [1, F(1, 2), F(1, 4)])
print(f"curve: {rec.curve.canonical()}")
print(f"f1 coefficients: {rec.model['f1']}")
for elem in rec.elements:
    verdicts = [c.verdict for c in elem.certificates]
    print(f"  element {elem.name}: orders {elem.orders}, verdicts {verdicts}")
for flag in rec.integrality_flags:
    print(f"  integrality: {flag['element']} under '{flag['hypothesis']}'"
          f" -> {flag['satisfied']}")

print()
print("=" * 72)
print("2. a contact (non-torsion) element on a genus-2 curve")
print("=" * 72)
rec2 = gen_nekovar_genus2(F(1, 2))
print(f"curve: {rec2.curve.canonical()}")
elem = rec2.elements[0]
print(f"contact pattern of H: {sorted(elem.meta['h_pattern'], reverse=True)}")
print(f"places at infinity: "
      f"{[n for n in rec2.points if n.startswith('inf')]}")
cert = elem.certificates[0]
print("tame values:", {p.label(): str(v) for p, v in cert.point_totals.items()})

print()
print("=" * 72)
print("3. JSON round trip and re-verification from scratch")
print("=" * 72)
text = record_to_json(rec)
loaded = record_from_json(text)
eng = SymbolEngine(loaded.curve)
ok = all(verify_k2t(eng, sym).passed
         for elem in loaded.elements for sym in elem.symbols)
print(f"re-verification of the stored record: {'PASS' if ok else 'FAIL'}")

print()
print("=" * 72)
print("4. a catalog over an integer window (idempotent on re-run)")
print("=" * 72)
with tempfile.TemporaryDirectory() as d:
    db = f"{d}/catalog.jsonl"
    main(["catalog", "quartic-ct", "--t=-10..10", "--db", db])
    main(["catalog", "quartic-ct", "--t=-10..10", "--db", db])
    with open(db) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    print(f"entries: {len(entries)} (21 integers minus the excluded 1 and -3)")
    sample = entries[0]
    print(f"entry fields: {sorted(sample)}")
    print(f"first member: t = {sample['record']['params']['t']}, "
          f"flags {[f['satisfied'] for f in sample['record']['integrality_flags']]}")
