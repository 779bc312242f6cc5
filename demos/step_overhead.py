"""Time the guided update's arithmetic against a bare solver update.

The geometry pass adds a fixed number of O(d) vector operations per step
(four row dot products and the closed-form update a*c - b*(prev - c) with
its rescale) on top of the solver's single fused multiply-add.  This script
reports the absolute extra time per step across dimensions; in a real
pipeline the score-network evaluation dwarfs both.
"""
from lmlangevin import overhead_benchmark

print(f"{'d':>8} {'baseline us':>12} {'guided us':>10} {'extra us':>9} {'ratio':>7}")
for d in (1024, 4096, 16384, 65536):
    res = overhead_benchmark(d=d, reps=100, seed=0)
    base_us = res.baseline_ns / 1000.0
    lml_us = res.lml_ns / 1000.0
    print(f"{d:8d} {base_us:12.2f} {lml_us:10.2f} {lml_us - base_us:9.2f} {res.ratio:7.2f}")

print()
print("The ratio is large because the baseline is a single axpy.  The extra")
print("cost sits in the tens-to-hundreds of microseconds: numpy dispatch")
print("dominates at small d, memory bandwidth at large d.  Next to a score")
print("network evaluation measured in milliseconds, both are negligible.")
