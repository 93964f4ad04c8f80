"""Field-kernel microbenchmark for the traced run.

Times FieldElement multiplication on seeded random elements of F_5, F_3^4,
F_13^16 and F_13^96, after checking every product against the schoolbook
multiply below, and times one cold make_field(13, 96).
"""

from __future__ import annotations

import random
import statistics
import time

FIELDS = (("F5", 5, 1), ("F3_4", 3, 4), ("F13_16", 13, 16), ("F13_96", 13, 96))
PAIRS = 200
ROUNDS = 15


def schoolbook(a, b, modulus, p) -> tuple[int, ...]:
    """a * b mod (modulus, p); modulus is monic, coefficients low degree first."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        top = prod[d] % p
        if top:
            for i in range(k):
                prod[d - k + i] -= top * modulus[i]
    return tuple(c % p for c in prod[:k])


def mul_us(field, rng: random.Random) -> tuple[float, int]:
    """Median microseconds per product over ROUNDS rounds, and the number of
    products that disagree with the schoolbook multiply."""
    p, k = field.p, field.k
    pairs = [
        tuple(field.element([rng.randrange(p) for _ in range(k)]) for _ in range(2))
        for _ in range(PAIRS)
    ]
    wrong = sum(
        (a * b).coeffs != schoolbook(a.coeffs, b.coeffs, field.modulus, p) for a, b in pairs
    )
    per_round = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for a, b in pairs:
            a * b
        per_round.append((time.perf_counter() - start) / PAIRS * 1e6)
    return statistics.median(per_round), wrong


def run(ff, seed: int):
    """Per-layer metrics, and one (label, error or None) check per field."""
    rng = random.Random(f"fieldbench/{seed}")
    metrics, checks = {}, []
    for name, p, k in FIELDS:
        us, wrong = mul_us(ff.make_field(p, k), rng)
        metrics[f"ff.mul_us.{name}"] = (us, "us")
        error = f"{wrong} of {PAIRS} products differ from schoolbook" if wrong else None
        checks.append((f"fieldbench {name}", error))
    ff.make_field.cache_clear()
    start = time.perf_counter()
    ff.make_field(13, 96)
    metrics["ff.make_field_cold_s.F13_96"] = (time.perf_counter() - start, "s")
    return metrics, checks
