"""Digest of the ring workload's numeric certificates, for comparing two trees.

    python tests/certificates.py

For each seed 1-40 it runs `numeric.diagonalization_residual` on every ring
request (`util.ring_certificates`) and hashes the `repr` of each residual, or
of the error it raised, one line each, in seed and plan order (SHA-256, first
16 hex digits).  It prints the digest, the misses (an error, or a residual
not under the benchmark's 1e-8 bound) and the misses of each seed; then the
same three lines, each prefixed "plain", for the plain-float route that
`arithmat diag-check` runs, `embedding.diagonalization_residual`.  It
imports `src/` from its own checkout, so run it in two checkouts: a change
that keeps every float operation prints the same six lines.  The numpy
digest follows numpy's LAPACK build, so it is compared between trees on one
machine and pinned nowhere.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

_TESTS = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS), str(_TESTS.parent / "src")]

import util  # noqa: E402
from arithmat import embedding, numeric  # noqa: E402
from arithmat.errors import ArithmatError  # noqa: E402

SEEDS = range(1, 41)
BOUND = 1e-8
# (prefix of the printed lines, certificate route)
ROUTES = (("", numeric.diagonalization_residual), ("plain ", embedding.diagonalization_residual))


def certificates(seeds=SEEDS, residual=numeric.diagonalization_residual) -> tuple[str, dict[int, int]]:
    """The digest of `residual` over `seeds`, and the misses of each seed."""
    digest, misses = hashlib.sha256(), {}
    for seed in seeds:
        misses[seed] = 0
        for F, alpha in util.ring_certificates(seed):
            try:
                result = residual(F, alpha)
            except ArithmatError as exc:
                result = exc
            digest.update(f"{result!r}\n".encode())
            misses[seed] += not (isinstance(result, float) and result < BOUND)
    return digest.hexdigest()[:16], misses


def main() -> None:
    for label, residual in ROUTES:
        digest, misses = certificates(residual=residual)
        print(f"{label}digest {digest}")
        print(f"{label}misses {sum(misses.values())}")
        print(f"{label}per seed " + " ".join(f"{seed}:{count}" for seed, count in misses.items()))


if __name__ == "__main__":
    main()
