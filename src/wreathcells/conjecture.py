"""Parameter dictionary between reflection parameters and charges, and the
end-to-end comparison of the two character pipelines.

The dictionary sets ksharp_i = -c0 * r_i.  ``check_conjecture(params, n)``
derives the charges from the parameters and compares the two sides at size n;
callers holding a charge vector pass ``params_from_r(r, c0)``.  At n = 2 the
Calogero-Moser side is computed from the exact closed forms; for larger n it
is replaced by the JM cells, which are exact when the parameters are generic
and an upper bound (cells may merge) otherwise.  Each side is its distinct
characters in canonical order with their multiplicities; they are compared
as sets, and the expanded multisets are reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import CharacterSum, character_counts
from .fock import lm_constructible

# cm_cells_n2 is not called here, but perfbench/tracing.py wraps the name in
# this module, so it stays imported.
from .gd12 import cm_cells_n2, cm_cells_n2_family  # noqa: F401
from .jucys_murphy import CMParams, jm_cellular_characters


class InvalidParam(ValueError):
    """A parameter violates a precondition (for instance c0 = 0)."""


class NonIntegralRatio(ValueError):
    """-ksharp_i / c0 is not an integer, so no charge vector corresponds."""


class UnsortedParameters(ValueError):
    """Charges r_i (or -ksharp_i / c0) are not weakly decreasing."""


def params_from_r(r, c0) -> CMParams:
    """Reflection parameters matching a charge vector: ksharp_i = -c0 * r_i."""
    c0 = Fraction(c0)
    if c0 == 0:
        raise InvalidParam("c0 must be nonzero")
    r = tuple(int(x) for x in r)
    if any(r[i] < r[i + 1] for i in range(len(r) - 1)):
        raise UnsortedParameters(f"charges must be weakly decreasing, got {r}")
    return CMParams.from_ksharp(len(r), c0, [-c0 * ri for ri in r])


def r_from_params(params: CMParams, shift: int = 0) -> tuple[int, ...]:
    """Charge vector r_i = -ksharp_i / c0 (+ an optional common integer shift).

    Cell partitions on both sides are invariant under common integer shifts of
    the charges, so the shift is a labelling convenience only.
    """
    if params.c0 == 0:
        raise InvalidParam("c0 must be nonzero")
    ratios = [-params.ksharp(i) / params.c0 for i in range(1, params.d + 1)]
    if any(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1)):
        raise UnsortedParameters(
            "charges -ksharp_i / c0 must be weakly decreasing, got "
            + ", ".join(str(x) for x in ratios)
        )
    out = []
    for x in ratios:
        shifted = x + shift
        if shifted.denominator != 1:
            raise NonIntegralRatio(
                f"-ksharp/c0 ratio {x} is not an integer (shift {shift})"
            )
        out.append(int(shifted))
    return tuple(out)


@dataclass(frozen=True, repr=False)
class ConjectureVerdict:
    """Each side's distinct characters in canonical order, with multiplicities."""

    mode: str  # "exact-n2" | "generic" | "jm-upper-bound"
    n: int
    charges: tuple[int, ...]
    cm_counts: dict[CharacterSum, int]
    lm_counts: dict[CharacterSum, int]

    @property
    def equal(self) -> bool:
        return self.cm_counts.keys() == self.lm_counts.keys()

    @property
    def cm_only(self) -> tuple[CharacterSum, ...]:
        return tuple(cs for cs in self.cm_counts if cs not in self.lm_counts)

    @property
    def lm_only(self) -> tuple[CharacterSum, ...]:
        return tuple(cs for cs in self.lm_counts if cs not in self.cm_counts)

    @property
    def cm_multiset(self) -> tuple[CharacterSum, ...]:
        return _expand(self.cm_counts)

    @property
    def lm_multiset(self) -> tuple[CharacterSum, ...]:
        return _expand(self.lm_counts)

    @property
    def note(self) -> str:
        if self.mode == "jm-upper-bound" and not self.equal:
            return "inconclusive (JM cells may merge CM cells)"
        return ""

    def __repr__(self):
        names = "mode n charges equal cm_counts lm_counts cm_only lm_only note"
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names.split())
        return f"ConjectureVerdict({body})"

    def to_json_obj(self):
        # each distinct character is rendered once; the lists share the dicts
        rendered = {cs: cs.to_json_obj() for cs in self.cm_counts | self.lm_counts}

        def charlist(chars):
            return [rendered[cs] for cs in chars]

        return {
            "mode": self.mode,
            "n": self.n,
            "charges": list(self.charges),
            "equal": self.equal,
            "cm_set": charlist(self.cm_counts),
            "lm_set": charlist(self.lm_counts),
            "diff": {
                "cm_only": charlist(self.cm_only),
                "lm_only": charlist(self.lm_only),
            },
            "cm_multiset": charlist(self.cm_multiset),
            "lm_multiset": charlist(self.lm_multiset),
            "note": self.note,
        }


def _expand(counts: dict[CharacterSum, int]) -> tuple[CharacterSum, ...]:
    return tuple(cs for cs, m in counts.items() for _ in range(m))


def check_conjecture(params: CMParams, n: int, *, shift: int = 0) -> ConjectureVerdict:
    """Compare the Calogero-Moser and constructible character sets at size n.

    The charges are ``r_from_params(params, shift)``, so the dictionary's
    preconditions apply; start from a charge vector with
    ``check_conjecture(params_from_r(r, c0), n)``.
    """
    charges = r_from_params(params, shift)
    lm_counts = character_counts(lm_constructible(charges, n).values())
    if n == 2:
        mode = "exact-n2"
        cm_counts = character_counts(cs for _, cs in cm_cells_n2_family(params))
    else:
        decomposition = jm_cellular_characters(params, n)
        mode = "generic" if decomposition.report.generic else "jm-upper-bound"
        cm_counts = decomposition.character_counts()
    return ConjectureVerdict(mode, n, charges, cm_counts, lm_counts)
