"""Parameter dictionary between reflection parameters and charges, and the
end-to-end comparison of the two character pipelines.

The dictionary sets ksharp_i = -c0 * r_i.  ``check_conjecture(params, n)``
derives the charges from the parameters and compares the two sides at size n;
callers holding a charge vector pass ``params_from_r(r, c0)``.
``check_conjecture_sizes(params, sizes)`` is the same comparison at several
sizes, every size read off one JM graph and one canonical basis.  Both sides
are unchanged by a common integer shift of the charges.  At n = 2 the
Calogero-Moser side is computed from the exact closed forms; for larger n it
is replaced by the JM cells, which are exact when the parameters are generic
and an upper bound (cells may merge) otherwise.

Each side is its distinct characters in canonical order with their
multiplicities, a character of size n carried as ``IdCounts``: its
(index in ``enumerate_dpartitions(d, n)``, multiplicity) pairs, sorted by
index, as ``shape_index`` numbers shapes for JM, LM and n = 2 alike.  The
verdict compares them as sets.  It is data: the CLI renders its ids and lays
the verdict out as text or JSON.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import IdCounts
from .fock import lm_constructible
from .gd12 import cm_cells_n2_family
from .jucys_murphy import CMParams, is_generic, jm_cellular_characters

# cm_cells_n2 is not called here, but perfbench/tracing.py wraps the name in
# this module, so it stays imported.
from .gd12 import cm_cells_n2  # noqa: F401


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


def r_from_params(params: CMParams) -> tuple[int, ...]:
    """Charge vector r_i = -ksharp_i / c0."""
    if params.c0 == 0:
        raise InvalidParam("c0 must be nonzero")
    ratios = [-params.ksharp(i) / params.c0 for i in range(1, params.d + 1)]
    if any(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1)):
        raise UnsortedParameters(
            "charges -ksharp_i / c0 must be weakly decreasing, got "
            + ", ".join(str(x) for x in ratios)
        )
    for x in ratios:
        if x.denominator != 1:
            raise NonIntegralRatio(f"-ksharp/c0 ratio {x} is not an integer")
    return tuple(int(x) for x in ratios)


@dataclass(frozen=True)
class ConjectureVerdict:
    """Each side's distinct characters in canonical order, with multiplicities.

    ``cm_ids`` and ``lm_ids`` map each side's ``IdCounts`` to their
    multiplicities; d is the number of charges.  The verdict is data: the
    CLI renders its ids as text or as JSON.
    """

    mode: str  # "exact-n2" | "generic" | "jm-upper-bound"
    n: int
    charges: tuple[int, ...]
    cm_ids: dict[IdCounts, int]
    lm_ids: dict[IdCounts, int]

    @property
    def d(self) -> int:
        return len(self.charges)

    @property
    def equal(self) -> bool:
        return self.cm_ids.keys() == self.lm_ids.keys()

    @property
    def cm_only_ids(self) -> tuple[IdCounts, ...]:
        return tuple(ids for ids in self.cm_ids if ids not in self.lm_ids)

    @property
    def lm_only_ids(self) -> tuple[IdCounts, ...]:
        return tuple(ids for ids in self.lm_ids if ids not in self.cm_ids)

    @property
    def note(self) -> str:
        if self.mode == "jm-upper-bound" and not self.equal:
            return "inconclusive (JM cells may merge CM cells)"
        return ""


def _counted(chars) -> dict[IdCounts, int]:
    """The distinct characters in canonical order, each with its count."""
    return dict(sorted(Counter(chars).items()))


def check_conjecture(params: CMParams, n: int) -> ConjectureVerdict:
    """Compare the Calogero-Moser and constructible character sets at size n.

    The charges are ``r_from_params(params)``, so the dictionary's
    preconditions apply; start from a charge vector with
    ``check_conjecture(params_from_r(r, c0), n)``.
    """
    (verdict,) = check_conjecture_sizes(params, (n,))
    return verdict


def check_conjecture_sizes(params: CMParams, sizes) -> tuple[ConjectureVerdict, ...]:
    """``check_conjecture`` at each of the sizes, in their order.

    One JM graph and one canonical basis, built to the largest size, serve
    every size: each size is a level of the one and a height of the other.
    The genericity of each size is its own, and n = 2 reads the closed forms.
    """
    sizes = tuple(sizes)
    charges = r_from_params(params)
    lm = lm_constructible(charges, sizes)
    jm = None
    if any(n != 2 for n in sizes):
        jm = jm_cellular_characters(params, max(sizes))
    verdicts = []
    for n in sizes:
        lm_ids = _counted(lm[n].values())
        if n == 2:
            mode = "exact-n2"
            cm_ids = _counted(ids for _, ids in cm_cells_n2_family(params))
        else:
            mode = "generic" if is_generic(params, n).generic else "jm-upper-bound"
            cm_ids = jm.character_counts(n)
        verdicts.append(ConjectureVerdict(mode, n, charges, cm_ids, lm_ids))
    return tuple(verdicts)
