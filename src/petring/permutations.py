"""Permutations of S_n in one-line notation, as plain tuples.

Composition convention: ``compose(u, v)`` is the map p -> u(v(p)).  The
one-line form of a product of simple transpositions depends on this choice,
so it is fixed here once and used everywhere.
"""

import bisect
import operator

from .intervals import IndexSet, all_index_sets, decompose, factor_ranks, hessenberg_function, m_factor

__all__ = [
    "Permutation",
    "identity",
    "simple_transposition",
    "compose",
    "length",
    "longest_wj",
    "subword_vj",
    "bruhat_leq",
    "peterson_fixed_points",
    "format_one_line",
    "print_group",
]

# One-line notation: w[p-1] == w(p), a permutation of {1, ..., n}.
Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    """The identity of S_n."""
    return tuple(range(1, n + 1))


def simple_transposition(n: int, i: int) -> Permutation:
    """The transposition s_i swapping i and i+1; ValueError unless 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} undefined in S_{n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(uv)(p) = u(v(p)); ValueError for mismatched degrees."""
    if len(u) != len(v):
        raise ValueError("mismatched degrees")
    return tuple(u[v[p] - 1] for p in range(len(u)))


def length(w: Permutation) -> int:
    """Number of inversions of w."""
    return sum(
        1
        for p in range(len(w))
        for q in range(p + 1, len(w))
        if w[p] > w[q]
    )


def longest_wj(J: IndexSet) -> Permutation:
    """Longest element of the Young subgroup generated by {s_i : i in J}:
    each run (lo, hi) of J reverses positions lo..hi+1.  An involution."""
    w = list(range(1, J.n + 1))
    for lo, hi in decompose(J).runs:
        w[lo - 1 : hi + 1] = reversed(w[lo - 1 : hi + 1])
    return tuple(w)


def subword_vj(J: IndexSet) -> Permutation:
    """Product of the simple transpositions s_j over j in J, in increasing
    order; the result has length |J| (the word is reduced)."""
    w = identity(J.n)
    for j in J:
        w = compose(w, simple_transposition(J.n, j))
    return w


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat-order comparison u <= v by the rank criterion: for every k,
    the ascending sort of {u(1), ..., u(k)} is entrywise <= that of
    {v(1), ..., v(k)}.  ValueError for mismatched degrees."""
    if len(u) != len(v):
        raise ValueError("mismatched degrees")
    u_pref: list[int] = []
    v_pref: list[int] = []
    for a, b in zip(u[:-1], v[:-1]):
        bisect.insort(u_pref, a)
        bisect.insort(v_pref, b)
        if any(map(operator.gt, u_pref, v_pref)):
            return False
    return True


def peterson_fixed_points(n: int) -> list[Permutation]:
    """The 2^(n-1) block-reversal involutions w_J, one per subset J of
    {1, ..., n-1}, in canonical subset order."""
    return [longest_wj(J) for J in all_index_sets(n)]


def format_one_line(w: Permutation) -> str:
    """One-line notation in brackets, "[2,1,3]"."""
    return "[" + ",".join(str(x) for x in w) + "]"


def print_group(J: IndexSet) -> None:
    """The ``group`` command's lines for J: its runs, m_J, factor ranks, h_J, w_J with its length, and v_J."""
    dec, wj = decompose(J), longest_wj(J)
    print(f"J = {J.format()}  (rank n = {J.n})")
    print("components = " + (" ".join(f"[{lo}..{hi}]" for lo, hi in dec.runs) or "(empty)"))
    print(f"m_J = {m_factor(J)}")
    print(f"factor ranks = {factor_ranks(J)}")
    print(f"h_J = {hessenberg_function(J)}")
    print(f"w_J = {format_one_line(wj)}   length {length(wj)}")
    print(f"v_J = {format_one_line(subword_vj(J))}")
