"""The group algebra of a finitely generated free group, with exact even
L^p norms and the length-decay (Poisson) semigroup.

Words are tuples of nonzero signed generator indices (+i for c_i, -i for
its inverse), always kept in reduced form; |g| is the reduced letter
count.  Polynomials are finitely supported coefficient maps on words with
the normalized trace tau(x) = coefficient at the empty word.  Even-power
norms ||x||_p = tau((x* x)^{p/2})^{1/p} are finite convolutions, hence
computed exactly (no spectral truncation), and only half of the power is
ever built: with y = x* x, ||x||_p^p = ||h||_2^2, the l2 norm of the
coefficients of h = y^j (p = 4j) or h = x y^j (p = 4j + 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import NumericsError
from ..hvnorms import _sign_block

Word = tuple  # of nonzero ints, reduced

EVEN_PS = (2, 4, 6, 8)
SUPPORT_CAP = 200_000  # words a product may reach before SupportOverflowError


class SupportOverflowError(NumericsError):
    """A product's support grew beyond ``SUPPORT_CAP``."""


def reduce_word(letters) -> Word:
    out = []
    for letter in letters:
        letter = int(letter)
        if letter == 0:
            raise ValueError("letters are nonzero signed generator indices")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple(-letter for letter in reversed(w))


def word_mul(a: Word, b: Word) -> Word:
    return reduce_word(a + b)


def word_from_string(s: str) -> Word:
    """Parse "a B a" (lowercase = generator, uppercase = inverse); "e" is
    the empty word.  Generator letters are a..z in order."""
    s = s.strip()
    if s in ("", "e"):
        return ()
    letters = []
    for tok in s.split():
        if len(tok) != 1 or not tok.isalpha():
            raise ValueError(f"bad word token {tok!r}")
        idx = ord(tok.lower()) - ord("a") + 1
        letters.append(idx if tok.islower() else -idx)
    return reduce_word(letters)


def word_to_string(w: Word) -> str:
    if not w:
        return "e"
    out = []
    for letter in w:
        ch = chr(ord("a") + abs(letter) - 1)
        out.append(ch if letter > 0 else ch.upper())
    return " ".join(out)


class GroupPoly:
    """Finitely supported element of the free-group algebra."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                w = reduce_word(w)
                c = complex(c)
                if c != 0:
                    self.coeffs[w] = self.coeffs.get(w, 0.0) + c
        self._trim()

    def _trim(self):
        self.coeffs = {w: c for w, c in self.coeffs.items() if c != 0}

    @classmethod
    def lam(cls, word, coeff=1.0) -> "GroupPoly":
        """The scaled group element coeff * lambda(word)."""
        if isinstance(word, str):
            word = word_from_string(word)
        return cls({reduce_word(word): coeff})

    @classmethod
    def zero(cls) -> "GroupPoly":
        return cls({})

    def __len__(self):
        return len(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0.0) + c
        return GroupPoly(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return GroupPoly({w: scalar * c for w, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, GroupPoly):
            return GroupPoly({w: c * other for w, c in self.coeffs.items()})
        cap = SUPPORT_CAP
        out = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = word_mul(w1, w2)
                out[w] = out.get(w, 0.0) + c1 * c2
                if len(out) > cap:
                    raise SupportOverflowError(
                        f"product support exceeded the cap of {cap} words"
                    )
        return GroupPoly(out)

    def star(self) -> "GroupPoly":
        return GroupPoly({word_inverse(w): np.conj(c) for w, c in self.coeffs.items()})

    def trace(self) -> complex:
        """Normalized trace: the coefficient at the empty word."""
        return complex(self.coeffs.get((), 0.0))

    def norm2(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def norm_even(self, p: int) -> float:
        """Exact || . ||_p for even p from a half-depth product: with y = x* x,
        ||x||_p^p = ||h||_2^2 for h = y^j (p = 4j) or x y^j (p = 4j + 2)."""
        if p not in EVEN_PS:
            raise ValueError(f"exact norms available for p in {EVEN_PS}, got {p}")
        h = self if p % 4 else None
        if p > 2:
            y = self.star() * self
            for _ in range(p // 4):
                h = y if h is None else h * y
        return h.norm2() ** (2.0 / p)

    def poisson(self, t: float) -> "GroupPoly":
        """Length-decay semigroup: the coefficient at g picks up e^{-t |g|}."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        return GroupPoly({w: c * math.exp(-t * len(w)) for w, c in self.coeffs.items()})

    def length_multiplier(self, f) -> "GroupPoly":
        """Multiply the coefficient at g by f(|g|) for g != e; the identity
        coefficient is kept (the multiplier theorems quantify over the
        non-unit words only)."""
        out = {w: c * f(len(w)) if w else c for w, c in self.coeffs.items()}
        return GroupPoly(out)

    def __repr__(self):
        terms = ", ".join(
            f"{word_to_string(w)}: {c:.4g}" for w, c in sorted(self.coeffs.items())
        )
        return f"GroupPoly({{{terms}}})"

    # text format: lines "word re im" with the word in the spaced letter
    # syntax ("a B a"); the last two tokens are always the coefficient

    def dumps(self) -> str:
        lines = []
        for w in sorted(self.coeffs):
            c = self.coeffs[w]
            lines.append(f"{word_to_string(w)} {c.real!r} {c.imag!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "GroupPoly":
        coeffs = {}
        for line in text.strip().splitlines():
            tok = line.split()
            if len(tok) < 3:
                raise ValueError(f"bad polynomial line {line!r}")
            w = word_from_string(" ".join(tok[:-2]))
            coeffs[w] = complex(float(tok[-2]), float(tok[-1]))
        return cls(coeffs)


def dyadic_unconditionality(xs, p: int = 4) -> float:
    """Worst sign-flip ratio max_eps ||sum eps_k x_k||_p / ||sum x_k||_p for
    polynomials supported on the dyadic length shells |g| = 2^k.

    Sign patterns are enumerated exactly (global sign symmetry halves the
    work), so the shell count is capped at 12.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("need at least one shell polynomial")
    if len(xs) > 12:
        raise ValueError("sign enumeration capped at 12 shells")
    for k, x in enumerate(xs):
        shell = 2**k
        bad = [w for w in x.coeffs if len(w) != shell]
        if bad:
            raise ValueError(
                f"shell {k}: support must sit at length {shell}, found length "
                f"{len(bad[0])}"
            )
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    den = total.norm_even(p)
    if den == 0.0:
        raise ValueError("the unsigned sum vanishes")
    best = 0.0
    n = len(xs)
    for eps in _sign_block(0, 1 << (n - 1), n).tolist():
        acc = GroupPoly.zero()
        for e, x in zip(eps, xs):
            acc = acc + e * x
        best = max(best, acc.norm_even(p) / den)
    return best
