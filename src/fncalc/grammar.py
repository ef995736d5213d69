"""Text grammar for forms, shared by the CLI and test fixtures.

    form      := term (('+'|'-') term)*
    term      := coeff? basis
    basis     := 'e{' idx (',' idx)* '}' | '1'
    coeff     := rational ('*' monomial)* | rational '*exp(i<' intvec '>)'
    monomial  := 'x' idx ('^' exponent)?

Rationals may carry an 'i' suffix for the imaginary unit ('i', '-i',
'3/2i'), since Fourier coefficients are complex; a coefficient a+bi is
serialized as two adjacent terms.  The serializer is canonical: terms are
ordered by multi-index and then by monomial/frequency key, so parsing and
serialization round-trip byte-identically.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .exterior import (
    CoefficientFunction,
    DifferentialForm,
    ModelSpace,
    VectorValuedForm,
)
from .scalars import GaussianRational, _fmt_frac, _fmt_imag


class FormSyntaxError(ValueError):
    """Malformed form text, with a human-readable position."""

    def __init__(self, message: str, text: str, pos: int | None = None):
        loc = f" at position {pos}" if pos is not None else ""
        super().__init__(f"{message}{loc}: {text!r}")


_RATIONAL_RE = re.compile(r"^(?P<num>-?\d+)(/(?P<den>\d+))?(?P<imag>i)?$|^(?P<lone>-?)i$")
_MONOMIAL_RE = re.compile(r"^x(?P<idx>\d+)(\^(?P<exp>\d+))?$")
_EXP_RE = re.compile(r"^exp\(i<(?P<vec>-?\d+(,\s*-?\d+)*)>\)$")
_BASIS_RE = re.compile(r"^e\{(?P<idx>\d+(,\s*\d+)*)\}$|^1$")


def _split_top_level(text: str, seps: str) -> list[tuple[str, int]]:
    """Split at separators outside (), {}, <>; keep start offsets."""
    pieces = []
    depth = 0
    start = 0
    out = []
    for pos, ch in enumerate(text):
        if ch in "({<":
            depth += 1
        elif ch in ")}>":
            depth -= 1
            if depth < 0:
                raise FormSyntaxError("unbalanced brackets", text, pos)
        elif depth == 0 and ch in seps and pos > start:
            out.append((text[start:pos], start))
            start = pos
    if depth != 0:
        raise FormSyntaxError("unbalanced brackets", text)
    out.append((text[start:], start))
    return out


def _parse_rational(token: str, text: str, pos: int) -> GaussianRational:
    m = _RATIONAL_RE.match(token)
    if not m:
        raise FormSyntaxError(f"bad rational {token!r}", text, pos)
    if m.group("lone") is not None and m.group("num") is None:
        return GaussianRational(0, -1 if m.group("lone") == "-" else 1)
    num = int(m.group("num"))
    den = int(m.group("den") or 1)
    if den == 0:
        raise FormSyntaxError("zero denominator", text, pos)
    value = Fraction(num, den)
    if m.group("imag"):
        return GaussianRational(0, value)
    return GaussianRational(value)


def _parse_coefficient(space: ModelSpace, token: str, text: str, pos: int):
    """Returns (scalar, key) with key the monomial exponent or frequency."""
    parts = [p for p, _ in _split_top_level(token, "*")]
    parts = [p.lstrip("*") for p in parts]
    scalar = _parse_rational(parts[0], text, pos)
    exponents = [0] * space.dim
    freq: list[int] | None = None
    for factor in parts[1:]:
        mono = _MONOMIAL_RE.match(factor)
        if mono:
            if not space.is_affine:
                raise FormSyntaxError("monomials need the affine flavor", text, pos)
            idx = int(mono.group("idx"))
            if not 1 <= idx <= space.dim:
                raise FormSyntaxError(f"coordinate x{idx} out of range", text, pos)
            exponents[idx - 1] += int(mono.group("exp") or 1)
            continue
        expf = _EXP_RE.match(factor)
        if expf:
            if space.is_affine:
                raise FormSyntaxError("Fourier factors need the toroidal flavor", text, pos)
            if freq is not None:
                raise FormSyntaxError("repeated Fourier factor", text, pos)
            vec = [int(x) for x in expf.group("vec").replace(" ", "").split(",")]
            if len(vec) != space.dim:
                raise FormSyntaxError(
                    f"frequency arity {len(vec)} != dimension {space.dim}", text, pos
                )
            freq = vec
            continue
        raise FormSyntaxError(f"bad coefficient factor {factor!r}", text, pos)
    if space.is_affine:
        key = tuple(exponents)
    else:
        key = tuple(freq) if freq is not None else (0,) * space.dim
    return scalar, key


def _parse_basis(space: ModelSpace, token: str, text: str, pos: int) -> tuple[int, ...]:
    if token == "1":
        return ()
    m = _BASIS_RE.match(token)
    if not m or m.group("idx") is None:
        raise FormSyntaxError(f"bad basis {token!r}", text, pos)
    idx = tuple(int(x) for x in m.group("idx").replace(" ", "").split(","))
    for i in idx:
        if not 1 <= i <= space.dim:
            raise FormSyntaxError(f"frame index {i} out of range 1..{space.dim}", text, pos)
    for a, b in zip(idx, idx[1:]):
        if a >= b:
            raise FormSyntaxError(f"indices must increase strictly: {token}", text, pos)
    return idx


def parse_form(text: str, space: ModelSpace, degree: int | None = None) -> DifferentialForm:
    """Parse the grammar into a canonical form on the given space."""
    stripped = text.strip()
    if stripped == "0":
        return DifferentialForm.zero(space, degree if degree is not None else 0)
    terms: dict = {}
    inferred: int | None = None
    for chunk, offset in _split_top_level(stripped, "+-"):
        piece = chunk.strip()
        if not piece:
            raise FormSyntaxError("empty term", text, offset)
        sign = 1
        if piece[0] in "+-":
            sign = -1 if piece[0] == "-" else 1
            piece = piece[1:].strip()
            if not piece:
                raise FormSyntaxError("dangling sign", text, offset)
        tokens = piece.split()
        if len(tokens) == 1:
            coeff_token, basis_token = None, tokens[0]
        elif len(tokens) == 2:
            coeff_token, basis_token = tokens
        else:
            raise FormSyntaxError(f"too many tokens in term {piece!r}", text, offset)
        if coeff_token is None and not _BASIS_RE.match(basis_token):
            # a lone rational like "3/2" is the constant times the basis '1'
            coeff_token, basis_token = basis_token, "1"
        idx = _parse_basis(space, basis_token, text, offset)
        if inferred is None:
            inferred = len(idx)
        elif inferred != len(idx):
            raise FormSyntaxError(
                f"mixed degrees {inferred} and {len(idx)}", text, offset
            )
        if coeff_token is None:
            scalar, key = GaussianRational(1), (0,) * space.dim
        else:
            scalar, key = _parse_coefficient(space, coeff_token, text, offset)
        if sign < 0:
            scalar = -scalar
        bucket = terms.setdefault(idx, {})
        bucket[key] = bucket.get(key, GaussianRational(0)) + scalar
    if degree is not None and inferred is not None and degree != inferred:
        raise FormSyntaxError(f"expected degree {degree}, found {inferred}", text)
    final_degree = degree if degree is not None else (inferred or 0)
    return DifferentialForm(
        space,
        final_degree,
        {idx: CoefficientFunction(space, bucket) for idx, bucket in terms.items()},
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _key_factors(space: ModelSpace, key: tuple[int, ...]) -> str:
    if space.is_affine:
        bits = []
        for j, e in enumerate(key, start=1):
            if e == 1:
                bits.append(f"x{j}")
            elif e > 1:
                bits.append(f"x{j}^{e}")
        return "*".join(bits)
    if any(key):
        return f"exp(i<{','.join(str(x) for x in key)}>)"
    return ""


def serialize_form(a: DifferentialForm) -> str:
    """Canonical text of a form (inverse of parse_form)."""
    pieces: list[tuple[int, str]] = []  # (negative?, text-without-sign)
    # the flat terms sorted by (index, key): by index, then by key
    for idx, key in sorted(a.terms):
        val = a.terms[idx, key]
        basis = "e{" + ",".join(str(i) for i in idx) + "}" if idx else "1"
        factors = _key_factors(a.space, key)
        for part, imag in ((val.real, False), (val.imag, True)):
            if not part:
                continue
            mag = (_fmt_imag if imag else _fmt_frac)(abs(part.numerator), part.denominator)
            if factors:
                text = f"{mag}*{factors} {basis}"
            elif mag == "1" and idx:
                text = basis
            else:
                text = f"{mag} {basis}"
            pieces.append((part < 0, text))
    if not pieces:
        return "0"
    out = []
    for neg, text in pieces:
        if not out:
            out.append(("-" if neg else "") + text)
        else:
            out.append(("- " if neg else "+ ") + text)
    return " ".join(out)


def serialize_vvform(K: VectorValuedForm) -> str:
    """JSON serialization per component."""
    return json.dumps(
        {
            "degree": K.degree,
            "components": [serialize_form(c) for c in K.components],
        },
        separators=(", ", ": "),
    )


def parse_vvform(text: str, space: ModelSpace) -> VectorValuedForm:
    data = json.loads(text)
    degree = data["degree"]
    comps = [parse_form(s, space, degree) for s in data["components"]]
    if len(comps) != space.dim:
        raise FormSyntaxError(
            f"{len(comps)} components for dimension {space.dim}", text
        )
    return VectorValuedForm(space, degree, comps)
