"""Independent block equations of a Toda system as structured term lists.

Each independent block carries one matrix equation; its right-hand side is
a signed sum of products of block fields, coupling matrices, and (for the
symplectic central block) the small antidiagonal symplectic form.  The same
term lists drive the text/LaTeX/structured renderers, the block residual
evaluator, and the characteristic solver, so what is printed is exactly
what is computed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .exact import SingularMatrixError
from .liealg import _SMALL_STACK, block_matmul, symplectic_form, t_transpose


@dataclass(frozen=True)
class Factor:
    """One multiplicand: a block field, a coupling block, or the central form.

    ``base`` is "beta", "c", or "form"; ``twist`` is None, "T" (antidiagonal
    twisted transpose) or "t" (plain transpose); ``sign`` distinguishes the
    sub/superdiagonal coupling families for base "c".
    """

    base: str
    index: int = 0
    sign: str = ""
    inverse: bool = False
    twist: str | None = None

    def symbol(self, latex: bool = False) -> str:
        if self.base == "form":
            return rf"\tilde J_{{{self.index}}}" if latex else f"Jtilde_{self.index}"
        if self.base == "beta":
            core = rf"\beta_{{{self.index}}}" if latex else f"beta_{self.index}"
        else:
            core = f"C_{{{self.sign}{self.index}}}"
        decoration = ("-1" if self.inverse else "") + (self.twist or "")
        return f"{core}^{{{decoration}}}" if decoration else core


@dataclass(frozen=True)
class Term:
    sign: int
    factors: tuple[Factor, ...]


@dataclass(frozen=True)
class Equation:
    """d_+(beta_a^{-1} d_- beta_a) = sum of terms."""

    block: int
    terms: tuple[Term, ...]


def _beta(index, inverse=False, twist=None):
    return Factor("beta", index, inverse=inverse, twist=twist)


def _c(sign, index, twist=None):
    return Factor("c", index, sign=sign, twist=twist)


def _generic_terms(a: int, p: int) -> list[Term]:
    terms = []
    if a < p:
        terms.append(Term(-1, (_beta(a, inverse=True), _c("+", a), _beta(a + 1), _c("-", a))))
    if a > 1:
        terms.append(Term(+1, (_c("-", a - 1), _beta(a - 1, inverse=True), _c("+", a - 1), _beta(a))))
    return terms


def independent_equations(system) -> list[Equation]:
    """One equation per independent block, with folded boundary forms."""
    p = system.blocks.count
    s = p // 2
    cs = system.constraint_set
    eqs = []
    if cs == "A-none":
        for a in range(1, p + 1):
            eqs.append(Equation(a, tuple(_generic_terms(a, p))))
        return eqs
    for a in range(1, s + 1 if p % 2 == 0 else s + 2):
        if p % 2 == 1 and a == s + 1:
            if cs == "BD-oddp":
                terms = (
                    Term(-1, (
                        _beta(s + 1, twist="T"),
                        _c("+", s, twist="T"),
                        _beta(s, inverse=True, twist="T"),
                        _c("-", s, twist="T"),
                    )),
                    Term(+1, (_c("-", s), _beta(s, inverse=True), _c("+", s), _beta(s + 1))),
                )
            else:  # C-oddp: the small symplectic form twists the folded term
                m = system.blocks.sizes[s] // 2
                jf = Factor("form", m)
                terms = (
                    Term(+1, (
                        _beta(s + 1, inverse=True),
                        jf,
                        _c("+", s, twist="t"),
                        _beta(s, inverse=True, twist="t"),
                        _c("-", s, twist="t"),
                        jf,
                    )),
                    Term(+1, (_c("-", s), _beta(s, inverse=True), _c("+", s), _beta(s + 1))),
                )
            eqs.append(Equation(s + 1, terms))
        elif p % 2 == 0 and a == s:
            terms = [Term(-1, (
                _beta(s, inverse=True),
                _c("+", s),
                _beta(s, inverse=True, twist="T"),
                _c("-", s),
            ))]
            if s > 1:
                terms.append(
                    Term(+1, (_c("-", s - 1), _beta(s - 1, inverse=True), _c("+", s - 1), _beta(s)))
                )
            eqs.append(Equation(s, tuple(terms)))
        else:
            eqs.append(Equation(a, tuple(_generic_terms(a, p))))
    return eqs


def constraint_descriptions(system) -> list[str]:
    """Human-readable statement of the relations tying dependent blocks."""
    p = system.blocks.count
    s = p // 2
    cs = system.constraint_set
    if cs == "A-none":
        return []
    out = []
    # series C states its centre on its own line, so its mirror pairs stop short of s
    if not (cs.startswith("C") and s == 1):
        pair_range = f"a = 1..{s - 1}" if cs.startswith("C") else f"a = 1..{p - 1}"
        out.append(f"C_{{+a}}^T = -C_{{+({p}-a)}} and C_{{-a}}^T = -C_{{-({p}-a)}} for {pair_range}")
    if cs == "C-oddp":
        m = system.blocks.sizes[s] // 2
        out.append(f"Itilde_{system.blocks.sizes[s - 1]} C_{{-{s}}}^t Jtilde_{m} = -C_{{-{s + 1}}}")
        out.append(f"Jtilde_{m} C_{{+{s}}}^t Itilde_{system.blocks.sizes[s - 1]} = C_{{+{s + 1}}}")
    elif cs == "BD-evenp":
        out.append(f"C_{{+{s}}}^T = -C_{{+{s}}} and C_{{-{s}}}^T = -C_{{-{s}}}")
    elif cs == "C-evenp":
        out.append(f"C_{{+{s}}}^T = C_{{+{s}}} and C_{{-{s}}}^T = C_{{-{s}}}")
    out.append(f"beta_a^T = beta_{{{p + 1}-a}}^{{-1}}" + (" for a != %d" % (s + 1) if cs == "C-oddp" else ""))
    if cs == "BD-oddp":
        out.append(f"beta_{s + 1}^T = beta_{s + 1}^{{-1}}")
    elif cs == "C-oddp":
        m = system.blocks.sizes[s] // 2
        out.append(f"Jtilde_{m} beta_{s + 1}^t Jtilde_{m} = -beta_{s + 1}^{{-1}}")
    return out


def _render_term(term: Term, latex: bool, leading: bool) -> str:
    body = " ".join(f.symbol(latex) for f in term.factors)
    if term.sign < 0:
        return f"-{body}" if leading else f"- {body}"
    return body if leading else f"+ {body}"


def _render_equation(eq: Equation, latex: bool) -> str:
    a = eq.block
    if latex:
        lhs = rf"\partial_+\left(\beta_{{{a}}}^{{-1}} \partial_- \beta_{{{a}}}\right)"
    else:
        lhs = f"d_+(beta_{a}^{{-1}} d_- beta_{a})"
    parts = [_render_term(t, latex, i == 0) for i, t in enumerate(eq.terms)]
    rhs = " ".join(parts) if parts else "0"
    return f"{lhs} = {rhs}"


def emit_equations(system, fmt: str = "text"):
    """Render the independent equations; fmt is 'text', 'latex', or 'structured'."""
    eqs = independent_equations(system)
    constraints = constraint_descriptions(system)
    if fmt == "structured":
        return {
            "series": system.tag.series,
            "rank": system.tag.rank,
            "block_sizes": list(system.blocks.sizes),
            "constraint_set": system.constraint_set,
            "equations": [
                {
                    "block": eq.block,
                    "lhs": {"derivative": "dplus_dminus_log", "field": f"beta_{eq.block}"},
                    "terms": [
                        {"sign": t.sign, "factors": [asdict(f) for f in t.factors]}
                        for t in eq.terms
                    ],
                }
                for eq in eqs
            ],
            "constraints": constraints,
        }
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}; expected text, latex or structured")
    latex = fmt == "latex"
    lines = [_render_equation(eq, latex) for eq in eqs]
    if constraints:
        lines.append("")
        lines.append("subject to:" if not latex else "% subject to:")
        lines.extend(("  " if not latex else "% ") + c for c in constraints)
    return "\n".join(lines)


def batched_inverse(values: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack: a plain reciprocal for 1 x 1 matrices
    and, on stacks of at least ``liealg._SMALL_STACK`` 2 x 2 matrices, the
    adjugate over the determinant.

    This is the one inverse of block samples.  On an exactly singular matrix
    it raises ``SingularMatrixError`` whose ``index`` locates the first such
    matrix in row-major order of the leading axes.  A 2 x 2 stack whose
    determinant or its reciprocal is not finite (a zero, an overflow or an
    underflow) takes the general path, which decides.
    """
    if values.shape[-2:] == (1, 1):
        if values.all():
            return 1.0 / values
    else:
        if values.shape[-2:] == (2, 2) and math.prod(values.shape[:-2]) >= _SMALL_STACK:
            a, b, c, d = values[..., 0, 0], values[..., 0, 1], values[..., 1, 0], values[..., 1, 1]
            with np.errstate(all="ignore"):
                det = a * d - b * c
                inv_det = 1.0 / det
            if np.isfinite(det).all() and np.isfinite(inv_det).all():
                out = np.empty(values.shape, inv_det.dtype)
                out[..., 0, 0], out[..., 0, 1] = d * inv_det, -b * inv_det
                out[..., 1, 0], out[..., 1, 1] = -c * inv_det, a * inv_det
                return out
        try:
            return np.linalg.inv(values)
        except np.linalg.LinAlgError:
            pass
    for index in np.ndindex(values.shape[:-2]):
        try:
            np.linalg.inv(values[index])
        except np.linalg.LinAlgError:
            raise SingularMatrixError(f"singular block sample at {index}", index) from None
    raise SingularMatrixError("singular block sample")


class StationPlan:
    """The right-hand sides of a list of equations, compiled for evaluation
    at many stations.

    The plan is read off the structured term lists: every distinct factor is
    resolved once per evaluation, each distinct inverted field is asked of
    the caller once, the forms are built once here and twists are views.
    """

    def __init__(self, equations):
        self.equations = tuple(equations)
        slots: dict[Factor, int] = {}
        terms = []
        for eq in self.equations:
            if not eq.terms:
                raise ValueError("equation has no terms")
            terms.append(tuple(
                (t.sign, tuple(slots.setdefault(f, len(slots)) for f in t.factors))
                for t in eq.terms
            ))
        self._terms = tuple(terms)
        self._factors = tuple(slots)
        sources: dict[tuple, int] = {}
        self._source_of = tuple(
            None if f.base == "form" else sources.setdefault((f.base, f.sign, f.index, f.inverse), len(sources))
            for f in self._factors
        )
        self._sources = tuple(sources)
        self._forms = {
            f.index: symplectic_form(f.index).astype(complex)
            for f in self._factors if f.base == "form"
        }

    def evaluate(self, get_beta, get_inverse, get_c) -> list[np.ndarray]:
        """Right-hand side of each equation, in order.

        ``get_beta(a)``, ``get_inverse(a)`` (the inverse of ``get_beta(a)``) and
        ``get_c(sign, a)`` supply (batched) matrix values for the independent
        blocks; factor products broadcast over leading axes.
        """
        resolved = [get_c(sign, index) if base == "c" else get_inverse(index) if inverse else get_beta(index)
                    for base, sign, index, inverse in self._sources]
        values = []
        for factor, src in zip(self._factors, self._source_of):
            value = self._forms[factor.index] if src is None else resolved[src]
            if factor.twist == "T":
                value = t_transpose(value)
            elif factor.twist == "t":
                value = np.swapaxes(value, -1, -2)
            values.append(value)
        out = []
        for terms in self._terms:
            total = None
            for sign, slots in terms:
                value = reduce(block_matmul, [values[s] for s in slots])
                if sign != 1:
                    value = sign * value
                total = value if total is None else total + value
            out.append(total)
        return out


def evaluate_rhs(equation: Equation, get_beta, get_c) -> np.ndarray:
    """Numeric right-hand side of one block equation (a one-equation ``StationPlan``).

    ``get_beta(a)`` and ``get_c(sign, a)`` supply (batched) matrix values for
    the independent blocks; factor products broadcast over leading axes.
    """
    return StationPlan((equation,)).evaluate(get_beta, lambda a: batched_inverse(get_beta(a)), get_c)[0]
