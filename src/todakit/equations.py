"""Independent block equations of a Toda system as structured term lists.

Each independent block carries one matrix equation; its right-hand side is
a signed sum of products of block fields, coupling matrices, and (for the
symplectic central block) the small antidiagonal symplectic form.  The same
term lists drive the text/LaTeX/structured renderers, the block residual
evaluator, and the characteristic solver, so what is printed is exactly
what is computed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .liealg import symplectic_form, t_transpose


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
            core = rf"\tilde J_{{{self.index}}}" if latex else f"Jtilde_{self.index}"
            return core
        if self.base == "beta":
            core = rf"\beta_{{{self.index}}}" if latex else f"beta_{self.index}"
        else:
            core = rf"C_{{{self.sign}{self.index}}}" if latex else f"C_{{{self.sign}{self.index}}}"
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
    if not (cs == "C-oddp" and s == 1):
        pair_range = f"a = 1..{s - 1}" if cs == "C-oddp" else f"a = 1..{p - 1}"
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


def _factor_value(factor: Factor, get_beta, get_c) -> np.ndarray:
    if factor.base == "form":
        return symplectic_form(factor.index).astype(complex)
    value = get_beta(factor.index) if factor.base == "beta" else get_c(factor.sign, factor.index)
    if factor.inverse:
        value = np.linalg.inv(value)
    if factor.twist == "T":
        value = t_transpose(value)
    elif factor.twist == "t":
        value = np.swapaxes(value, -1, -2)
    return value


def evaluate_rhs(equation: Equation, get_beta, get_c) -> np.ndarray:
    """Numeric right-hand side of one block equation.

    ``get_beta(a)`` and ``get_c(sign, a)`` supply (batched) matrix values for
    the independent blocks; factor products broadcast over leading axes.
    """
    total = None
    for term in equation.terms:
        value = reduce(np.matmul, (_factor_value(f, get_beta, get_c) for f in term.factors))
        value = term.sign * value
        total = value if total is None else total + value
    if total is None:
        raise ValueError("equation has no terms")
    return total
