"""Independent block equations of a Toda system as structured term lists.

Each independent block carries one equation of the A-series chain; series
B, C and D fold the first term of the central one by their constraints
(with the small antidiagonal symplectic form for a symplectic centre).
The same term lists drive the text/LaTeX/structured renderers and
``StationPlan``, which evaluates them on arrays of block samples for the
block residuals and the march (the caller inverts, with
``liealg.batched_inverse``), so what is printed is exactly what is computed.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .liealg import batched_inverse, block_matmul, symplectic_form, t_transpose


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


def _folded_centre(system) -> Term:
    """The first term of the central equation, folded by the constraints of
    series B, C or D: the self-paired centre of odd p (twisted by the small
    symplectic form for C) or the centre of even p, paired with its mirror."""
    s = system.blocks.count // 2
    if system.blocks.count % 2 == 0:
        return Term(-1, (_beta(s, inverse=True), _c("+", s), _beta(s, inverse=True, twist="T"), _c("-", s)))
    if system.constraint_set == "BD-oddp":
        return Term(-1, (_beta(s + 1, twist="T"), _c("+", s, twist="T"), _beta(s, inverse=True, twist="T"),
                         _c("-", s, twist="T")))
    jf = Factor("form", system.blocks.sizes[s] // 2)
    return Term(+1, (_beta(s + 1, inverse=True), jf, _c("+", s, twist="t"), _beta(s, inverse=True, twist="t"),
                     _c("-", s, twist="t"), jf))


def independent_equations(system) -> list[Equation]:
    """One equation per independent block: the A-series chain, whose central
    equation series B, C and D fold (its first term only)."""
    p = system.blocks.count
    count = p if system.constraint_set == "A-none" else (p + 1) // 2
    eqs = [Equation(a, tuple(_generic_terms(a, p))) for a in range(1, count + 1)]
    if count < p:
        eqs[-1] = Equation(count, (_folded_centre(system), *eqs[-1].terms[1:]))
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


def _shared_pair(left, right):
    """(pair, twist): the adjacent operands ``left right`` are the product of ``pair``
    twisted by ``twist``.  Of the operands and their twisted reversals (b^T a^T = (ab)^T,
    and the same for t) ``pair`` is the one with the fewest twisted operands, then the
    least, so every occurrence of a product gets one key and untwisted ones are multiplied."""
    options = [((left, right), None)]
    for twist in ("T", "t"):  # an operand twisted the other way has no reversal under this twist
        pair = tuple((node, None if own else twist) for node, own in (right, left) if own in (None, twist))
        if len(pair) == 2:
            options.append((pair, twist))
    return min(options, key=lambda option: (sum(twist is not None for _, twist in option[0]),
                                            [(node, twist or "") for node, twist in option[0]]))


def _view(values, operand):
    """The value of ``operand``: its node's value, twisted (a view)."""
    node, twist = operand
    value = values[node]
    if twist == "T":
        return t_transpose(value)
    if twist == "t":
        return np.swapaxes(value, -1, -2)
    return value


@functools.lru_cache(maxsize=64)  # a march and its residuals compile the same equations
def _compile(equations: tuple[Equation, ...]):
    """(inverted, leaves, products, terms) of a ``StationPlan``: per leaf the input of
    ``evaluate`` that holds it and its key there; per product node its operand pair;
    per term its equation, sign and operand."""
    leaves: dict[Factor, int] = {}
    chains = []  # per term: equation, sign and its operands
    for e, eq in enumerate(equations):
        if not eq.terms:
            raise ValueError("equation has no terms")
        chains.extend((e, t.sign, [(leaves.setdefault(replace(f, twist=None), len(leaves)), f.twist)
                                   for f in t.factors]) for t in eq.terms)
    products = []  # node len(leaves) + i is the product of the operand pair products[i]
    while True:
        counts = Counter(_shared_pair(*pair)[0] for _, _, ops in chains for pair in zip(ops, ops[1:]))
        shared = max(counts, key=counts.get, default=None)
        if shared is None or counts[shared] < 2:
            break
        node = len(leaves) + len(products)
        products.append(shared)
        for _, _, ops in chains:
            i = 0
            while i < len(ops) - 1:
                pair, twist = _shared_pair(ops[i], ops[i + 1])
                if pair == shared:
                    ops[i:i + 2] = [(node, twist)]
                i += 1
    for _, _, ops in chains:
        while len(ops) > 1:
            products.append((ops[0], ops[1]))
            ops[:2] = [(len(leaves) + len(products) - 1, None)]
    return (
        tuple(dict.fromkeys(f.index for f in leaves if f.inverse)),
        tuple(("form", f.index) if f.base == "form"
              else (f.sign if f.base == "c" else "inverse" if f.inverse else "beta", f.index - 1)
              for f in leaves),
        tuple(products),
        tuple((e, sign, ops[0]) for e, sign, ops in chains),
    )


class StationPlan:
    """The right-hand sides of a list of equations, compiled for evaluation
    at many stations.

    The plan is read off the structured term lists.  Each term is a chain of
    operands, an operand being a node and a twist; the nodes are the distinct
    untwisted factors (each looked up once per evaluation, the forms built
    once here) and products of two operands.  Compiling replaces the pair of
    adjacent operands that occurs most often, twisted reversals included, by
    a product node until no pair occurs twice, then multiplies the rest of
    each chain left to right, so each shared product (the blocks
    X_a = beta_a^{-1} C_{+a} beta_{a+1} of omega_+ among them) is formed once
    per evaluation.  ``inverted`` names the blocks whose inverses the terms
    take, in the order they first do; the caller supplies those inverses.
    """

    def __init__(self, equations):
        self.equations = tuple(equations)
        self.inverted, self._leaves, self._products, self._terms = _compile(self.equations)
        self._forms = {key: symplectic_form(key).astype(complex) for source, key in self._leaves if source == "form"}

    def evaluate(self, betas, inverses, c_minus, c_plus) -> list[np.ndarray]:
        """Right-hand side of each equation, in order.

        ``betas``, ``inverses`` (their inverses, needed for the blocks in
        ``inverted`` only), ``c_minus`` and ``c_plus`` hold (batched) matrix
        values of the independent blocks, block a at key a - 1; factor
        products broadcast over leading axes.
        """
        sources = {"beta": betas, "inverse": inverses, "-": c_minus, "+": c_plus, "form": self._forms}
        values = [sources[source][key] for source, key in self._leaves]
        for left, right in self._products:
            values.append(block_matmul(_view(values, left), _view(values, right)))
        out = [None] * len(self.equations)
        for e, sign, operand in self._terms:
            value = _view(values, operand)
            if sign != 1:
                value = sign * value
            out[e] = value if out[e] is None else out[e] + value
        return out


def evaluate_rhs(equation: Equation, get_beta, get_c) -> np.ndarray:
    """Numeric right-hand side of one block equation (a one-equation ``StationPlan``).

    ``get_beta(a)`` and ``get_c(sign, a)`` supply (batched) matrix values for
    the independent blocks; each is asked once for each block the equation
    names, and factor products broadcast over leading axes.
    """
    plan = StationPlan((equation,))
    named = dict.fromkeys((f.sign, f.index) for t in equation.terms for f in t.factors if f.base != "form")
    betas = {a - 1: get_beta(a) for sign, a in named if not sign}
    c_minus, c_plus = ({a - 1: get_c(sign, a) for sign, a in named if sign == s} for s in "-+")
    return plan.evaluate(betas, {a - 1: batched_inverse(betas[a - 1]) for a in plan.inverted}, c_minus, c_plus)[0]
