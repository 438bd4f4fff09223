"""Command type signatures, including polymorphic regular types (§4).

A signature describes a stream transformer::

    grep '^desc'  ::  .* -> desc.*              (simple)
    grep '^desc'  ::  ∀α. α -> α ∩ desc.*       (filter, precise)
    sed 's/^/0x/' ::  ∀α. α -> 0xα              (polymorphic concat)
    sort -g       ::  ∀α ⊆ 0x[0-9a-f]+.*. α -> α (bounded polymorphism)

Type expressions are restricted so that application is decidable and
cheap: the input pattern is a concrete language or a (bounded) variable;
the output is a concatenation of concrete languages and variables, or a
variable intersected with a filter language.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..records import FrozenRecord, set_field
from ..rlang import Regex
from .types import StreamType


class TypeError_(Exception):
    """A stream type mismatch (named to avoid shadowing the builtin)."""


class TypeVarT(FrozenRecord):
    """A quantified type variable, optionally bounded: ``∀α ⊆ bound``."""

    __slots__ = ("name", "bound")

    def __init__(self, name: str, bound: Optional[Regex] = None):
        set_field(self, "name", name)
        set_field(self, "bound", bound)

    def __str__(self) -> str:
        if self.bound is not None:
            return f"{self.name}⊆{self.bound.pattern or '<lang>'}"
        return self.name


class TypeExpr(FrozenRecord):
    """Base class for type expressions."""

    __slots__ = ()


class Concrete(TypeExpr):
    __slots__ = ("lang",)

    def __init__(self, lang: Regex):
        set_field(self, "lang", lang)

    def __str__(self) -> str:
        return self.lang.pattern or "<lang>"


class Var(TypeExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __str__(self) -> str:
        return self.name


class ConcatT(TypeExpr):
    """Concatenation of parts, e.g. ``0xα``."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        set_field(self, "parts", parts)

    def __str__(self) -> str:
        return "".join(str(p) for p in self.parts)


class Filtered(TypeExpr):
    """``α ∩ F`` — the filter reading of grep-like commands."""

    __slots__ = ("var", "filter")

    def __init__(self, var: str, filter: Regex):
        set_field(self, "var", var)
        set_field(self, "filter", filter)

    def __str__(self) -> str:
        return f"{self.var}∩{self.filter.pattern or '<lang>'}"


class Mapped(TypeExpr):
    """``h(α)`` — the homomorphic image of the input under a
    per-character map (the type of ``tr SET1 SET2``).  Compared and
    hashed by identity: ``translate`` is a function."""

    __slots__ = ("var", "translate", "label")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, var: str, translate: object, label: str = "h"):
        set_field(self, "var", var)
        set_field(self, "translate", translate)  # Callable[[CharSet], CharSet]
        set_field(self, "label", label)

    def __str__(self) -> str:
        return f"{self.label}({self.var})"


class Signature(FrozenRecord):
    """``∀vars. input -> output`` over line languages."""

    __slots__ = ("input", "output", "vars", "label")

    def __init__(self, input: TypeExpr, output: TypeExpr, vars: tuple = (), label: str = ""):
        set_field(self, "input", input)
        set_field(self, "output", output)
        set_field(self, "vars", vars)
        set_field(self, "label", label)

    def __str__(self) -> str:
        quant = ""
        if self.vars:
            quant = "∀" + ",".join(str(v) for v in self.vars) + ". "
        return f"{self.label or 'cmd'} :: {quant}{self.input} -> {self.output}"


# -- constructors ------------------------------------------------------------


def simple(input_pattern: str, output_pattern: str, label: str = "") -> Signature:
    """A monomorphic ``IN -> OUT`` signature."""
    return Signature(
        Concrete(Regex.compile(input_pattern)),
        Concrete(Regex.compile(output_pattern)),
        label=label,
    )


def identity(label: str = "", bound: Optional[Regex] = None) -> Signature:
    """``∀α[⊆bound]. α -> α`` — sort, cat, uniq, tac, head, tail..."""
    tv = TypeVarT("α", bound)
    return Signature(Var("α"), Var("α"), vars=(tv,), label=label)


def filter_sig(filter_pattern: str, label: str = "") -> Signature:
    """``∀α. α -> α ∩ F`` — the precise type of a grep filter."""
    tv = TypeVarT("α")
    return Signature(
        Var("α"), Filtered("α", Regex.compile(filter_pattern)), vars=(tv,), label=label
    )


def prefix_sig(prefix: str, label: str = "") -> Signature:
    """``∀α. α -> PREFIXα`` — sed 's/^/PREFIX/'."""
    tv = TypeVarT("α")
    return Signature(
        Var("α"),
        ConcatT((Concrete(Regex.literal(prefix)), Var("α"))),
        vars=(tv,),
        label=label,
    )


def suffix_sig(suffix: str, label: str = "") -> Signature:
    """``∀α. α -> αSUFFIX`` — sed 's/$/SUFFIX/'."""
    tv = TypeVarT("α")
    return Signature(
        Var("α"),
        ConcatT((Var("α"), Concrete(Regex.literal(suffix)))),
        vars=(tv,),
        label=label,
    )


def producer(output_pattern: str, label: str = "") -> Signature:
    """A source command: any input (ignored), fixed output language.

    ``output_pattern`` is written in the analyzer's source, never taken
    from a script, so both languages are process-wide constants."""
    return Signature(
        Concrete(Regex.constant("(.|\\n)*")),
        Concrete(Regex.constant(output_pattern)),
        label=label,
    )


# -- application ---------------------------------------------------------------


def apply_signature(sig: Signature, input_type: StreamType) -> StreamType:
    """Instantiate and apply a signature to an input stream type.

    Raises :class:`TypeError_` when the input is not contained in the
    signature's domain (or a variable's bound).
    """
    bindings: Dict[str, Regex] = {}
    _match_input(sig, sig.input, input_type.line, bindings)
    for tv in sig.vars:
        if tv.bound is not None and tv.name in bindings:
            if not bindings[tv.name] <= tv.bound:
                raise TypeError_(
                    f"{sig.label or 'command'}: input language is not within "
                    f"the bound of {tv} — a value outside "
                    f"{tv.bound.pattern or 'the bound'} may reach it"
                    + _witness(bindings[tv.name] - tv.bound)
                )
    out = _eval_output(sig.output, bindings)
    return StreamType(out)


def _match_input(
    sig: Signature, expr: TypeExpr, lang: Regex, bindings: Dict[str, Regex]
) -> None:
    if isinstance(expr, Concrete):
        if not lang <= expr.lang:
            raise TypeError_(
                f"{sig.label or 'command'} expects input ⊆ "
                f"{expr.lang.pattern or '<lang>'}" + _witness(lang - expr.lang)
            )
        return
    if isinstance(expr, Var):
        bindings[expr.name] = lang
        return
    raise TypeError_(f"unsupported input pattern {expr}")


def _eval_output(expr: TypeExpr, bindings: Dict[str, Regex]) -> Regex:
    if isinstance(expr, Concrete):
        return expr.lang
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise TypeError_(f"unbound type variable {expr.name}")
        return bindings[expr.name]
    if isinstance(expr, ConcatT):
        result: Optional[Regex] = None
        for part in expr.parts:
            lang = _eval_output(part, bindings)
            result = lang if result is None else result + lang
        return result if result is not None else Regex.literal("")
    if isinstance(expr, Filtered):
        if expr.var not in bindings:
            raise TypeError_(f"unbound type variable {expr.var}")
        return bindings[expr.var] & expr.filter
    if isinstance(expr, Mapped):
        if expr.var not in bindings:
            raise TypeError_(f"unbound type variable {expr.var}")
        return bindings[expr.var].map_chars(expr.translate)
    raise TypeError_(f"unsupported output expression {expr}")


def _witness(diff: Regex) -> str:
    example = diff.example()
    if example is None:
        return ""
    return f" (e.g. the line {example!r})"
