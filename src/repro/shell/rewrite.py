"""Semantics-preserving source rewrites for metamorphic testing.

Each rewrite maps shell source to shell source such that any POSIX
shell executes both identically; the metamorphic oracle then asserts
the analyzer's diagnostics are invariant under them.  Rewrites are
deliberately conservative — when a construct cannot be transformed
soundly it is left untouched (an identity rewrite is a valid, if
uninformative, metamorphic relation).
"""

from __future__ import annotations

from typing import List, Optional

from .ast import (
    AndOr,
    Assignment,
    Background,
    BraceGroup,
    Case,
    CaseItem,
    Command,
    ElifClause,
    For,
    FunctionDef,
    If,
    Pipeline,
    Sequence,
    SimpleCommand,
    Subshell,
    While,
    Word,
)
from .parser import parse
from .printer import render

#: characters that expand, quote, glob, or delimit — a word made only of
#: characters *outside* this set means the same thing bare or quoted
_UNSAFE_CHARS = set(" \t\n'\"\\$`*?[]{}()<>|&;!~#=%")


def _quotable(raw: str) -> bool:
    """Is ``word`` ≡ ``"word"`` for any shell?  True only for non-empty
    purely-literal words: no expansions, no glob characters (quoting
    would suppress expansion), no quotes, not starting with ``~``."""
    if not raw:
        return False
    return not (_UNSAFE_CHARS & set(raw))


def _quote_word(word: Word, enabled: bool) -> Word:
    if enabled and _quotable(word.raw):
        return Word(word.parts, f'"{word.raw}"', word.pos)
    return word


def quote_literals(node: Command) -> Command:
    """Double-quote every safely-quotable literal argument word.

    ``mkdir cache`` → ``mkdir "cache"``: quoting a word with no
    expansion or glob characters never changes what the command
    receives.  Command names (``words[0]``) and case patterns are left
    alone — quoting them is also sound in POSIX, but keeping them bare
    preserves a visibly larger safety margin for reserved-word and
    pattern-matching corners.
    """
    if isinstance(node, SimpleCommand):
        words = [
            _quote_word(w, enabled=(i > 0)) for i, w in enumerate(node.words)
        ]
        assignments = [
            Assignment(a.name, _quote_word(a.value, enabled=True), a.pos)
            for a in node.assignments
        ]
        return SimpleCommand(words, assignments, node.redirects, node.pos)
    if isinstance(node, Pipeline):
        return Pipeline([quote_literals(c) for c in node.commands], node.negated, node.pos)
    if isinstance(node, AndOr):
        return AndOr(quote_literals(node.left), node.op, quote_literals(node.right), node.pos)
    if isinstance(node, Sequence):
        return Sequence([quote_literals(c) for c in node.commands], node.pos)
    if isinstance(node, Background):
        return Background(quote_literals(node.command), node.pos)
    if isinstance(node, (Subshell, BraceGroup)):
        return type(node)(quote_literals(node.body), node.redirects, node.pos)
    if isinstance(node, If):
        return If(
            quote_literals(node.cond),
            quote_literals(node.then),
            [ElifClause(quote_literals(e.cond), quote_literals(e.then)) for e in node.elifs],
            quote_literals(node.else_) if node.else_ is not None else None,
            node.redirects,
            node.pos,
        )
    if isinstance(node, While):
        return While(
            quote_literals(node.cond), quote_literals(node.body), node.until,
            node.redirects, node.pos,
        )
    if isinstance(node, For):
        words: Optional[List[Word]] = node.words
        if words is not None:
            words = [_quote_word(w, enabled=True) for w in words]
        return For(node.var, words, quote_literals(node.body), node.redirects, node.pos)
    if isinstance(node, Case):
        items = [
            CaseItem(item.patterns, quote_literals(item.body) if item.body is not None else None)
            for item in node.items
        ]
        return Case(node.subject, items, node.redirects, node.pos)
    if isinstance(node, FunctionDef):
        return FunctionDef(node.name, quote_literals(node.body), node.pos)
    return node


# -- source-level rewrites (parse → transform → render) ----------------------


def rewrite_roundtrip(source: str) -> str:
    """Identity rewrite: print the parsed AST back to source."""
    return render(parse(source))


def rewrite_newlines(source: str) -> str:
    """``;``↔newline: top-level commands one per line."""
    return render(parse(source), multiline=True)


def rewrite_quotes(source: str) -> str:
    """Quote normalization: double-quote safely-quotable literals."""
    return render(quote_literals(parse(source)))


def rewrite_brace_group(source: str) -> str:
    """``{ }`` grouping: wrap the whole program in a brace group —
    ``{ list; }`` executes ``list`` in the current environment with no
    other effect."""
    node = parse(source)
    if not render(node).strip():
        return render(node)  # `{ ; }` is a syntax error: empty programs stay bare
    return render(BraceGroup(body=node, pos=node.pos))


#: name -> rewrite, in reporting order
REWRITES = {
    "roundtrip": rewrite_roundtrip,
    "newlines": rewrite_newlines,
    "quotes": rewrite_quotes,
    "brace-group": rewrite_brace_group,
}
