"""Shell glob patterns as regular languages.

Both ``case`` patterns and parameter-expansion patterns (``${v%pat}``)
use shell globs: ``*`` matches any string, ``?`` any single character,
``[...]`` a character class.  In pattern-matching contexts (unlike
pathname expansion) ``*`` crosses ``/`` boundaries, which is exactly the
semantics the Steam bug hinges on (``${0%/*}`` strips from the *last*
slash because ``%`` takes the smallest matching suffix).
"""

from __future__ import annotations

from typing import List, Optional

from ..rlang import Regex
from ..rlang.charclass import CharSet
from ..rlang.syntax import Alt, Concat, Epsilon, Lit, Node, Star, concat_all
from .ast import GlobPart, LiteralPart, Part, Word

#: Character set for glob ``*`` / ``?``: any character, including newline
#: (parameter values may contain embedded newlines).
_ANY = CharSet.universe()


def glob_to_regex(pattern: str) -> Regex:
    """Compile a concrete glob pattern to its regular language."""
    return Regex.from_ast(_glob_ast(pattern), pattern=f"glob:{pattern}")


def _glob_ast(pattern: str) -> Node:
    parts: List[Node] = []
    idx = 0
    while idx < len(pattern):
        char = pattern[idx]
        if char == "*":
            parts.append(Star(Lit(_ANY)))
            idx += 1
        elif char == "?":
            parts.append(Lit(_ANY))
            idx += 1
        elif char == "[":
            charset, idx = _glob_class(pattern, idx)
            parts.append(Lit(charset))
        elif char == "\\" and idx + 1 < len(pattern):
            parts.append(Lit(CharSet.of(pattern[idx + 1])))
            idx += 2
        else:
            parts.append(Lit(CharSet.of(char)))
            idx += 1
    return concat_all(*parts)


def _glob_class(pattern: str, idx: int) -> tuple:
    """Parse ``[...]`` starting at ``idx``; returns (CharSet, next_idx).
    An unterminated class is a literal ``[`` per shell semantics."""
    pos = idx + 1
    negate = False
    if pos < len(pattern) and pattern[pos] in "!^":
        negate = True
        pos += 1
    items = CharSet.empty()
    first = True
    while pos < len(pattern):
        char = pattern[pos]
        if char == "]" and not first:
            result = items.complement() if negate else items
            return result, pos + 1
        first = False
        if pos + 2 < len(pattern) and pattern[pos + 1] == "-" and pattern[pos + 2] != "]":
            items = items.union(CharSet.range(char, pattern[pos + 2]))
            pos += 3
        else:
            items = items.union(CharSet.of(char))
            pos += 1
    return CharSet.of("["), idx + 1  # unterminated: literal bracket


def word_pattern_to_regex(word: Word) -> Optional[Regex]:
    """The regular language of a *pattern word* (e.g. a case pattern).

    Quoted parts match literally; unquoted ``*``/``?`` are wildcards.
    Returns None when the pattern contains dynamic expansions (the
    pattern's language is then unknown).
    """
    nodes: List[Node] = []
    #: what each node is built from: the tree's name in the run table
    key: List[tuple] = []
    for part in word.parts:
        if isinstance(part, LiteralPart):
            if part.quoted:
                nodes.append(_literal_node(part.text))
            else:
                nodes.append(_glob_ast(part.text))
            key.append((part.quoted, part.text))
        elif isinstance(part, GlobPart):
            if part.char == "*":
                nodes.append(Star(Lit(_ANY)))
            else:
                nodes.append(Lit(_ANY))
            key.append((part.char,))
        else:
            return None
    return Regex.from_ast(concat_all(*nodes), pattern=f"glob:{word.raw}", key=repr(key))


def _literal_node(text: str) -> Node:
    return concat_all(*(Lit(CharSet.of(c)) for c in text))
