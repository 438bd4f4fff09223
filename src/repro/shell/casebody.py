"""Where a ``$(...)`` body that holds a ``case`` ends.

The lexer finds the end of ``$(...)`` by counting parentheses, but the
``)`` that ends an unparenthesised case pattern closes none:
``echo $(case x in x) echo y;; esac)`` prints ``y``.  When the counted
body holds a ``case`` word, :func:`scan_case_body` reads it again token
by token, with the lexer's own patterns and heredoc handling.  Scripts
without such a body never load this module.
"""

from __future__ import annotations

from .lexer import _TOKEN, _WORD_GOES_ON, Lexer, _scan_word, _unterminated
from .tokens import OPERATOR, Token

#: reserved words after which a command starts
_COMMAND_OPENERS = frozenset(("!", "{", "do", "elif", "else", "if", "then", "until", "while"))


def scan_case_body(source: str, i: int) -> int:
    """A ``$(...)`` body holding a ``case``, read token by token as the
    parser reads it: the ``)`` that ends a case pattern closes no
    parenthesis.  Each open ``case`` waits for its subject word, for
    ``in``, for a pattern or is in an arm's commands; ``case`` and
    ``esac`` are reserved only where a command starts."""
    lexer = Lexer(source)
    depth, cases, command = 1, [], True
    while True:
        match = _TOKEN.match(source, i)
        group = match.lastindex
        i = match.end()
        begin = match.start(group) if group else i
        state = cases[-1] if cases else None
        if group == 1:
            i = lexer._collect_heredocs(i)
            command = True
        elif group == 3:
            operator = match.group(3)
            if operator in ("<<", "<<-"):
                i = lexer._register_heredoc(Token(OPERATOR, operator, None), i)
            elif state == "pattern":
                if operator == ")":
                    cases[-1], command = "arm", True
            elif operator == ")":
                depth -= 1
                if not depth:
                    return i
            else:
                depth += operator == "("
                if operator == ";;" and state == "arm":
                    cases[-1] = "pattern"
                command = True
        elif group == 2 and match.group(2).isdigit():
            pass  # an IO number
        elif begin == len(source):
            raise _unterminated(source, "$(")
        else:
            if group != 4 or source[i : i + 1] in _WORD_GOES_ON:
                i = _scan_word(source, begin if group != 4 else i)
            word = source[begin:i]
            if state == "subject":
                cases[-1] = "in"
            elif state == "in":
                if word == "in":
                    cases[-1] = "pattern"
            elif state == "pattern":
                if word == "esac":
                    cases.pop()
            elif command and word == "case":
                cases.append("subject")
            elif command and word == "esac" and state == "arm":
                cases.pop()
                command = False
            else:
                command = word in _COMMAND_OPENERS
