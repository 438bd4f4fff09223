"""Recursive-descent parser for the POSIX shell grammar.

Covers the constructs the paper's analysis reasons about: simple
commands with assignments and redirections, pipelines, and-or lists,
``;``/``&``/newline sequencing, subshells, brace groups, ``if``/``while``/
``until``/``for``/``case``, and function definitions.

The parser pulls tokens from the lexer as it needs them, looking at most
one past the current one.  A command substitution is parsed once, when
the lexer meets its ``$(``: :func:`parse_substitution` parses the body
from the same source as a command list and stops at the ``)`` that
closes it, so a ``)`` in a case pattern, a comment, a quote or a heredoc
closes nothing, and nothing past that ``)`` is lexed.  The command is kept in
:attr:`Parser.subs` for the word parser, which puts it in the word's
:class:`~repro.shell.ast.CmdSubPart`.  A backquoted body is parsed from
its unescaped text (:meth:`Parser.parse_backquoted`).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import words as words_mod
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
    Redirect,
    Sequence,
    SimpleCommand,
    Subshell,
    While,
    Word,
)
from .lexer import MAX_NESTING_DEPTH, Lexer, ParseDepthExceeded, ShellSyntaxError, too_deep
from .tokens import (
    EOF,
    IO_NUMBER,
    NEWLINE,
    OPERATOR,
    REDIRECT_OPERATORS,
    RESERVED_WORDS,
    WORD,
    Position,
    Token,
)

#: a word's leading ``NAME=`` (the name's first character is checked apart)
_ASSIGNMENT = re.compile(r"(\w+)=")


class Parser:
    """A parse of ``source``: the whole script, or with an ``origin`` the
    body of a ``$(...)`` that starts there, at offset ``start`` (see
    :func:`parse_substitution`).  ``depth`` is the nesting level the
    parse starts at."""

    def __init__(self, source: str, start: int = 0, depth: int = 0, origin: Position = None):
        self.source = source
        #: current nesting depth; the lexer counts the quotes, brackets
        #: and substitutions of a word on from it, toward the same ceiling
        self.depth = depth
        if depth > MAX_NESTING_DEPTH:
            raise too_deep(origin or Position())
        self.lexer = Lexer(source, self, start, origin)
        #: the parsed ``$(...)`` bodies of the words lexed so far, by the
        #: offset just past their ``$(``: the offset past the closing
        #: ``)`` and the command
        self.subs: Dict[int, Tuple[int, Command]] = {}
        #: the next token (the lexer's, or the one :meth:`peek` lexed)
        self._next = self.lexer.next_token
        self.current = self._next()

    # -- token access -----------------------------------------------------

    def peek(self) -> Token:
        """The token after the current one."""
        token, lexed = self._next(), self._next

        def again() -> Token:
            self._next = lexed
            return token

        self._next = again
        return token

    def take(self) -> Token:
        token = self.current
        if token.kind is not EOF:
            self.current = self._next()
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ShellSyntaxError:
        token = token or self.current
        return ShellSyntaxError(message, token.pos)

    def expect(self, text: str) -> Token:
        """Take the token whose text is ``text`` (a reserved word's or an
        operator's: an operator's text is never a word's)."""
        token = self.take()
        if token.text != text:
            raise self.error(f"expected {text!r}, found {token.text!r}", token)
        return token

    def skip_newlines(self) -> None:
        while self.current.kind is NEWLINE:
            self.current = self._next()

    # -- words -----------------------------------------------------------

    def make_word(self, token: Token) -> Word:
        return words_mod.parse_word(token.text, token.pos, self, token.pos.offset)

    def substitution(self, start: int, origin: Position, depth: int) -> int:
        """The lexer met ``$(`` just before ``start``, at ``origin``: parse
        the body at nesting level ``depth`` and keep it for the word
        parser."""
        command, end = parse_substitution(self.source, start, origin, depth)
        self.subs[start] = (end, command)
        return end

    def parse_backquoted(self, source: str) -> Command:
        """Parse a backquoted body's unescaped text, two levels deeper."""
        return Parser(source, depth=self.depth + 2).parse_program()

    # -- entry -------------------------------------------------------------

    def parse_program(self) -> Command:
        """The whole script, up to the end of input."""
        return self._parse_closed("")

    def _parse_closed(self, closing: str) -> Command:
        """Commands up to the token whose text is ``closing``: the end
        of input's (empty) or the ``)`` that closes a substitution's body
        (no word's text is ``)``)."""
        self.skip_newlines()
        commands: List[Command] = []
        while self.current.text != closing:
            commands.append(self.parse_and_or())
            if not self._separate(commands):
                if self.current.text != closing:
                    raise self.error(f"unexpected token {self.current.text!r}")
        return _sequence(commands)

    # -- command lists within compound constructs ----------------------------

    #: the texts of the tokens that end one: reserved words, the end of
    #: input's and operators (no word's text is an operator's or empty)
    _LIST_ENDERS = {"then", "else", "elif", "fi", "do", "done", "esac", "}", "", ")", ";;"}

    def parse_list(self) -> Command:
        """A command list terminated by a reserved word or closing token."""
        self.skip_newlines()
        commands: List[Command] = []
        while self.current.text not in self._LIST_ENDERS:
            commands.append(self.parse_and_or())
            if not self._separate(commands):
                break
        if not commands:
            raise self.error("empty command list")
        return _sequence(commands)

    def _separate(self, commands: List[Command]) -> bool:
        """Take the ``;``, ``&`` or newlines after the last of
        ``commands`` (``&`` backgrounds it); False if none follows."""
        sep = self.current
        if sep.is_op("&"):
            commands[-1] = Background(commands[-1], pos=sep.pos)
        elif not sep.is_op(";") and sep.kind is not NEWLINE:
            return False
        self.take()
        self.skip_newlines()
        return True

    # -- and-or / pipeline -----------------------------------------------------

    def parse_and_or(self) -> Command:
        left = self.parse_pipeline()
        while self.current.is_op("&&", "||"):
            op_token = self.take()
            self.skip_newlines()
            right = self.parse_pipeline()
            left = AndOr(left, op_token.text, right, pos=op_token.pos)
        return left

    def parse_pipeline(self) -> Command:
        negated = False
        if self.current.is_word("!"):
            self.take()
            negated = True
        first = self.parse_command()
        commands = [first]
        while self.current.is_op("|"):
            self.take()
            self.skip_newlines()
            commands.append(self.parse_command())
        if len(commands) == 1 and not negated:
            return first
        return Pipeline(commands, negated=negated, pos=getattr(first, "pos", Position()))

    # -- commands ---------------------------------------------------------------

    #: the compound commands by the token that opens them (an operator's
    #: text is never a word's, so the text alone tells them apart)
    _COMPOUND = {
        "(": "parse_subshell",
        "{": "parse_brace_group",
        "if": "parse_if",
        "while": "parse_while",
        "until": "parse_while",
        "for": "parse_for",
        "case": "parse_case",
    }

    def parse_command(self) -> Command:
        token = self.current
        compound = self._COMPOUND.get(token.text)
        if compound is None:
            command = self.parse_simple_command()
            # a function definition is a name, then ``(`` and ``)``
            if not (
                self.current.text == "("
                and token.kind is WORD
                and len(command.words) + len(command.assignments) == 1
                and not command.redirects
                and self.peek().is_op(")")
            ):
                return command
        self.depth += 1
        try:
            if self.depth > MAX_NESTING_DEPTH:
                raise too_deep(token.pos)
            if compound is None:
                return self.parse_function_def(token)
            command = getattr(self, compound)()
        finally:
            self.depth -= 1
        return self._with_redirects(command)

    def _with_redirects(self, command: Command) -> Command:
        while (redirect := self.try_parse_redirect()) is not None:
            command.redirects.append(redirect)  # type: ignore[attr-defined]
        return command

    def try_parse_redirect(self) -> Optional[Redirect]:
        fd: Optional[int] = None
        if self.current.kind is IO_NUMBER:
            # the lexer makes an IO number only of digits just before a
            # ``<`` or ``>``, so a redirect operator follows
            fd = int(self.take().text)
        if self.current.kind is not OPERATOR or self.current.text not in REDIRECT_OPERATORS:
            return None
        op = self.take()
        if op.text in ("<<", "<<-"):  # the lexer attached the delimiter word
            target = Word(parts=[], raw=op.raw or "", pos=op.pos)
            redirect = Redirect(op.text, target, fd, heredoc_quoted=op.heredoc_quoted)
            self.lexer.send_heredoc(op, redirect)
            return redirect
        word_token = self.take()
        if word_token.kind is not WORD:
            raise self.error("redirect requires a target word", word_token)
        return Redirect(op.text, self.make_word(word_token), fd)

    def parse_simple_command(self) -> SimpleCommand:
        cmd = SimpleCommand(pos=self.current.pos)
        seen_word = False
        while True:
            token = self.current
            if token.kind is not WORD:
                redirect = self.try_parse_redirect()
                if redirect is None:
                    break
                cmd.redirects.append(redirect)
                continue
            if not seen_word and not cmd.assignments and token.text in RESERVED_WORDS:
                break
            assignment = None if seen_word else _try_assignment(token)
            self.current = self._next()
            if assignment is not None:
                name, value_raw = assignment
                base = token.pos.offset + len(token.text) - len(value_raw)
                value = words_mod.parse_word(value_raw, token.pos, self, base)
                cmd.assignments.append(Assignment(name, value, token.pos))
            else:
                seen_word = True
                cmd.words.append(self.make_word(token))
        if not cmd.words and not cmd.assignments and not cmd.redirects:
            raise self.error(f"expected a command, found {self.current.text!r}")
        return cmd

    # -- compound commands ---------------------------------------------------------

    def parse_subshell(self) -> Subshell:
        open_token = self.expect("(")
        body = self.parse_list()
        self.expect(")")
        return Subshell(body, pos=open_token.pos)

    def parse_brace_group(self) -> BraceGroup:
        open_token = self.expect("{")
        body = self.parse_list()
        self.expect("}")
        return BraceGroup(body, pos=open_token.pos)

    def parse_if(self) -> If:
        if_token = self.expect("if")
        cond = self.parse_list()
        self.expect("then")
        then = self.parse_list()
        elifs: List[ElifClause] = []
        else_: Optional[Command] = None
        while self.current.is_word("elif"):
            self.take()
            elif_cond = self.parse_list()
            self.expect("then")
            elifs.append(ElifClause(elif_cond, self.parse_list()))
        if self.current.is_word("else"):
            self.take()
            else_ = self.parse_list()
        self.expect("fi")
        return If(cond, then, elifs=elifs, else_=else_, pos=if_token.pos)

    def parse_while(self) -> While:
        kw_token = self.take()  # "while" or "until"
        cond = self.parse_list()
        self.expect("do")
        body = self.parse_list()
        self.expect("done")
        return While(cond, body, until=(kw_token.text == "until"), pos=kw_token.pos)

    def parse_for(self) -> For:
        for_token = self.expect("for")
        name_token = self.take()
        if name_token.kind is not WORD:
            raise self.error("expected a variable name after 'for'", name_token)
        iter_words: Optional[List[Word]] = None
        self.skip_newlines()
        if self.current.is_word("in"):
            self.take()
            iter_words = []
            while self.current.kind is WORD and not self.current.is_word("do"):
                iter_words.append(self.make_word(self.take()))
            if self.current.is_op(";"):
                self.take()
            self.skip_newlines()
        elif self.current.is_op(";"):
            self.take()
            self.skip_newlines()
        self.expect("do")
        body = self.parse_list()
        self.expect("done")
        return For(name_token.text, iter_words, body, pos=for_token.pos)

    def parse_case(self) -> Case:
        case_token = self.expect("case")
        subject_token = self.take()
        if subject_token.kind is not WORD:
            raise self.error("expected a word after 'case'", subject_token)
        subject = self.make_word(subject_token)
        self.skip_newlines()
        self.expect("in")
        self.skip_newlines()
        items: List[CaseItem] = []
        while not self.current.is_word("esac"):
            if self.current.kind is EOF:
                raise self.error("missing 'esac'")
            if self.current.is_op("("):
                self.take()
            patterns = [self._case_pattern()]
            while self.current.is_op("|"):
                self.take()
                patterns.append(self._case_pattern())
            self.expect(")")
            self.skip_newlines()
            body: Optional[Command] = None
            if not self.current.is_op(";;") and not self.current.is_word("esac"):
                body = self.parse_list()
            items.append(CaseItem(patterns, body))
            if self.current.is_op(";;"):
                self.take()
                self.skip_newlines()
        self.expect("esac")
        return Case(subject, items=items, pos=case_token.pos)

    def _case_pattern(self) -> Word:
        token = self.take()
        if token.kind is not WORD:
            raise self.error("expected a case pattern", token)
        return self.make_word(token)

    def parse_function_def(self, name_token: Token) -> FunctionDef:
        """The rest of a function definition, after its name."""
        self.expect("(")
        self.expect(")")
        self.skip_newlines()
        body = self.parse_command()
        return FunctionDef(name_token.text, body, pos=name_token.pos)


def _try_assignment(token: Token) -> Optional[tuple]:
    """``NAME=value`` detection (value may be empty)."""
    match = _ASSIGNMENT.match(token.text)
    if match is None:
        return None
    name = match.group(1)
    if not (name[0].isalpha() or name[0] == "_"):
        return None
    return name, token.text[match.end() :]


def _sequence(commands: List[Command]) -> Command:
    return commands[0] if len(commands) == 1 else Sequence(commands)


def parse(source: str) -> Command:
    """Parse shell ``source`` into a command AST.

    Construct nesting is bounded by :data:`MAX_NESTING_DEPTH`; exceeding
    it raises :class:`ParseDepthExceeded` rather than
    :class:`RecursionError`.
    """
    return Parser(source).parse_program()


def parse_substitution(
    source: str, start: int, origin: Position, depth: int = 0
) -> Tuple[Command, int]:
    """The body of the ``$(...)`` whose ``$(`` ends just before
    ``start``, at position ``origin``, parsed at nesting ``depth``: its
    command and the offset just past the ``)`` that closes it."""
    parser = Parser(source, start, depth, origin)
    command = parser._parse_closed(")")
    closing = parser.current
    if parser.lexer.pending_heredocs:
        raise ShellSyntaxError("unterminated heredoc", closing.pos)
    return command, closing.pos.offset + 1
