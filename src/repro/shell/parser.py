"""Recursive-descent parser for the POSIX shell grammar.

Covers the constructs the paper's analysis reasons about: simple
commands with assignments and redirections, pipelines, and-or lists,
``;``/``&``/newline sequencing, subshells, brace groups, ``if``/``while``/
``until``/``for``/``case``, and function definitions.  Command
substitutions inside words are parsed recursively into full ASTs.
"""

from __future__ import annotations

from typing import List, Optional

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
from .lexer import ShellSyntaxError, tokenize
from .tokens import REDIRECT_OPERATORS, RESERVED_WORDS, Position, Token, TokenKind

#: Explicit nesting-depth ceiling (compound commands + command
#: substitutions).  Each level costs ~10 interpreter frames across the
#: parser and the symbolic engine, so this keeps pathological inputs
#: like ``((((...))))`` well inside CPython's recursion limit and turns
#: them into a catchable :class:`ParseDepthExceeded` instead of a
#: :class:`RecursionError`.
MAX_NESTING_DEPTH = 60


class ParseDepthExceeded(ShellSyntaxError):
    """Input nested deeper than the parser's explicit guard."""


class Parser:
    def __init__(self, source: str, depth: int = 0):
        self.source = source
        self.tokens = tokenize(source)
        self.idx = 0
        #: current nesting depth; inherited by sub-parsers so command
        #: substitutions count toward the same ceiling
        self.depth = depth

    # -- token access -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.idx + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def take(self) -> Token:
        token = self.tokens[self.idx]
        if token.kind is not TokenKind.EOF:
            self.idx += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ShellSyntaxError:
        token = token or self.peek()
        return ShellSyntaxError(message, token.pos)

    def expect_word(self, text: str) -> Token:
        token = self.take()
        if not token.is_word(text):
            raise self.error(f"expected {text!r}, found {token.text!r}", token)
        return token

    def expect_op(self, text: str) -> Token:
        token = self.take()
        if not token.is_op(text):
            raise self.error(f"expected {text!r}, found {token.text!r}", token)
        return token

    def skip_newlines(self) -> None:
        while self.peek().kind is TokenKind.NEWLINE:
            self.take()

    # -- words -----------------------------------------------------------

    def make_word(self, token: Token) -> Word:
        return words_mod.parse_word(token.text, self._parse_sub, token.pos)

    def _parse_sub(self, source: str) -> Command:
        """Parse a command substitution's body, inheriting the nesting
        depth so ``$($($(...)))`` chains count toward the same ceiling."""
        return Parser(source, depth=self.depth).parse_program()

    # -- entry -------------------------------------------------------------

    def parse_program(self) -> Command:
        self.skip_newlines()
        commands: List[Command] = []
        while self.peek().kind is not TokenKind.EOF:
            commands.append(self.parse_and_or())
            sep = self.peek()
            if sep.is_op(";"):
                self.take()
                self.skip_newlines()
            elif sep.is_op("&"):
                self.take()
                commands[-1] = Background(commands[-1], pos=sep.pos)
                self.skip_newlines()
            elif sep.kind is TokenKind.NEWLINE:
                self.skip_newlines()
            elif sep.kind is TokenKind.EOF:
                break
            else:
                raise self.error(f"unexpected token {sep.text!r}", sep)
        if len(commands) == 1:
            return commands[0]
        return Sequence(commands)

    # -- command lists within compound constructs ----------------------------

    _LIST_ENDERS = {"then", "else", "elif", "fi", "do", "done", "esac", "}"}

    def _at_list_end(self) -> bool:
        token = self.peek()
        if token.kind is TokenKind.EOF:
            return True
        if token.kind is TokenKind.WORD and token.text in self._LIST_ENDERS:
            return True
        return token.is_op(")", ";;")

    def parse_list(self) -> Command:
        """A command list terminated by a reserved word or closing token."""
        self.skip_newlines()
        commands: List[Command] = []
        while not self._at_list_end():
            commands.append(self.parse_and_or())
            sep = self.peek()
            if sep.is_op(";"):
                self.take()
                self.skip_newlines()
            elif sep.is_op("&"):
                self.take()
                commands[-1] = Background(commands[-1], pos=sep.pos)
                self.skip_newlines()
            elif sep.kind is TokenKind.NEWLINE:
                self.skip_newlines()
            else:
                break
        if not commands:
            raise self.error("empty command list")
        if len(commands) == 1:
            return commands[0]
        return Sequence(commands)

    # -- and-or / pipeline -----------------------------------------------------

    def parse_and_or(self) -> Command:
        left = self.parse_pipeline()
        while self.peek().is_op("&&", "||"):
            op_token = self.take()
            self.skip_newlines()
            right = self.parse_pipeline()
            left = AndOr(left, op_token.text, right, pos=op_token.pos)
        return left

    def parse_pipeline(self) -> Command:
        negated = False
        if self.peek().is_word("!"):
            self.take()
            negated = True
        first = self.parse_command()
        commands = [first]
        while self.peek().is_op("|"):
            self.take()
            self.skip_newlines()
            commands.append(self.parse_command())
        if len(commands) == 1 and not negated:
            return first
        return Pipeline(commands, negated=negated, pos=_pos_of(first))

    # -- commands ---------------------------------------------------------------

    def parse_command(self) -> Command:
        self.depth += 1
        try:
            if self.depth > MAX_NESTING_DEPTH:
                raise ParseDepthExceeded(
                    f"command nesting exceeds {MAX_NESTING_DEPTH} levels",
                    self.peek().pos,
                )
            return self._parse_command()
        finally:
            self.depth -= 1

    def _parse_command(self) -> Command:
        token = self.peek()
        if token.is_op("("):
            return self._with_redirects(self.parse_subshell())
        if token.kind is TokenKind.WORD:
            if token.text == "{":
                return self._with_redirects(self.parse_brace_group())
            if token.text == "if":
                return self._with_redirects(self.parse_if())
            if token.text in ("while", "until"):
                return self._with_redirects(self.parse_while())
            if token.text == "for":
                return self._with_redirects(self.parse_for())
            if token.text == "case":
                return self._with_redirects(self.parse_case())
            if (
                self.peek(1).is_op("(")
                and self.peek(2).is_op(")")
                and token.text not in RESERVED_WORDS
            ):
                return self.parse_function_def()
        return self.parse_simple_command()

    def _with_redirects(self, command: Command) -> Command:
        redirects = self.parse_redirect_list()
        if redirects:
            command.redirects.extend(redirects)  # type: ignore[attr-defined]
        return command

    def parse_redirect_list(self) -> List[Redirect]:
        redirects = []
        while True:
            redirect = self.try_parse_redirect()
            if redirect is None:
                return redirects
            redirects.append(redirect)

    def try_parse_redirect(self) -> Optional[Redirect]:
        token = self.peek()
        fd: Optional[int] = None
        offset = 0
        if token.kind is TokenKind.IO_NUMBER:
            fd = int(token.text)
            token = self.peek(1)
            offset = 1
        if token.kind is TokenKind.OPERATOR and token.text in REDIRECT_OPERATORS:
            for _ in range(offset + 1):
                op_token = self.take()
            if op_token.text in ("<<", "<<-"):
                # The lexer attached the delimiter word and body.
                target = Word(
                    parts=[], raw=op_token.raw or "", pos=op_token.pos
                )
                return Redirect(
                    op=op_token.text,
                    target=target,
                    fd=fd,
                    heredoc_body=op_token.heredoc_body,
                    heredoc_quoted=op_token.heredoc_quoted,
                )
            word_token = self.take()
            if word_token.kind is not TokenKind.WORD:
                raise self.error("redirect requires a target word", word_token)
            return Redirect(
                op=op_token.text, target=self.make_word(word_token), fd=fd
            )
        return None

    def parse_simple_command(self) -> SimpleCommand:
        cmd = SimpleCommand(pos=self.peek().pos)
        seen_word = False
        while True:
            redirect = self.try_parse_redirect()
            if redirect is not None:
                cmd.redirects.append(redirect)
                continue
            token = self.peek()
            if token.kind is not TokenKind.WORD:
                break
            if not seen_word and not cmd.assignments and token.text in RESERVED_WORDS:
                break
            assignment = None if seen_word else _try_assignment(token)
            self.take()
            if assignment is not None:
                name, value_raw = assignment
                value = words_mod.parse_word(value_raw, self._parse_sub, token.pos)
                cmd.assignments.append(Assignment(name, value, token.pos))
            else:
                seen_word = True
                cmd.words.append(self.make_word(token))
        if not cmd.words and not cmd.assignments and not cmd.redirects:
            raise self.error(f"expected a command, found {self.peek().text!r}")
        return cmd

    # -- compound commands ---------------------------------------------------------

    def parse_subshell(self) -> Subshell:
        open_token = self.expect_op("(")
        body = self.parse_list()
        self.expect_op(")")
        return Subshell(body, pos=open_token.pos)

    def parse_brace_group(self) -> BraceGroup:
        open_token = self.expect_word("{")
        body = self.parse_list()
        self.expect_word("}")
        return BraceGroup(body, pos=open_token.pos)

    def parse_if(self) -> If:
        if_token = self.expect_word("if")
        cond = self.parse_list()
        self.expect_word("then")
        then = self.parse_list()
        elifs: List[ElifClause] = []
        else_: Optional[Command] = None
        while self.peek().is_word("elif"):
            self.take()
            elif_cond = self.parse_list()
            self.expect_word("then")
            elifs.append(ElifClause(elif_cond, self.parse_list()))
        if self.peek().is_word("else"):
            self.take()
            else_ = self.parse_list()
        self.expect_word("fi")
        return If(cond, then, elifs=elifs, else_=else_, pos=if_token.pos)

    def parse_while(self) -> While:
        kw_token = self.take()  # "while" or "until"
        cond = self.parse_list()
        self.expect_word("do")
        body = self.parse_list()
        self.expect_word("done")
        return While(cond, body, until=(kw_token.text == "until"), pos=kw_token.pos)

    def parse_for(self) -> For:
        for_token = self.expect_word("for")
        name_token = self.take()
        if name_token.kind is not TokenKind.WORD:
            raise self.error("expected a variable name after 'for'", name_token)
        iter_words: Optional[List[Word]] = None
        self.skip_newlines()
        if self.peek().is_word("in"):
            self.take()
            iter_words = []
            while self.peek().kind is TokenKind.WORD and not self.peek().is_word("do"):
                iter_words.append(self.make_word(self.take()))
            if self.peek().is_op(";"):
                self.take()
            self.skip_newlines()
        elif self.peek().is_op(";"):
            self.take()
            self.skip_newlines()
        self.expect_word("do")
        body = self.parse_list()
        self.expect_word("done")
        return For(name_token.text, iter_words, body, pos=for_token.pos)

    def parse_case(self) -> Case:
        case_token = self.expect_word("case")
        subject_token = self.take()
        if subject_token.kind is not TokenKind.WORD:
            raise self.error("expected a word after 'case'", subject_token)
        subject = self.make_word(subject_token)
        self.skip_newlines()
        self.expect_word("in")
        self.skip_newlines()
        items: List[CaseItem] = []
        while not self.peek().is_word("esac"):
            if self.peek().kind is TokenKind.EOF:
                raise self.error("missing 'esac'")
            if self.peek().is_op("("):
                self.take()
            patterns = [self._case_pattern()]
            while self.peek().is_op("|"):
                self.take()
                patterns.append(self._case_pattern())
            self.expect_op(")")
            self.skip_newlines()
            body: Optional[Command] = None
            if not self.peek().is_op(";;") and not self.peek().is_word("esac"):
                body = self.parse_list()
            items.append(CaseItem(patterns, body))
            if self.peek().is_op(";;"):
                self.take()
                self.skip_newlines()
        self.expect_word("esac")
        return Case(subject, items=items, pos=case_token.pos)

    def _case_pattern(self) -> Word:
        token = self.take()
        if token.kind is not TokenKind.WORD:
            raise self.error("expected a case pattern", token)
        return self.make_word(token)

    def parse_function_def(self) -> FunctionDef:
        name_token = self.take()
        self.expect_op("(")
        self.expect_op(")")
        self.skip_newlines()
        body = self.parse_command()
        return FunctionDef(name_token.text, body, pos=name_token.pos)


def _try_assignment(token: Token) -> Optional[tuple]:
    """``NAME=value`` detection (value may be empty)."""
    text = token.text
    eq = -1
    for idx, char in enumerate(text):
        if char == "=":
            eq = idx
            break
        if char == "\\" or char in "'\"$`":
            return None
    if eq <= 0:
        return None
    name = text[:eq]
    if not (name[0].isalpha() or name[0] == "_"):
        return None
    if not all(c.isalnum() or c == "_" for c in name):
        return None
    return name, text[eq + 1 :]


def _pos_of(command: Command) -> Position:
    return getattr(command, "pos", Position())


def parse(source: str) -> Command:
    """Parse shell ``source`` into a command AST.

    Construct nesting is bounded by :data:`MAX_NESTING_DEPTH`; exceeding
    it raises :class:`ParseDepthExceeded` rather than
    :class:`RecursionError`.
    """
    return Parser(source).parse_program()
