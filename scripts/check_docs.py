#!/usr/bin/env python
"""Doc-vs-CLI drift check: every documented repro invocation must parse.

Collects the repro CLI invocations (``repro ...`` / ``python -m
repro.cli ...``) from the fenced code blocks of README.md and
docs/*.md and from the commands .github/workflows/ci.yml runs, and
parses each with the live parser (:func:`repro.cli.build_parser`).
Every verb's parser takes only its own flags, so a flag shown on a
verb that does not take it (``repro fig5 --trace seed:0:2``) is caught
like a flag that exists nowhere.

Before parsing, backslash continuations are joined; pipes, redirects,
``&``, ``;`` and comments end the invocation; ``$VARS`` become ``0``;
and a leading ``PYTHONPATH=...`` or ``time`` is skipped.

Exit 0 when every invocation parses; exit 1 listing each one that does
not, with its file, line and argparse's complaint.  CI runs this in the
lint job, and ``tests/test_check_docs.py`` keeps the checker itself
honest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Only lines mentioning the CLI are split into words at all.
_CLI_RE = re.compile(r"python3? -m repro\.cli\b|(?:^|[\s;&|(])repro\s")

#: Shell variables (``$PORT``, ``${ROSTER}``, ``$!``) parse as ``0``.
_VAR_RE = re.compile(r"\$(?:\{[^}]*\}|\w+|!)")

#: Redirects (``> out``, ``2>err``, ``2>&1``, ``<<'EOF'``) are not arguments.
_REDIRECT_RE = re.compile(r"(?<!\S)\d*(?:>>?|<<?)&?\s*\S+")

#: Leading ``NAME=value`` environment assignments.
_ASSIGN_RE = re.compile(r"^\w+=")


def doc_files(root: Path = REPO_ROOT) -> "list[Path]":
    docs = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    return [root / "README.md", *docs]


def iter_commands(text: str, *, fenced: bool = True):
    """Yield ``(lineno, command)`` per shell command in ``text`` — only
    inside ``` fences when ``fenced`` — with backslash continuations
    joined onto the command's first line."""
    inside = not fenced
    start, parts = 0, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if fenced and line.lstrip().startswith("```"):
            inside, parts = not inside, []
            continue
        if not inside:
            continue
        if not parts:
            start = lineno
        stripped = line.strip()
        if stripped.endswith("\\"):
            parts.append(stripped[:-1].rstrip())
            continue
        yield start, " ".join([*parts, stripped])
        parts = []


def cli_invocations(command: str) -> "list[list[str]]":
    """The argument lists ``command`` passes to the repro CLI (one per
    invocation; none when it runs something else)."""
    if not _CLI_RE.search(command):
        return []
    command = _REDIRECT_RE.sub(" ", _VAR_RE.sub("0", command))
    lexer = shlex.shlex(command, posix=True, punctuation_chars="|&;()")
    lexer.whitespace_split = True
    found, words = [], []
    for word in [*lexer, ";"]:
        if word.strip("|&;()"):
            words.append(word)
            continue
        argv = _repro_args(words)
        if argv is not None:
            found.append(argv)
        words = []
    return found


def _repro_args(words: "list[str]") -> "list[str] | None":
    for i in range(len(words) - 2):
        if words[i].startswith("python") and words[i + 1 : i + 3] == ["-m", "repro.cli"]:
            return words[i + 3 :]
    while words and (words[0] == "time" or _ASSIGN_RE.match(words[0])):
        words = words[1:]
    return words[1:] if words[:1] == ["repro"] else None


def invocations(path: Path, *, fenced: bool = True):
    """Yield ``(lineno, argv)`` for each repro invocation in ``path``;
    a command the shell could not split yields ``argv=None``."""
    for lineno, command in iter_commands(path.read_text(), fenced=fenced):
        try:
            for argv in cli_invocations(command):
                yield lineno, argv
        except ValueError:
            yield lineno, None


def parse_error(parser: argparse.ArgumentParser, argv: "list[str]") -> "str | None":
    """argparse's complaint about ``argv``, or ``None`` when it parses."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return sink.getvalue().strip().splitlines()[-1]
    return None


def known_flags() -> "set[str]":
    """Every option string on the root parser and all (sub-)verb parsers."""
    from repro.cli import build_parser

    flags, parsers = set(), [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags


def stale_invocations(root: Path = REPO_ROOT):
    """``(path, lineno, argv, problem)`` per documented invocation, with
    ``problem`` ``None`` for those that parse."""
    from repro.cli import build_parser

    parser = build_parser()
    sources = [(p, True) for p in doc_files(root)] + [(root / ".github/workflows/ci.yml", False)]
    for path, fenced in sources:
        for lineno, argv in invocations(path, fenced=fenced):
            problem = "cannot split into words" if argv is None else parse_error(parser, argv)
            yield path, lineno, argv, problem


def main() -> int:
    checked = list(stale_invocations())
    if not checked:
        print("check_docs: no repro-CLI invocations found", file=sys.stderr)
        return 1
    stale = [c for c in checked if c[3] is not None]
    for path, lineno, argv, problem in stale:
        shown = shlex.join(["repro", *argv]) if argv is not None else ""
        print(f"{path.relative_to(REPO_ROOT)}:{lineno}: {shown}: {problem}", file=sys.stderr)
    if stale:
        print(
            f"check_docs: {len(stale)} stale invocation(s) out of {len(checked)}",
            file=sys.stderr,
        )
        return 1
    files = len({path for path, *_ in checked})
    print(f"check_docs OK: {len(checked)} invocation(s) across {files} file(s) parse")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
