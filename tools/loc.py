#!/usr/bin/env python3
"""Count OCaml code lines per lib/ library and for bin/.

A line counts when some character on it lies outside every comment and
is not whitespace.  Comments nest, and string literals (plain and
{id|quoted|id}) are code: a comment opener inside a string does not
start a comment, and a string inside a comment does not end one early,
as in the OCaml lexer.  Character literals such as '"' are skipped so
they do not open a string.

Usage: python3 tools/loc.py [ROOT]   (ROOT defaults to the current dir)
"""

import os
import re
import sys

QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")
CHAR_LIT = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")


def code_lines(text):
    """Number of lines of [text] holding code outside comments."""
    code = set()  # line numbers (0-based) with code
    line = 0
    depth = 0  # comment nesting
    i, n = 0, len(text)

    def skip_string(i, line, mark):
        # at the opening quote; returns the index past the closing quote
        i += 1
        while i < n and text[i] != '"':
            if text[i] == "\\":
                i += 1
            if i < n and text[i] == "\n":
                line += 1
            elif mark:
                code.add(line)
            i += 1
        return i + 1, line

    def skip_quoted(i, line, ident, mark):
        close = "|" + ident + "}"
        end = text.find(close, i)
        end = n if end < 0 else end + len(close)
        for ch in text[i:end]:
            if ch == "\n":
                line += 1
            elif mark and not ch.isspace():
                code.add(line)
        return end, line

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            if depth == 0:
                code.add(line)
            i, line = skip_string(i, line, depth == 0)
        elif c == "{" and QUOTED_OPEN.match(text, i):
            m = QUOTED_OPEN.match(text, i)
            if depth == 0:
                code.add(line)
            i, line = skip_quoted(m.end(), line, m.group(1), depth == 0)
        elif c == "'" and CHAR_LIT.match(text, i):
            m = CHAR_LIT.match(text, i)
            if depth == 0:
                code.add(line)
            i = m.end()
        else:
            if depth == 0 and not c.isspace():
                code.add(line)
            i += 1
    return len(code)


def count_dir(path):
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
        for f in sorted(filenames):
            if f.endswith((".ml", ".mli")):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += code_lines(fh.read())
    return total


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    lib = os.path.join(root, "lib")
    rows = [
        ("lib/" + d, count_dir(os.path.join(lib, d)))
        for d in sorted(os.listdir(lib))
        if os.path.isdir(os.path.join(lib, d))
    ]
    rows.append(("bin", count_dir(os.path.join(root, "bin"))))
    for name, k in rows:
        print(f"{name:<18}{k:>7}")
    print(f"{'lib+bin':<18}{sum(k for _, k in rows):>7}")


if __name__ == "__main__":
    main()
