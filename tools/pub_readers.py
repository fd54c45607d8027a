#!/usr/bin/env python3
"""List the `pub` items of crates/*/src that nothing outside their crate names.

    python3 tools/pub_readers.py [ROOT]

A name grep, not name resolution: it reads every library source file of
crates/*/src (bins excluded) up to its top-level `#[cfg(test)] mod`, and
takes each `pub` fn, type, trait, const, static, module, field and
re-exported name. A name counts as read when it appears as a word in any
`.rs` file outside that crate's library source: other crates, the crate's
own `tests/` and bins, `src/`, `tests/`, `examples/`, `benchmark/src` and
`tools/`. Same-named items shadow each other, so the list is a lower bound
of what no caller names; a type used only through inference (a returned
`PromSummary` whose fields a caller reads) is listed although it is read.

Prints one `file:line: kind name` line per unread item on stdout, and
per-crate `pub` / unread counts on stderr.
"""

import os
import re
import sys

DECL = re.compile(
    r'^\s*pub\s+(?:(?:const|async|unsafe)\s+)*'
    r'(fn|struct|enum|trait|type|const|static|mod|union)\s+(\w+)'
)
FIELD = re.compile(r'^\s*pub\s+(\w+)\s*:')
USE = re.compile(r'^\s*pub\s+use\s+(.*)')
SCANNED = ['crates', 'src', 'tests', 'examples', 'benchmark/src', 'tools']


def rs_files(top):
    for path, dirs, files in os.walk(top):
        dirs[:] = [d for d in dirs if d not in ('target', 'golden')]
        for f in files:
            if f.endswith('.rs'):
                yield os.path.join(path, f)


def library_lines(text):
    """The lines of a source file before its top-level test module."""
    lines = text.split('\n')
    for i, line in enumerate(lines):
        if line.startswith('#[cfg(test)]') and lines[i + 1 : i + 2] and lines[i + 1].startswith('mod '):
            return lines[:i]
    return lines


def use_names(body):
    """The names a `pub use` statement exports."""
    body = body.split('{', 1)[1] if '{' in body else body.rsplit('::', 1)[-1]
    names = re.findall(r'\b(\w+)\b(?!\s*::)', body.replace(' as ', ' '))
    return [n for n in names if n not in ('self', 'crate', 'super')]


def pub_items(path, text):
    lines = library_lines(text)
    i = 0
    while i < len(lines):
        line = lines[i]
        m = USE.match(line)
        if m:
            body, start = m.group(1), i
            while ';' not in body and i + 1 < len(lines):
                i += 1
                body += ' ' + lines[i]
            for name in use_names(body.rstrip(';')):
                yield start + 1, 'use', name
        elif DECL.match(line):
            kind, name = DECL.match(line).groups()
            yield i + 1, kind, name
        elif FIELD.match(line):
            yield i + 1, 'field', FIELD.match(line).group(1)
        i += 1


def main():
    os.chdir(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), '..'))
    texts = {f: open(f).read() for top in SCANNED for f in rs_files(top)}
    total = unread = 0
    for crate in sorted(os.listdir('crates')):
        src = os.path.join('crates', crate, 'src')
        own = [f for f in texts if f.startswith(src + os.sep) and '/bin/' not in f and not f.endswith('/main.rs')]
        outside = '\n'.join(t for f, t in texts.items() if f not in own)
        n = m = 0
        for f in sorted(own):
            for line, kind, name in pub_items(f, texts[f]):
                n += 1
                if not re.search(r'\b' + re.escape(name) + r'\b', outside):
                    m += 1
                    print(f'{f}:{line}: {kind} {name}')
        print(f'{crate}: {n} pub, {m} not named outside', file=sys.stderr)
        total, unread = total + n, unread + m
    print(f'all crates: {total} pub, {unread} not named outside', file=sys.stderr)


main()
