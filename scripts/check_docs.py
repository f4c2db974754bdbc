#!/usr/bin/env python3
"""Docs lint for CI: link integrity + example-header sync.

Checks, with zero dependencies beyond the stdlib:

1. every relative markdown link in README.md and docs/*.md points at a
   file or directory that exists (external ``scheme://`` links and
   GitHub-web-relative links that escape the repo are skipped), and every
   ``#fragment`` on an intra-repo markdown link names a real heading
   (GitHub anchor slugs);
2. every ``examples/*.py`` opens with a module docstring whose ``Run:``
   stanza names its own file (``python examples/<name>.py``), so headers
   cannot drift when examples are renamed or copied;
3. every protocol module — ``src/repro/baselines/*.py`` and
   ``src/repro/core/protocols.py`` — opens with a module docstring (the
   plugin modules *are* the protocol documentation);
4. every protocol name in the ``core/protocols.py`` registry table is
   documented in both README.md and docs/ARCHITECTURE.md, so a newly
   registered plugin cannot ship undocumented (and a renamed one cannot
   leave stale docs behind);
5. every recognized value of the knob name tuples — chaos fault classes
   (``harness/chaos.py``), placement policies (``core/placement.py``),
   and tracing pipeline stages (``obs/trace.py``) — is documented in
   both README.md and docs/ARCHITECTURE.md, same rationale as the
   protocol registry; and the README protocol matrix names, as
   ``option=`` code spans in each protocol's row, exactly the options
   its plugin's ``option_names()`` returns (an option a plugin drops or
   gains cannot leave the matrix behind);
6. every module under ``src/`` imports only the standard library,
   ``repro`` itself, and packages declared in ``pyproject.toml``
   ``dependencies`` — the README's "pure stdlib" claim and the CI image
   (which installs nothing else) both depend on it;
7. every CamelCase name inside a code span of README.md and docs/*.md is
   defined somewhere under ``src/``, ``perf/`` or ``scripts/`` (a class,
   a function or an assignment), is a builtin, or is listed in
   :data:`PROSE_NAMES` — so deleting or renaming a documented class
   fails CI until the prose follows;
8. every ``*.md`` file named in README.md, docs/*.md or a docstring under
   ``src/`` exists in the repo, so does every ``benchmarks/*.json`` named
   there (a glob such as ``benchmarks/BENCH_pr*.json`` must match a file),
   and every section quoted beside ARCHITECTURE.md
   (``(docs/ARCHITECTURE.md, "Lanes")``) is one of its headings.

Exit code 0 when clean; prints every violation and exits 1 otherwise.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces → dashes."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(md_path: Path) -> set[str]:
    text = md_path.read_text(encoding="utf-8")
    return {github_slug(h) for h in HEADING_RE.findall(text)}


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(REPO)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for link in LINK_RE.findall(text):
            if "://" in link or link.startswith("mailto:"):
                continue
            path_part, _, fragment = link.partition("#")
            if path_part:
                target = (doc.parent / path_part).resolve()
                try:
                    target.relative_to(REPO)
                except ValueError:
                    continue  # GitHub-web-relative (e.g. ../../actions/...)
                if not target.exists():
                    errors.append(
                        f"{doc.relative_to(REPO)}: broken link -> {link}")
                    continue
            else:
                target = doc
            if fragment and target.suffix == ".md" and target.is_file():
                if fragment not in anchors_of(target):
                    errors.append(
                        f"{doc.relative_to(REPO)}: dead anchor -> {link}")
    return errors


def check_example_headers() -> list[str]:
    errors = []
    for example in sorted((REPO / "examples").glob("*.py")):
        rel = example.relative_to(REPO)
        text = example.read_text(encoding="utf-8")
        match = re.search(r'"""(.*?)"""', text, re.DOTALL)
        if not match:
            errors.append(f"{rel}: no module docstring")
            continue
        doc = match.group(1)
        run_line = f"python examples/{example.name}"
        if "Run:" not in doc or run_line not in doc:
            errors.append(
                f"{rel}: docstring must carry a 'Run:' stanza naming "
                f"'{run_line}'")
    return errors


PROTOCOL_MODULES = [
    REPO / "src" / "repro" / "core" / "protocols.py",
    *sorted((REPO / "src" / "repro" / "baselines").glob("*.py")),
]

#: the registry's lazy table is the source of truth for protocol names
#: (and for the module each plugin lives in)
REGISTRY_RE = re.compile(r'^\s*"(\w+)":\s*"(repro\.[\w.]+)",\s*$',
                         re.MULTILINE)


def check_protocol_modules() -> list[str]:
    errors = []
    for module in PROTOCOL_MODULES:
        rel = module.relative_to(REPO)
        text = module.read_text(encoding="utf-8")
        if not re.match(r'^(#![^\n]*\n)?("""|\'\'\')', text):
            errors.append(f"{rel}: protocol module must open with a "
                          "module docstring")
    return errors


def registered_plugins() -> list[tuple[str, str]]:
    """``(protocol name, plugin module)`` per registry entry."""
    text = (REPO / "src" / "repro" / "core" / "protocols.py").read_text(
        encoding="utf-8")
    return REGISTRY_RE.findall(text)


def registered_protocols() -> list[str]:
    return [name for name, _ in registered_plugins()]


def check_protocols_documented() -> list[str]:
    errors = []
    protocols = registered_protocols()
    if not protocols:
        return ["core/protocols.py: no protocol registry entries found "
                "(_LAZY_MODULES table missing or reshaped?)"]
    for doc in (REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"):
        text = doc.read_text(encoding="utf-8")
        for protocol in protocols:
            # Require the code-formatted name: a plain substring match
            # would let incidental prose ("obscure", "GST machinery")
            # satisfy the guard for short names.
            if f"`{protocol}`" not in text:
                errors.append(
                    f"{doc.relative_to(REPO)}: registered protocol "
                    f"{protocol!r} is undocumented (expected `{protocol}` "
                    "in code format)")
    return errors


#: knob-name tuples whose every value must appear (code-formatted) in the
#: docs: (source file, tuple variable name)
KNOB_TUPLES = [
    (REPO / "src" / "repro" / "harness" / "chaos.py", "FAULT_CLASSES"),
    (REPO / "src" / "repro" / "core" / "placement.py", "PLACEMENT_POLICIES"),
    (REPO / "src" / "repro" / "obs" / "trace.py", "STAGES"),
]


def knob_values(path: Path, var: str) -> list[str]:
    text = path.read_text(encoding="utf-8")
    match = re.search(rf'^{var}\s*=\s*\(([^)]*)\)', text, re.MULTILINE)
    if not match:
        return []
    return re.findall(r'"(\w+)"', match.group(1))


def check_knobs_documented() -> list[str]:
    errors = []
    for path, var in KNOB_TUPLES:
        values = knob_values(path, var)
        if not values:
            errors.append(f"{path.relative_to(REPO)}: knob tuple {var} not "
                          "found (renamed or reshaped?)")
            continue
        for doc in (REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"):
            text = doc.read_text(encoding="utf-8")
            for value in values:
                if f'`"{value}"`' not in text and f"`{value}`" not in text:
                    errors.append(
                        f"{doc.relative_to(REPO)}: {var} value "
                        f"{value!r} is undocumented (expected `\"{value}\"` "
                        "in code format)")
    return errors


#: a plugin's ``option_names`` body: one ``return (...)`` of string literals
OPTION_NAMES_RE = re.compile(
    r"def option_names\(self\)[^\n]*\n\s+return \(([^)]*)\)")


def check_plugin_options_documented() -> list[str]:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    errors = []
    for protocol, module in registered_plugins():
        source = (REPO / "src" / Path(*module.split("."))).with_suffix(".py")
        options = {name
                   for body in OPTION_NAMES_RE.findall(
                       source.read_text(encoding="utf-8"))
                   for name in re.findall(r'"(\w+)"', body)}
        rows = [line for line in readme.splitlines()
                if line.startswith("|")
                and f"`{protocol}`" in line.split("|")[1]]
        if len(rows) != 1:
            errors.append(f"README.md: expected one protocol-matrix row for "
                          f"`{protocol}`, found {len(rows)}")
            continue
        documented = set(re.findall(r"`(\w+)=`", rows[0]))
        if documented != options:
            errors.append(
                f"README.md: protocol-matrix row of `{protocol}` names "
                f"options {sorted(documented)}, its plugin takes "
                f"{sorted(options)}")
    return errors


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` (distribution names,
    lower-cased, ``-`` → ``_``; version specifiers dropped)."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^dependencies\s*=\s*\[(.*?)\]', text,
                      re.MULTILINE | re.DOTALL)
    if not match:
        return set()
    return {name.lower().replace("-", "_")
            for name in re.findall(r'["\']\s*([A-Za-z0-9_.\-]+)',
                                   match.group(1))}


def check_src_imports() -> list[str]:
    errors = []
    allowed = sys.stdlib_module_names | {"repro"} | declared_dependencies()
    for module in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in allowed:
                    errors.append(
                        f"{module.relative_to(REPO)}:{node.lineno}: imports "
                        f"{top!r}, which is neither stdlib nor declared in "
                        "pyproject.toml dependencies")
    return errors


#: CamelCase names the docs may put in code format without a definition:
#: the paper's protocol variables, and names of deleted classes where the
#: text says they are gone
PROSE_NAMES = {"PartitionTime", "StableTime", "ShardStableTime",
               "ApplyRemoteRun", "ApplyRemoteOkRun"}

CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
#: a CamelCase identifier that is not an attribute of something else
CAMEL_RE = re.compile(r"(?<![\w.])[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+(?!\w)")


def defined_names() -> set[str]:
    """Every class, function and assignment-target name in the code."""
    names: set[str] = set()
    for root in ("src", "perf", "scripts"):
        for module in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(
                    module.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Assign):
                    names.update(target.id for target in node.targets
                                 if isinstance(target, ast.Name))
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    names.add(node.target.id)
    return names


def documented_names(doc: Path) -> set[str]:
    """CamelCase identifiers inside the code spans of one markdown file."""
    text = doc.read_text(encoding="utf-8")
    return {name for span in CODE_SPAN_RE.findall(text)
            for name in CAMEL_RE.findall(span)}


def check_documented_names() -> list[str]:
    known = defined_names() | set(dir(builtins)) | PROSE_NAMES
    return [f"{doc.relative_to(REPO)}: `{name}` is not defined under "
            "src/, perf/ or scripts/ (renamed or deleted?)"
            for doc in [REPO / "README.md",
                        *sorted((REPO / "docs").glob("*.md"))]
            for name in sorted(documented_names(doc) - known)]


MD_NAME_RE = re.compile(r"(?<![\w./-])((?:\.\./|[\w-]+/)*[\w-]+\.md)\b")
#: a committed benchmark artifact, possibly a glob (``BENCH_pr*.json``)
BENCH_JSON_RE = re.compile(r"(?<![\w./-])benchmarks/([\w*<>-]+\.json)\b")
#: a section quoted beside ARCHITECTURE.md, after it (``ARCHITECTURE.md,
#: "Lanes"``, ``ARCHITECTURE.md`` ("Lanes")) or before it (``"Lanes" in
#: docs/ARCHITECTURE.md``)
SECTION_AFTER_RE = re.compile(r'ARCHITECTURE\.md`*\)?,?\s*\(?"([^"]+)"')
SECTION_BEFORE_RE = re.compile(r'"([^"]+)"\s+in\s+`*(?:docs/)?ARCHITECTURE\.md')


def src_docstrings() -> list[tuple[Path, str]]:
    """``(module, docstring)`` for every docstring under ``src/``."""
    found = []
    for module in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    found.append((module, doc))
    return found


def check_md_references() -> list[str]:
    """Every ``*.md`` and ``benchmarks/*.json`` named in the docs or a
    ``src/`` docstring exists, and every section quoted beside
    ARCHITECTURE.md is one of its headings.  ROADMAP.md and CHANGES.md are
    history and are not read."""
    basenames = {path.name for path in REPO.rglob("*.md")
                 if ".git" not in path.parts}
    headings = HEADING_RE.findall(
        (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8"))
    sections = {h.strip() for h in headings} | {
        re.sub(r"\s*\(.*\)$", "", h.strip()) for h in headings}
    sources = [(doc, doc.read_text(encoding="utf-8")) for doc in DOC_FILES]
    errors = []
    for path, text in sources + src_docstrings():
        rel = path.relative_to(REPO)
        text = re.sub(r"\s+", " ", text)
        for name in MD_NAME_RE.findall(text):
            if "/" in name:
                found = ((REPO / name).is_file()
                         or (path.parent / name).is_file())
            else:
                found = name in basenames
            if not found:
                errors.append(f"{rel}: names {name}, which is not in the repo")
        for name in BENCH_JSON_RE.findall(text):
            pattern = re.sub(r"<\w+>", "*", name)   # BENCH_pr<N>.json
            if not any((REPO / "benchmarks").glob(pattern)):
                errors.append(f"{rel}: names benchmarks/{name}, which "
                              "matches no file in the repo")
        for quoted in (SECTION_AFTER_RE.findall(text)
                       + SECTION_BEFORE_RE.findall(text)):
            if quoted not in sections:
                errors.append(f"{rel}: quotes section {quoted!r} of "
                              "docs/ARCHITECTURE.md, which has no such heading")
    return errors


def main() -> int:
    errors = (check_links() + check_example_headers()
              + check_protocol_modules() + check_protocols_documented()
              + check_knobs_documented() + check_plugin_options_documented()
              + check_src_imports()
              + check_documented_names() + check_md_references())
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    checked = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    n_knobs = sum(len(knob_values(path, var)) for path, var in KNOB_TUPLES)
    print(f"check_docs: links ok ({checked}); "
          f"{len(list((REPO / 'examples').glob('*.py')))} example headers ok; "
          f"{len(PROTOCOL_MODULES)} protocol modules ok; "
          f"{len(registered_protocols())} registered protocols documented; "
          f"{n_knobs} knob values and every plugin option documented; "
          "src/ imports stdlib + declared only; "
          "code-span CamelCase names all defined; "
          "*.md / benchmarks/*.json references and ARCHITECTURE sections "
          "resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
