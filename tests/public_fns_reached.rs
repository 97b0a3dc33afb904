//! The library is what runs: every `pub fn` in the library crates must be
//! named by code that is not a test.
//!
//! The scan reads every `.rs` file under `crates/`, `src/`, `examples/` and
//! `perfbench/`, with comments (doc examples included), string, raw-string
//! and char literals, `use` declarations (re-exports included) and
//! `#[cfg(test)]` items blanked. Files under a `tests/` directory and files
//! named `tests_*.rs` are test code and are skipped. Each bare `pub fn` in
//! `crates/*/src`, except in `crates/bench` and `crates/testkit`, is a
//! library function; it is reached when its name is left as an identifier
//! anywhere, other than right after `fn`. Bench binaries and benches count
//! as callers. A library function that nothing reaches fails the test
//! (`file:line name`) unless [`ALLOWED`] keeps it: delete it, or move it
//! into the test that needs it. An [`ALLOWED`] entry that is reached, or
//! gone, fails too.
//!
//! Limits: the scan matches names, not paths. A `pub fn` whose name is also
//! some other identifier in non-test code (a local, a field, another type's
//! method) reads as reached, so a name collision can hide an item; method
//! names shared with std types (`get`, `set`, `len`, `contains`, `full`)
//! collide most. Such an item cannot go on [`ALLOWED`] either (its entry
//! reads as reached): mark the crate's `pub fn`s `#[deprecated]` in a
//! scratch copy and build every non-test target to find its callers. Trait
//! methods carry no `pub` and are not scanned; check their callers by hand.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Library functions that only tests reach, kept on purpose: `name: why`.
const ALLOWED: &[&str] = &[
    "tridiag_matvec: oracle, Thomas solutions are checked by their residual",
    "penta_matvec: oracle, pentadiagonal solutions are checked by their residual",
    "block_tridiag_matvec: oracle, block-tridiagonal solutions are checked by their residual",
    "penta_solve: oracle, the serial solve the pentadiagonal sweeps must match",
    "valid_partitionings_bruteforce: oracle, every valid γ, to check the search's optimum",
    "parse_chrome_json: observer, a written Perfetto trace must parse back",
    "clock: observer, the simulator's tests read each rank's virtual time",
    "pentadiagonal: fixture, the pentadiagonal SP problem the penta tests run",
    "from_vec: fixture, arrays from literal data, the NaN-oracle cases among them",
];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn at(c: &[char], i: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, p)| c.get(i + k) == Some(&p))
}

/// Index past the item starting at `i`: through its first `;` outside
/// brackets, or through its braced body.
fn item_end(c: &[char], mut i: usize) -> usize {
    let mut depth = 0;
    while i < c.len() {
        match c[i] {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' => depth -= 1,
            '}' if depth == 1 => return i + 1,
            '}' => depth -= 1,
            ';' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Index past the comment or literal starting at `i`, if one starts there.
fn literal_end(c: &[char], i: usize) -> Option<usize> {
    let find = |from: usize, pat: &str| (from..c.len()).find(|&k| at(c, k, pat));
    if at(c, i, "//") {
        return Some(find(i, "\n").unwrap_or(c.len()));
    }
    if at(c, i, "/*") {
        let (mut k, mut depth) = (i, 0);
        while k < c.len() && !(depth == 1 && at(c, k, "*/")) {
            depth += i32::from(at(c, k, "/*")) - i32::from(at(c, k, "*/"));
            k += 1;
        }
        return Some(k + 2);
    }
    let word = (i..c.len())
        .find(|&k| !is_ident_char(c[k]))
        .unwrap_or(c.len());
    let prefix: String = c[i..word].iter().collect();
    let raw_ident = c.get(word) == Some(&'#') && c.get(word + 1).is_some_and(|&n| is_ident_char(n));
    match (prefix.as_str(), c.get(word)) {
        ("r" | "br" | "cr", Some('#' | '"')) if !raw_ident => {
            let hashes = c[word..].iter().take_while(|&&h| h == '#').count();
            let close = format!("\"{}", "#".repeat(hashes));
            find(word + hashes + 1, &close).map(|k| k + close.len())
        }
        ("" | "b" | "c", Some('"')) => {
            let mut k = word + 1;
            while k < c.len() && c[k] != '"' {
                k += if c[k] == '\\' { 2 } else { 1 };
            }
            Some(k + 1)
        }
        ("" | "b", Some('\'')) if c.get(word + 1) == Some(&'\\') => {
            find(word + 3, "'").map(|k| k + 1) // '\n', '\'', '\u{…}'
        }
        ("" | "b", Some('\'')) if c.get(word + 2) == Some(&'\'') => Some(word + 3),
        ("", Some('\'')) => Some(i + 1), // a lifetime or a label: the tick only
        _ => None,
    }
}

/// `src` with comments, literals, `use` declarations and `#[cfg(test)]`
/// items blanked; newlines are kept, so line numbers still hold.
fn code_of(src: &str) -> Vec<char> {
    let mut c: Vec<char> = src.chars().collect();
    let blank = |c: &mut [char], from: usize, to: usize| {
        let to = to.min(c.len());
        for ch in c[from..to].iter_mut().filter(|ch| **ch != '\n') {
            *ch = ' ';
        }
    };
    let mut i = 0;
    while i < c.len() {
        if let Some(end) = literal_end(&c, i) {
            blank(&mut c, i, end);
            i = end;
        } else {
            i += c[i..]
                .iter()
                .take_while(|&&ch| is_ident_char(ch))
                .count()
                .max(1);
        }
    }
    for i in 0..c.len() {
        let starts_word = i == 0 || !is_ident_char(c[i - 1]);
        if at(&c, i, "#[cfg(test)]") || (starts_word && at(&c, i, "use ")) {
            let end = item_end(&c, i);
            blank(&mut c, i, end);
        }
    }
    c
}

/// The identifiers of `code`, each with its line and the identifier before it.
fn identifiers(code: &[char]) -> Vec<(String, usize, String)> {
    let (mut out, mut line, mut prev, mut i) = (Vec::new(), 1, String::new(), 0);
    while i < code.len() {
        line += usize::from(code[i] == '\n');
        let len = code[i..]
            .iter()
            .take_while(|&&ch| is_ident_char(ch))
            .count();
        if len > 0 && !code[i].is_ascii_digit() {
            let word: String = code[i..i + len].iter().collect();
            out.push((word.clone(), line, std::mem::replace(&mut prev, word)));
        }
        i += len.max(1);
    }
    out
}

/// Every `.rs` file under `dir`, skipping build output and hidden folders.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_library_pub_fn_is_reached_by_non_test_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "perfbench"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let (mut defs, mut uses) = (Vec::new(), HashSet::new());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let parts: Vec<&str> = rel.split('/').collect();
        if parts.contains(&"tests") || parts.last().unwrap().starts_with("tests_") {
            continue;
        }
        let library = parts.len() > 3
            && parts[0] == "crates"
            && parts[2] == "src"
            && !matches!(parts[1], "bench" | "testkit");
        let ids = identifiers(&code_of(&fs::read_to_string(path).unwrap()));
        for (k, (name, line, prev)) in ids.iter().enumerate() {
            if prev != "fn" {
                uses.insert(name.clone());
                continue;
            }
            let qualifiers = ["const", "async", "unsafe", "extern"];
            let mut before = ids[..k - 1].iter().rev().map(|(w, ..)| w.as_str());
            if library && before.find(|w| !qualifiers.contains(w)) == Some("pub") {
                defs.push((format!("{rel}:{line}"), name.clone()));
            }
        }
    }
    assert!(
        defs.len() > 100,
        "found only {} library functions",
        defs.len()
    );
    let allowed: Vec<&str> = ALLOWED
        .iter()
        .map(|e| e.split(':').next().unwrap())
        .collect();
    let unreached: Vec<String> = defs
        .iter()
        .filter(|(_, name)| !uses.contains(name) && !allowed.contains(&name.as_str()))
        .map(|(at, name)| format!("{at} {name}"))
        .collect();
    assert!(
        unreached.is_empty(),
        "public functions that only tests reach (delete them, or move them into the \
         test that needs them):\n{}",
        unreached.join("\n")
    );
    let stale: Vec<&&str> = allowed
        .iter()
        .filter(|&&a| uses.contains(a) || !defs.iter().any(|(_, d)| d == a))
        .collect();
    assert!(
        stale.is_empty(),
        "ALLOWED entries reached, or gone: {stale:?}"
    );
}

#[test]
fn scan_skips_literals_comments_and_test_items() {
    let src = r##"
        use crate::hidden_import;
        const URL: &str = "https://ui.perfetto.dev // not_code";
        fn shown<'a>(x: &'a str) { format!("{{ {} }}", '{'); identity::<4>(x); b'}'; }
        /* block /* nested */ still_comment */
        #[cfg(test)]
        pub(crate) fn test_only() -> [u8; 2] { [0; 2] }
        #[cfg(test)]
        mod tests { fn inner() { format!("}} {}", '}'); } fn after_brace() {} }
        pub const fn after() -> &'static str { r#"raw "quoted" in_raw"# }
    "##;
    let code = code_of(src);
    let names: Vec<String> = identifiers(&code).into_iter().map(|(w, ..)| w).collect();
    for kept in ["URL", "shown", "format", "identity", "x", "after"] {
        assert!(names.iter().any(|n| n == kept), "{kept} missing: {names:?}");
    }
    let gone = ["hidden_import", "perfetto", "not_code", "still_comment"];
    for gone in gone
        .into_iter()
        .chain(["test_only", "inner", "after_brace", "in_raw"])
    {
        assert!(!names.iter().any(|n| n == gone), "{gone} kept: {names:?}");
    }
    assert_eq!(
        code.iter().filter(|&&ch| ch == '\n').count(),
        src.matches('\n').count()
    );
}
